"""Rule registry: first-match-wins, typed captures, routes (the open
replacement for the reference's closed parser enum, src/lib.rs:35-93)."""

import pyarrow as pa
import pytest

from ulp_ray.rules import (
    Capture,
    CompiledRegistry,
    Rule,
    RuleRegistry,
    UNMATCHED,
    default_transcript_registry,
)


@pytest.fixture(scope="module")
def compiled() -> CompiledRegistry:
    return default_transcript_registry().compile()


def test_first_match_wins_and_fallback(compiled):
    texts = pa.array(
        [
            "Calling tool bash with args path=/tmp/x timeout=30",
            "ERROR [auth] code=0x1A retry=true: boom boom",
            "connection from 10.0.0.1:8080 latency=12.5ms",
            "status=ok at 2026-01-02T03:04:05+00:00 items=7",
            "lorem ipsum dolor sit amet.",
        ]
    )
    out = compiled.parse_column(texts)
    assert out["rule"].to_pylist() == [
        "tool_call",
        "error_line",
        "net_event",
        "status",
        UNMATCHED,
    ]


def test_typed_captures(compiled):
    texts = pa.array(
        [
            "ERROR [cache] code=0xFF retry=false: x",
            "connection from 0:0:0:0:0:0:0:1:443 latency=1.5ms",
            "status=null at 2026-01-02T03:04:05+00:00 items=12",
            "status=0 at 2026-01-02T03:04:05+00:00 items=1",
            "Calling tool read with args path=/a/b timeout=600",
        ]
    )
    out = compiled.parse_column(texts)
    rows = out.to_pylist()
    # hex int via str_int (types.rs:168-181)
    assert rows[0]["x_code"] == 255
    assert rows[0]["x_retry"] is False
    # ipv6 canonicalized (tests.rs:520-547)
    assert rows[1]["x_ip"] == "::1"
    assert rows[1]["x_port"] == 443
    assert rows[1]["x_latency"] == 1.5
    # null sentinels (types.rs:150-156): "null" and "0" → null
    assert rows[2]["x_status"] is None
    assert rows[3]["x_status"] is None
    assert rows[2]["x_items"] == 12
    # ts parsed as RFC-3339 UTC
    assert rows[2]["x_ts"] is not None
    assert rows[4]["x_timeout"] == 600
    # captures from non-winning rules stay null
    assert rows[4]["x_code"] is None


def test_routes_default_and_template():
    reg = RuleRegistry(
        [
            Rule(
                "evt",
                r"evt (?P<x_kind>\w+)",
                (Capture("x_kind"),),
                route="evt_{{x_kind}}",
            ),
            Rule("plain", r"plain"),
        ]
    )
    c = reg.compile()
    parsed = c.parse_column(pa.array(["evt Login", "plain text", "nothing"]))
    routes = c.routes_for(parsed).to_pylist()
    assert routes == ["evt_Login", "plain", UNMATCHED]


def test_registry_version_changes_with_rules():
    r1 = RuleRegistry([Rule("a", r"a")])
    r2 = RuleRegistry([Rule("a", r"b")])
    assert r1.version != r2.version
    assert r1.version == RuleRegistry([Rule("a", r"a")]).version


def test_duplicate_rule_names_rejected():
    with pytest.raises(ValueError):
        RuleRegistry([Rule("a", r"a"), Rule("a", r"b")])


def test_capture_must_be_in_pattern():
    with pytest.raises(ValueError):
        Rule("a", r"a", (Capture("missing"),))


def test_conflicting_capture_types_rejected():
    reg = RuleRegistry(
        [
            Rule("a", r"(?P<x>\d+)", (Capture("x", "int"),)),
            Rule("b", r"(?P<x>\w+)", (Capture("x", "str"),)),
        ]
    )
    with pytest.raises(ValueError):
        reg.compile()


def test_parse_actor_pool(ray_session):
    """Actor-pool form of the parse stage (ST1 pattern)."""
    import ray.data

    from ulp_ray.stages.parse import ParseActor

    # two blocks, so the pool can launch both of its actors
    ds = ray.data.from_arrow(
        pa.table({"text": ["Calling tool bash with args path=/x timeout=5"] * 64}),
        override_num_blocks=2,
    )
    out = ds.map_batches(
        ParseActor,
        fn_constructor_kwargs={"registry": default_transcript_registry()},
        batch_format="pyarrow",
        concurrency=2,
    ).take_all()
    assert len(out) == 64
    assert all(r["rule"] == "tool_call" and r["x_timeout"] == 5 for r in out)


def test_conversion_failure_is_row_level_not_task_level():
    """A matching row whose capture can't convert yields a null capture,
    keeps its rule, and never fails the batch (north-rule row-level
    error policy; the reference panics the worker, src/lib.rs:90)."""
    reg = RuleRegistry(
        [Rule("num", r"n=(?P<x_n>\S+)", (Capture("x_n", "int"),))]
    )
    out = reg.compile().parse_column(
        pa.array(["n=42", "n=not_a_number", "n=0x1F", "no match here"])
    )
    rows = out.to_pylist()
    assert [r["rule"] for r in rows] == ["num", "num", "num", UNMATCHED]
    assert rows[0]["x_n"] == 42
    assert rows[1]["x_n"] is None  # conversion failed -> null, row kept
    assert rows[2]["x_n"] == 31  # hex path


def test_registry_json_round_trip():
    reg = default_transcript_registry()
    back = RuleRegistry.from_json(reg.to_json())
    assert back.version == reg.version
    assert [r.name for r in back.rules] == [r.name for r in reg.rules]
    assert back.rules[0].prefilter == reg.rules[0].prefilter


def test_unicode_text_passthrough(compiled):
    texts = pa.array(
        [
            "这是一个中文句子 with mixed 内容 🚀",
            "état= café… naïve ≠ ASCII",
            "Calling tool bash with args path=/tmp/文件.txt timeout=9",
        ]
    )
    out = compiled.parse_column(texts)
    rows = out.to_pylist()
    assert rows[0]["rule"] == UNMATCHED
    assert rows[1]["rule"] == UNMATCHED
    assert rows[2]["rule"] == "tool_call"
    assert rows[2]["x_path"] == "/tmp/文件.txt"


def test_grok_rule_expansion_and_parse():
    from ulp_ray.rules import RuleRegistry, grok_rule

    reg = RuleRegistry(
        [
            grok_rule(
                "conn",
                r"connection from %{IPV4:src}:%{POSINT:port} latency=%{NUMBER:lat}ms",
                prefilter="connection from ",
            ),
            grok_rule("err", r"%{LOGLEVEL:level} \[%{WORD:comp}\] %{GREEDYDATA:msg}"),
        ]
    )
    compiled = reg.compile()
    out = compiled.parse_column(
        pa.array(
            [
                "connection from 10.0.0.1:443 latency=3.5ms",
                "ERROR [disk] out of space",
                "no match here",
            ]
        )
    )
    assert out["rule"].to_pylist() == ["conn", "err", "_unmatched"]
    assert out["src"].to_pylist()[0] == "10.0.0.1"
    assert out["port"].to_pylist()[0] == 443  # typed int via IPV4/POSINT defaults
    assert out["lat"].to_pylist()[0] == 3.5
    assert out["comp"].to_pylist()[1] == "disk"


def test_grok_type_override_and_roundtrip():
    from ulp_ray.rules import RuleRegistry, grok_rule

    r = grok_rule("kv", r"k=%{NOTSPACE:k:int}")
    assert r.captures[0].type == "int"
    reg = RuleRegistry([r])
    again = RuleRegistry.from_json(reg.to_json())
    assert again.version == reg.version  # grok expands before serialization


def test_grok_unknown_alias_rejected():
    import pytest as _pytest

    from ulp_ray.rules import expand_grok

    with _pytest.raises(ValueError, match="unknown grok alias"):
        expand_grok("%{NOPE:x}")


def test_grok_timestamp_and_hex():
    from ulp_ray.rules import RuleRegistry, grok_rule

    reg = RuleRegistry(
        [grok_rule("st", r"at %{TIMESTAMP_ISO8601:t} code=%{HEXINT:c}")]
    )
    out = reg.compile().parse_column(
        pa.array(["at 2024-05-06T07:08:09+00:00 code=0x1f"])
    )
    assert out["c"].to_pylist() == [31]
    assert out["t"].to_pylist()[0].year == 2024


def test_grok_custom_pattern_definitions():
    from ulp_ray.rules import RuleRegistry, grok_rule

    reg = RuleRegistry(
        [
            grok_rule(
                "sess",
                r"session %{SESSION_ID:sid} opened",
                extra_patterns={"SESSION_ID": r"[A-Z]{2}-\d{4}"},
            )
        ]
    )
    out = reg.compile().parse_column(
        pa.array(["session AB-1234 opened", "session nope opened"])
    )
    assert out["rule"].to_pylist() == ["sess", "_unmatched"]
    assert out["sid"].to_pylist()[0] == "AB-1234"


def test_grok_nested_custom_patterns_expand_recursively():
    from ulp_ray.rules import RuleRegistry, expand_grok, grok_rule

    reg = RuleRegistry(
        [
            grok_rule(
                "sess2",
                r"session %{SESSION_ID:sid} opened",
                extra_patterns={"SESSION_ID": r"%{WORD}-%{INT}"},
            )
        ]
    )
    out = reg.compile().parse_column(pa.array(["session ab-12 opened"]))
    assert out["sid"].to_pylist() == ["ab-12"]
    # cycles raise instead of looping
    import pytest as _pytest

    with _pytest.raises(ValueError, match="cycle"):
        expand_grok("%{A:x}", extra_patterns={"A": "%{B}", "B": "%{A}"})


def test_grok_common_access_log(ray_session):
    """A Common-Log-Format rule built purely from the grok vocabulary
    parses real access-log lines with typed captures, and the typed
    output matches a DuckDB regexp_extract oracle over the same lines."""
    import duckdb
    import pyarrow as pa
    import ray.data

    from ulp_ray.rules import RuleRegistry, grok_rule
    from ulp_ray.stages.parse import make_parse_fn

    rule = grok_rule(
        "clf",
        r'%{IPV4:client} - %{USER:ident} \[%{HTTPDATE:when:str}\] '
        r'"%{HTTPMETHOD:method} %{URIPATH:path}(?:%{QS})? %{HTTPVERSION}" '
        r"%{POSINT:status} %{POSINT:nbytes}",
    )
    reg = RuleRegistry([rule])
    lines = [
        '10.0.0.1 - alice [17/Aug/2026:09:00:00 +0000] "GET /index.html HTTP/1.1" 200 5213',
        '192.168.7.9 - - [17/Aug/2026:09:00:01 +0000] "POST /api/v1/items?x=1 HTTP/1.1" 201 77',
        "not a log line at all",
        '8.8.8.8 - bob [17/Aug/2026:09:00:02 +0000] "DELETE /thing HTTP/2" 204 0',
    ]
    t = pa.table({"text": pa.array(lines), "line_id": pa.array(range(len(lines)), pa.int64())})
    ds = ray.data.from_arrow(t)
    out = (
        ds.map_batches(make_parse_fn(reg), batch_format="pyarrow")
        .to_pandas()
        .sort_values("line_id")
        .reset_index(drop=True)
    )
    matched = out[out["rule"] == "clf"]
    assert len(matched) == 3
    assert matched["client"].tolist() == ["10.0.0.1", "192.168.7.9", "8.8.8.8"]
    assert matched["status"].tolist() == [200, 201, 204]
    # (int64 in Arrow; pandas promotes the null-carrying column to float)
    assert matched["nbytes"].tolist() == [5213, 77, 0]
    assert out[out["line_id"] == 2]["rule"].iloc[0] == "_unmatched"
    # oracle: the same typed extraction via DuckDB RE2
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        "SELECT line_id, regexp_extract(text, '^((?:\\d{1,3}\\.){3}\\d{1,3}) ', 1)"
        " AS client, CAST(regexp_extract(text, '\" (\\d+) (\\d+)$', 1) AS BIGINT)"
        " AS status FROM t WHERE regexp_matches(text, '^(?:\\d{1,3}\\.){3}\\d{1,3} ')"
        " ORDER BY line_id"
    ).df()
    assert matched["client"].tolist() == exp["client"].tolist()
    assert matched["status"].tolist() == exp["status"].tolist()


# ---------------------------------------------------------------------------
# one-pass classification: exactness against a pure-Python reference
# ---------------------------------------------------------------------------


def _diff_registry() -> RuleRegistry:
    """Rules built to stress the one-pass classifier: prefix-sharing and
    overlapping prefilter literals ("ERROR " / "ERR" / "ROR "), a rule
    without a prefilter between prefiltered ones, a capture shared by two
    rules, an ip capture, a static route that needs sanitising next to a
    ``{{template}}`` route."""
    return RuleRegistry(
        [
            Rule(
                "err_code",
                r"ERROR code=(?P<x_code>\d+)",
                (Capture("x_code", "int"),),
                route="My Route/X",
                prefilter="ERROR ",
            ),
            Rule(
                "kv",
                r"kv (?P<x_k>[a-z]+)=(?P<x_v>[a-z0-9]+)",
                (Capture("x_k"), Capture("x_v")),
                route="KV/{{x_k}}",
            ),
            # "ROR " sits inside "ERROR ": found only by an overlapping scan
            Rule("ror", r"ROR (?P<x_word>[a-z]+)", (Capture("x_word"),), prefilter="ROR "),
            Rule(
                "err_word",
                r"ERR(?P<x_word>[A-Z]+)",
                (Capture("x_word"),),
                prefilter="ERR",
            ),
            Rule(
                "conn",
                r"from (?P<x_ip>[0-9a-fA-F:.]+) port (?P<x_port>\d+)",
                (Capture("x_ip", "ip"), Capture("x_port", "int")),
                prefilter="from ",
            ),
            Rule("uni", r"naïve (?P<x_v>[a-z]+)", (Capture("x_v"),), prefilter="naïve "),
        ]
    )


_FRAGMENTS = [
    "ERROR code=42",
    "ERROR code=x9",  # prefilter hits, regex fails → falls through
    "ERRATA",
    "ERROR",
    "MIRROR shard",
    "ROR ",
    "kv alpha=1",
    "kv beta=zz",
    "kv BAD=1",
    "from 10.0.0.1 port 80",
    "from 2001:db8::1 port 443",
    "from 0:0:0:0:0:0:0:1 port 1",
    "from 010.1.1.1 port 2",
    "from 1.2.3.256 port 3",
    "from ::ffff:1.2.3.4 port 4",
    "from abc port 5",
    "from 1:2:3:4:5:6:7:8 port 6",
    "from nowhere",
    "naïve café",
    "naïve thing",
    "日本語 テキスト",
    "plain words",
    "",
]


def _reference(rules: list[Rule], texts: list[str | None]) -> list[dict]:
    """First-match-wins with Python ``re`` (ASCII classes, as RE2), the
    scalar casts and the scalar route functions."""
    import ipaddress
    import re

    from ulp_ray.functions import casts
    from ulp_ray.functions.routing import IndexPattern, sanitise_route

    def ip(s):
        for cls in (ipaddress.IPv4Address, ipaddress.IPv6Address):
            try:
                return str(cls(s))
            except ValueError:
                pass
        return None

    def convert(s, typ):
        if typ == "int":
            try:
                return casts.str_int(s)
            except casts.CastError:
                return None
        return ip(s) if typ == "ip" else s

    names = sorted({c.name for r in rules for c in r.captures})
    out = []
    for t in texts:
        row = {"rule": UNMATCHED, **{n: None for n in names}}
        route = UNMATCHED
        for r in rules if t is not None else ():
            m = re.search(r.pattern, t, re.ASCII)
            if m:
                row["rule"] = r.name
                for c in r.captures:
                    row[c.name] = convert(m.group(c.name), c.type)
                route = r.route or r.name
                if "{{" in route:
                    route = IndexPattern.parse(route).evaluate(row)
                break
        out.append({**row, "raw_route": route, "route": sanitise_route(route)})
    return out


def test_parse_matches_python_reference():
    import random

    from ulp_ray.stages.parse import parse_batch

    rng = random.Random(1234)
    texts: list[str | None] = []
    for _ in range(3000):
        if rng.random() < 0.03:
            texts.append(None)
            continue
        parts = rng.sample(_FRAGMENTS, rng.randint(1, 3))
        texts.append(" | ".join(parts))
    reg = _diff_registry()
    compiled = reg.compile()
    # two chunks, as Ray hands over a batch built from several blocks
    table = pa.Table.from_batches(
        [
            pa.record_batch([pa.array(texts[:1700], pa.string())], names=["text"]),
            pa.record_batch([pa.array(texts[1700:], pa.string())], names=["text"]),
        ]
    )
    want = _reference(reg.rules, texts)
    # the fixture really exercises every case the classifier must get right
    won = {w["rule"] for w in want}
    assert won == {r.name for r in reg.rules} | {UNMATCHED}
    assert any(
        t.startswith("ERROR code=x9") and w["rule"] == "ror"
        for t, w in zip(texts, want)
        if t
    )
    assert {w["x_ip"] for w in want} >= {"10.0.0.1", "2001:db8::1", "::1", None}

    out = parse_batch(table, compiled)
    caps = [n for n, _ in compiled.capture_fields]
    assert out.column_names == ["text", "rule", *caps, "route"]
    got = out.drop_columns(["text"]).to_pylist()
    for i, (g, w) in enumerate(zip(got, want)):
        w = {k: v for k, v in w.items() if k != "raw_route"}
        assert g == w, (i, texts[i], g, w)

    parsed = compiled.parse_column(table["text"])
    assert parsed.equals(out.select(["rule", *caps]).combine_chunks())
    assert compiled.routes_for(parsed).to_pylist() == [w["raw_route"] for w in want]
    # a route that needs sanitising next to a template route
    assert {"my_routex", "kvalpha", "kvbeta", "unmatched"} <= set(
        out["route"].to_pylist()
    )


def test_null_text_is_unmatched_not_a_task_failure(compiled):
    from ulp_ray.stages.parse import parse_batch

    batch = pa.table(
        {
            "text": pa.array(
                [None, "ERROR [auth] code=0x1A retry=true: boom", None, ""],
                pa.string(),
            )
        }
    )
    out = parse_batch(batch, compiled)
    assert out["rule"].to_pylist() == [UNMATCHED, "error_line", UNMATCHED, UNMATCHED]
    assert out["route"].to_pylist() == ["unmatched", "error_line", "unmatched", "unmatched"]
    for name, _ in compiled.capture_fields:
        col = out[name].to_pylist()
        assert col[0] is None and col[2] is None
    # an all-null text column parses too
    out = parse_batch(pa.table({"text": pa.nulls(3)}), compiled)
    assert out["rule"].to_pylist() == [UNMATCHED] * 3


@pytest.mark.parametrize("seed", [1, 5])
def test_golden_counts_and_matched_frac(compiled, seed):
    """The rollup over the parsed generator table equals the generator's own
    golden (rule, tool, role) counts, so the matched fraction is unchanged."""
    from ulp_ray.fixtures import generate_transcripts
    from ulp_ray.stages.parse import parse_batch

    table, golden = generate_transcripts(20_000, seed=seed)
    out = parse_batch(table, compiled)
    counts = out.group_by(["rule", "tool", "role"]).aggregate([([], "count_all")])
    got = {
        (r["rule"], r["tool"], r["role"]): r["count_all"] for r in counts.to_pylist()
    }
    assert got == golden.counts
    matched = sum(r != UNMATCHED for r in out["rule"].to_pylist())
    assert matched == len(table) - golden.by_rule.get(UNMATCHED, 0)


@pytest.mark.parametrize(
    "pattern, prefilter",
    [
        (r"(?:ERROR )?boom", "ERROR "),  # optional
        (r"ERROR|WARN", "ERROR"),  # alternation
        (r"ERR(?:OR)* x", "ERROR"),  # repeat-0
        (r"(?i)error x", "error"),  # case-insensitive
        (r"(?i:error) x", "error"),
        (r"a.c", "a.c"),  # '.' is a wildcard, not a literal
        (r"x\d+y", "d+"),
        (r"ab[cx]d", "abcd"),  # a class breaks the literal run
    ],
)
def test_prefilter_not_implied_by_pattern_rejected(pattern, prefilter):
    with pytest.raises(ValueError, match="prefilter"):
        Rule("r", pattern, prefilter=prefilter)


@pytest.mark.parametrize(
    "pattern, prefilter",
    [
        (r"(?P<lvl>ERROR) \[x\]", "ERROR [x]"),  # groups are transparent
        (r"(?:ab)+c", "ab"),  # repeat with min 1 keeps its body
        (r"(?x) ERROR \s code", "ERROR"),  # verbose whitespace is not text
        (r"a\.c", "a.c"),
        (r"ERROR (?:x|y)", "ERROR "),
    ],
)
def test_prefilter_implied_by_pattern_accepted(pattern, prefilter):
    assert Rule("r", pattern, prefilter=prefilter).prefilter == prefilter


def test_rules_module_does_not_import_polars():
    """polars loads on first parse, so processes that only build registries
    pay nothing for it."""
    import subprocess
    import sys

    code = "import sys, ulp_ray.rules; print('polars' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
