"""Parsing only what the caller reads: ``_parse(text, captures=S)`` must
classify every row exactly as the full parse does, for every subset ``S``
of the capture names, and build each kept capture column equal to the full
parse's; ``parse_routed(columns=...)`` builds the route only when it is
read. Plus the one-regex IPv4 fast path of the ``ip`` conversion."""

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulp_ray.rules import Capture, Rule, RuleRegistry, UNMATCHED, _convert_capture
from ulp_ray.stages.parse import parse_batch


def _registry() -> RuleRegistry:
    """Rules built to break a pruned parse: captureless rules (one with a
    prefilter, one without), overlapping prefilter literals ("ERROR " /
    "ERR" / "ROR "), a capture shared by two rules, a ``{{template}}``
    route next to a static one that needs sanitising, and matches that
    start past offset 0."""
    return RuleRegistry(
        [
            Rule(
                "err_code",
                r"ERROR code=(?P<x_code>\d+)",
                (Capture("x_code", "int"),),
                route="My Route/X",
                prefilter="ERROR ",
            ),
            Rule("ror", r"ROR [a-z]+", prefilter="ROR "),  # no captures
            Rule(
                "kv",
                r"kv (?P<x_k>[a-z]+)=(?P<x_v>[a-z0-9]+)",
                (Capture("x_k"), Capture("x_v")),
                route="KV/{{x_k}}",
            ),
            Rule("err_word", r"ERR(?P<x_word>[A-Z]+)", (Capture("x_word"),), prefilter="ERR"),
            Rule(
                "conn",
                r"from (?P<x_ip>[0-9a-fA-F:.]+) port (?P<x_port>\d+)",
                (Capture("x_ip", "ip"), Capture("x_port", "int")),
                prefilter="from ",
            ),
            Rule("digits", r"\d{3}"),  # no captures, no prefilter
            Rule("word", r"w=(?P<x_word>[a-z]+)", (Capture("x_word"),), prefilter="w="),
        ]
    )


_COMPILED = _registry().compile()
_CAPTURES = [name for name, _ in _COMPILED.capture_fields]

_FRAGMENTS = [
    "ERROR code=42",
    "ERROR code=x9",  # prefilter hits, regex fails: falls through
    "ERRATA",
    "MIRROR shard",  # "ROR " inside another word
    "ROR ",
    "kv alpha=1",
    "kv BAD=1",
    "from 10.0.0.1 port 80",
    "from 010.1.1.1 port 2",
    "from 0:0:0:0:0:0:0:1 port 1",
    "from nowhere",
    "w=abc",
    "x w=",
    "12",
    "123",
    "日本語 ERROR code=5",
    "",
]

_TEXT = st.one_of(
    st.none(),
    st.lists(
        st.one_of(
            st.sampled_from(_FRAGMENTS),
            st.text(alphabet="EROkvfrm w=.:0129 ", max_size=10),
        ),
        max_size=3,
    ).map(" ".join),
)


def _assert_pruned_equals_full(texts: list, subsets) -> None:
    arr = pa.array(texts, pa.string())
    full, full_ids = _COMPILED._parse(arr)
    _, full_route = _COMPILED.parse_routed(arr)
    for subset in subsets:
        parsed, ids = _COMPILED._parse(arr, captures=subset)
        assert np.array_equal(ids, full_ids), subset
        kept = [name for name in _CAPTURES if name in subset]
        assert parsed.column_names == ["rule", *kept]
        for name in parsed.column_names:
            assert parsed[name].equals(full[name]), (subset, name)
        for columns in ({"rule", *subset}, {"rule", "route", *subset}):
            got, route = _COMPILED.parse_routed(arr, columns=columns)
            assert got["rule"].equals(full["rule"])
            if "route" in columns:
                assert route.equals(full_route), subset
            else:
                assert route is None


def test_every_capture_subset_classifies_like_the_full_parse():
    pairs = itertools.permutations(_FRAGMENTS[:6], 2)
    texts = [None, *_FRAGMENTS, *(" | ".join(p) for p in pairs)]
    want = _COMPILED.parse_column(pa.array(texts, pa.string()))["rule"].to_pylist()
    # the corpus reaches every rule, the fallback and a fall-through
    assert set(want) == {r.name for r in _COMPILED.rules} | {UNMATCHED}
    subsets = [
        set(c) for k in range(len(_CAPTURES) + 1) for c in itertools.combinations(_CAPTURES, k)
    ]
    _assert_pruned_equals_full(texts, subsets)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(_TEXT, min_size=1, max_size=30),
    subset=st.sets(st.sampled_from(_CAPTURES)),
)
def test_pruned_parse_matches_full_parse(texts, subset):
    _assert_pruned_equals_full(texts, [subset])


def test_rule_only_parse_never_extracts(monkeypatch):
    """Reading only the rule id classifies rows: no RE2 extract and no
    capture conversion runs."""
    texts = pa.array([None, *_FRAGMENTS], pa.string())
    want = _COMPILED.parse_column(texts)["rule"]

    def forbidden(*args, **kwargs):
        raise AssertionError("extract or conversion ran for a rule-only parse")

    monkeypatch.setattr(pc, "extract_regex", forbidden)
    monkeypatch.setattr("ulp_ray.rules._convert_capture", forbidden)
    out = parse_batch(pa.table({"text": texts}), _COMPILED, columns=["rule"])
    assert out.column_names == ["text", "rule"]
    assert out["rule"].equals(want)


@pytest.mark.parametrize(
    "text, want",
    [
        ("0.0.0.0", "0.0.0.0"),
        ("255.255.255.255", "255.255.255.255"),
        ("10.0.0.1", "10.0.0.1"),
        ("256.1.1.1", None),  # octet out of range
        ("01.2.3.4", None),  # leading zero
        ("1.2.3.04", None),
        ("1.2.3", None),  # three octets
        ("1.2.3.4.5", None),
        ("::1", "::1"),
        ("0:0:0:0:0:0:0:1", "::1"),  # IPv6 is canonicalized
        (None, None),
    ],
)
def test_ip_conversion_edge_cases(text, want):
    vals = pa.array(["1.1.1.1", text], pa.string())
    assert _convert_capture(vals, Capture("x_ip", "ip")).to_pylist() == ["1.1.1.1", want]
