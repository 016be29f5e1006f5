"""Vocabulary / doc-frequency folds, PII redaction, contamination
screening, stratified sampling — the round-3 LLM-pipeline additions."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ulp_ray.stages import aggregate


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray.data

    texts = [
        "the cat sat on the mat",
        "the dog  sat",          # double space: no empty token
        " leading and trailing ",
        "cat cat cat",
        None,
        "",
        "unique",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    return ray.data.from_arrow(t).repartition(3), t


def test_vocabulary_matches_duckdb(docs):
    import duckdb

    from ulp_ray.stages.vocab import vocabulary

    ds, t = docs
    got = vocabulary(ds, "text").to_pandas().sort_values("token").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        "SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(regexp_split_to_array(text, '\\s+')) AS token FROM t"
        ") WHERE token <> '' GROUP BY token ORDER BY token"
    ).df()
    pd.testing.assert_frame_equal(got, exp)
    # min_count filter applies after the global fold
    got2 = vocabulary(ds, "text", min_count=3).to_pandas()
    assert set(got2["token"]) == {"the", "cat"}


def test_doc_frequency_counts_each_doc_once(docs):
    from ulp_ray.stages.vocab import doc_frequency

    ds, t = docs
    got = doc_frequency(ds, "text").to_pandas().set_index("token")["df"]
    # 'cat' appears in 2 docs (3 times in one of them); 'the' in 2 docs
    assert got["cat"] == 2
    assert got["the"] == 2
    assert got["sat"] == 2
    assert got["unique"] == 1
    # oracle: every df must equal the distinct-doc count
    df = t.to_pandas().dropna(subset=["text"])
    import re

    exp: dict = {}
    for _, row in df.iterrows():
        for tok in set(re.split(r"\s+", row["text"])) - {""}:
            exp[tok] = exp.get(tok, 0) + 1
    assert got.to_dict() == exp


def test_redact_pii_matches_duckdb(ray_session):
    """The Arrow redaction and a DuckDB regexp_replace chain with the
    SAME patterns must agree byte-for-byte (both are RE2)."""
    import duckdb

    from ulp_ray.functions.text import PII_PATTERNS, redact_pii

    texts = [
        "mail me at bob.smith+x@ex-ample.co.uk ok",
        "ip 10.0.255.1 end",
        "call 555-123-4567 now",
        "nothing to see",
        None,
        "a@b.cd and 1.2.3.4 or 555.1234.5678",
        "x@y.z notld stays",
        "two a@b.io c@d.io",
        "v6 2001:db8::1 is out of scope",
    ]
    t = pa.table({"text": pa.array(texts, pa.string())})
    expr = "text"
    for p, r in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{p}', '{r}', 'g')"
    con = duckdb.connect()
    con.register("t", t)
    exp = [row[0] for row in con.execute(f"SELECT {expr} FROM t").fetchall()]
    got = redact_pii(t["text"]).to_pylist()
    assert got == exp
    assert got[0] == "mail me at <EMAIL> ok"
    assert got[4] is None


def test_contamination_flag_and_drop(docs):
    from ulp_ray.stages.contamination import drop_contaminated, flag_contaminated

    ds, _ = docs
    probes = ["cat sat", "unique"]
    flagged = {
        r["doc_id"]: r["contaminated"]
        for r in flag_contaminated(ds, probes).take_all()
    }
    assert flagged[0] is True      # contains "cat sat"
    assert flagged[1] is False
    assert flagged[3] is False     # "cat cat cat" has no probe substring
    assert flagged[4] is None      # null text stays null
    assert flagged[6] is True      # "unique"
    kept = sorted(r["doc_id"] for r in drop_contaminated(ds, probes).take_all())
    assert kept == [1, 2, 3, 4, 5]  # null text kept, contaminated dropped
    # probes that are regex metacharacters are matched literally
    import ray.data

    t2 = ray.data.from_arrow(
        pa.table({"text": pa.array(["a.b c", "axb c"]), "doc_id": pa.array([0, 1], pa.int64())})
    )
    got = {
        r["doc_id"]: r["contaminated"]
        for r in flag_contaminated(t2, ["a.b"]).take_all()
    }
    assert got == {0: True, 1: False}


def test_stratified_sample_properties(ray_session):
    import ray.data

    from ulp_ray.stages.split import stratified_sample

    rng = np.random.default_rng(3)
    n = 30_000
    src = np.array(["web", "code", "wiki"])[rng.integers(0, 3, n)]
    t = pa.table(
        {
            "key": pa.array([f"k{i}" for i in rng.integers(0, n // 3, n)], pa.string()),
            "source": pa.array(src, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    fr = {"web": 0.25, "code": 1.0}  # wiki absent -> dropped
    out = stratified_sample(ds, "source", fr, key="key").to_pandas()
    counts = out["source"].value_counts()
    base = pd.Series(src).value_counts()
    assert "wiki" not in counts
    assert counts["code"] == base["code"]  # fraction 1.0 keeps all
    assert abs(counts["web"] / base["web"] - 0.25) < 0.05
    # deterministic: second run identical
    out2 = stratified_sample(ds, "source", fr, key="key").to_pandas()
    assert sorted(out["key"] + out["source"]) == sorted(out2["key"] + out2["source"])
    # group-atomic on key: every key is fully in or fully out per stratum
    df = t.to_pandas()
    in_keys = set(out[out["source"] == "web"]["key"])
    all_web = df[df["source"] == "web"]
    for k, grp in all_web.groupby("key"):
        assert (k in in_keys) == (len(grp[grp["key"].isin(in_keys)]) == len(grp))
    # float form: same share of every stratum
    out3 = stratified_sample(ds, "source", 0.5, key="key").to_pandas()
    for s in ("web", "code", "wiki"):
        assert abs(out3["source"].value_counts()[s] / base[s] - 0.5) < 0.06


def test_doc_term_stats_matches_duckdb(docs, monkeypatch):
    import duckdb

    from ulp_ray.stages.vocab import doc_term_stats

    ds, t = docs
    got = (
        doc_term_stats(ds, "text", "doc_id")
        .to_pandas()
        .sort_values(["doc_id", "token"])
        .reset_index(drop=True)[["doc_id", "token", "tf", "df"]]
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        "WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+'))"
        " AS token FROM t), f AS (SELECT doc_id, token, COUNT(*) AS tf "
        "FROM toks WHERE token <> '' GROUP BY doc_id, token), "
        "d AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM toks "
        "WHERE token <> '' GROUP BY token) "
        "SELECT f.doc_id, f.token, CAST(f.tf AS BIGINT) AS tf, "
        "CAST(d.df AS BIGINT) AS df FROM f JOIN d USING (token) "
        "ORDER BY doc_id, token"
    ).df()
    pd.testing.assert_frame_equal(got, exp)
    # join fallback path (zero driver bound) pinned equal
    monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 0)
    got_join = (
        doc_term_stats(ds, "text", "doc_id")
        .to_pandas()
        .sort_values(["doc_id", "token"])
        .reset_index(drop=True)[["doc_id", "token", "tf", "df"]]
    )
    pd.testing.assert_frame_equal(got_join, exp)
    # large_string text gives the same rows in both regimes
    import ray.data

    wide = ray.data.from_arrow(t.cast(pa.schema([("doc_id", pa.int64()), ("text", pa.large_string())])))
    for bound in (0, 1 << 40):
        monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", bound)
        got_wide = (
            doc_term_stats(wide, "text", "doc_id")
            .to_pandas()
            .sort_values(["doc_id", "token"])
            .reset_index(drop=True)[["doc_id", "token", "tf", "df"]]
        )
        pd.testing.assert_frame_equal(got_wide, exp)


def test_repetition_features_matches_duckdb(ray_session):
    import duckdb

    from ulp_ray.functions.text import repetition_features

    texts = [
        "a b a\nc d\na b a",
        "x",
        None,
        "",
        "t t t t",
        "line\nline\nline",
        "  spaced   out  ",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    got = repetition_features(t["text"]).add_column(0, "doc_id", t["doc_id"]).to_pandas()
    con = duckdb.connect()
    con.register("documents", t)
    exp = con.execute(
        "WITH l AS (SELECT doc_id, text, "
        "list_filter(string_split(text, chr(10)), x -> x <> '') AS ls, "
        "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS ts "
        "FROM documents), "
        "m AS (SELECT doc_id, token, COUNT(*) AS c FROM ("
        "SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS token "
        "FROM documents) WHERE token <> '' GROUP BY doc_id, token) "
        "SELECT l.doc_id, CAST(len(ls) AS BIGINT) AS n_lines, "
        "CAST(len(list_distinct(ls)) AS BIGINT) AS n_distinct_lines, "
        "CAST(len(ts) AS BIGINT) AS n_tokens, "
        "CAST(len(list_distinct(ts)) AS BIGINT) AS n_distinct_tokens, "
        "CASE WHEN l.text IS NULL THEN NULL ELSE "
        "CAST(COALESCE(mm.mx, 0) AS BIGINT) END AS max_token_count "
        "FROM l LEFT JOIN (SELECT doc_id, MAX(c) AS mx FROM m GROUP BY doc_id) mm "
        "USING (doc_id) ORDER BY doc_id"
    ).df()
    import pandas as _pd

    for c in exp.columns:
        if c != "doc_id":
            exp[c] = exp[c].astype("Int64")
            got[c] = got[c].astype("Int64")
    _pd.testing.assert_frame_equal(got, exp)


def test_grouped_vocabulary_matches_pandas(docs, ray_session):
    import ray.data

    from ulp_ray.stages.vocab import grouped_vocabulary

    _, t = docs
    df = t.to_pandas()
    df["lang"] = ["en", "de", "en", "de", "en", "de", "en"]
    ds = ray.data.from_pandas(df).repartition(3)
    got = (
        grouped_vocabulary(ds, "text", "lang")
        .to_pandas()
        .sort_values(["lang", "token"])
        .reset_index(drop=True)
    )
    import re

    exp_rows = {}
    for _, row in df.dropna(subset=["text"]).iterrows():
        for tok in re.split(r"\s+", row["text"]):
            if tok:
                exp_rows[(row["lang"], tok)] = exp_rows.get((row["lang"], tok), 0) + 1
    assert {(r["lang"], r["token"]): r["n"] for _, r in got.iterrows()} == exp_rows


def test_ngram_counts_matches_duckdb(docs, ray_session):
    import duckdb

    from ulp_ray.stages.vocab import ngram_counts

    ds, t = docs
    for n in (2, 3):
        got = (
            ngram_counts(ds, "text", n=n)
            .to_pandas()
            .sort_values("ngram")
            .reset_index(drop=True)
        )
        join = " || ' ' || ".join(f"ts[i+{k}]" for k in range(n))
        con = duckdb.connect()
        con.register("documents", t)
        exp = con.execute(
            "WITH l AS (SELECT doc_id, list_filter(regexp_split_to_array(text,"
            " '\\s+'), x -> x <> '') AS ts FROM documents) "
            f"SELECT ngram, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            f"SELECT {join} AS ngram FROM l, "
            f"UNNEST(generate_series(1, len(ts)-{n-1})) AS g(i)) "
            "GROUP BY ngram ORDER BY ngram"
        ).df()
        pd.testing.assert_frame_equal(got, exp)
    # windows never cross documents: "mat" (doc 0 end) + "the" (doc 1
    # start) is not a bigram
    g2 = ngram_counts(ds, "text", n=2).to_pandas()
    assert "mat the" not in set(g2["ngram"])


def test_ngram_decontamination_join_path(ray_session):
    """The huge-probe-set path: a doc sharing >= n consecutive words
    with a probe is flagged; sharing only n-1 is not; ids stay a
    Dataset; drop_contaminated_ngram removes exactly the flagged doc."""
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.contamination import (
        contaminated_ids_ngram,
        drop_contaminated_ngram,
    )

    probe = "the quick brown fox jumps over the lazy dog"  # 9 tokens
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    # contains 8 consecutive probe words -> flagged at n=8
                    "intro words then the quick brown fox jumps over the lazy tail end",
                    # only 7 consecutive probe words -> clean at n=8
                    "x the quick brown fox jumps over the y z w",
                    "completely unrelated text about other things entirely here now",
                    None,
                ]
            ),
        }
    )
    probes = ray.data.from_arrow(pa.table({"text": pa.array([probe])}))
    ds = ray.data.from_arrow(docs).repartition(2)
    bad = sorted(
        r["doc_id"] for r in contaminated_ids_ngram(ds, probes, n=8).take_all()
    )
    assert bad == [0]
    kept = sorted(
        r["doc_id"]
        for r in drop_contaminated_ngram(ds, probes, n=8)
        .select_columns(["doc_id"])
        .take_all()
    )
    assert kept == [1, 2, 3]
    # a clean corpus: no doc shares an n-gram with the probes, so the
    # flagged-id set is empty without a schema and every doc is kept
    clean = ray.data.from_arrow(docs.slice(1)).repartition(2)
    assert contaminated_ids_ngram(clean, probes, n=8).count() == 0
    kept = sorted(
        r["doc_id"]
        for r in drop_contaminated_ngram(clean, probes, n=8)
        .select_columns(["doc_id"])
        .take_all()
    )
    assert kept == [1, 2, 3]


def test_contamination_probe_fetch_once_per_worker(ray_session, monkeypatch):
    """VERDICT r3 item 2: the broadcast probe fetch + preprocessing runs
    ONCE per worker process per broadcast ref — later batches hit the
    cache (the round-3 version cached the fetch but recompiled an RE2
    alternation per batch; the scan is now Aho-Corasick with the probe
    list cached)."""
    import ray

    from ulp_ray.stages import contamination as cmod

    cmod._PROBE_CACHE.clear()
    ref = ray.put(["cat sat", "unique"])
    calls = {"n": 0}
    real_get = ray.get

    def counting_get(x, *a, **kw):
        calls["n"] += 1
        return real_get(x, *a, **kw)

    monkeypatch.setattr(ray, "get", counting_get)
    for _ in range(5):  # five "batches" in the same process
        (prep,) = cmod._fetch_probes(ref)
    assert calls["n"] == 1
    # cache key is the REF, not the probe text: a second broadcast of
    # the same probes is a distinct entry (no cross-job aliasing)
    ref2 = ray.put(["cat sat", "unique"])
    cmod._fetch_probes(ref2)
    assert calls["n"] == 2


def test_contamination_ac_matches_regex_alternation(ray_session):
    """The Aho-Corasick scan is bit-identical to the RE2 alternation it
    replaced (including null propagation), on a corpus with planted
    probes, probe-prefix-of-probe pairs, and regex metacharacters."""
    import random

    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    from ulp_ray.stages.contamination import _probe_pattern, flag_contaminated

    rng = random.Random(11)
    alphabet = "abcdef .?*("
    mk = lambda n: "".join(rng.choice(alphabet) for _ in range(n))
    probes = [mk(rng.randint(3, 12)) for _ in range(50)]
    probes += [probes[0] + "tail", "x(y"]  # prefix pair + metachars
    texts = [mk(80) for _ in range(400)]
    for i in range(0, 400, 7):
        p = probes[i % len(probes)]
        texts[i] = texts[i][:40] + p + texts[i][40:]
    texts[3] = None
    texts[9] = ""
    col = pa.array(texts, pa.string())
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(400), pa.int64()), "text": col})
    )
    got = (
        flag_contaminated(ds, probes)
        .to_pandas()
        .sort_values("doc_id")["contaminated"]
    )
    want = pc.match_substring_regex(col, _probe_pattern(probes))
    assert [None if pd.isna(x) else bool(x) for x in got] == want.to_pylist()


def test_tokenizer_lockstep_unicode_whitespace(ray_session):
    """The shared tokenizer must split EXACTLY like the oracles' RE2
    ``\\s+`` — which is ASCII-only. ``utf8_split_whitespace`` also
    splits on U+00A0/U+2003 etc. and would silently diverge from every
    regexp_split_to_array twin on real-world text (r4 adversarial-review
    finding). Pinned against DuckDB on adversarial spacing."""
    import duckdb
    import ray.data

    from ulp_ray.stages.vocab import vocabulary

    texts = [
        "plain ascii words",
        "nbsp joined stays one-token",
        "em space also glued",
        "tab\tand\nnewline split",
        "  leading  double  spaces  ",
        None,
        "",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = {
        r["token"]: r["n"]
        for r in vocabulary(
            ray.data.from_arrow(t), text_col="text", min_count=1
        ).take_all()
    }
    con = duckdb.connect()
    con.register("documents", t)
    want = dict(
        con.execute(
            "SELECT token, CAST(COUNT(*) AS BIGINT) FROM (SELECT "
            "unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents) WHERE token <> '' GROUP BY token"
        ).fetchall()
    )
    assert got == want
    assert "nbsp joined" in got  # the divergence the fix closes


def test_bigram_logprob_matches_duckdb(docs, monkeypatch):
    """Add-one smoothed corpus bigram LM avg log-prob per doc vs an
    exact-formula DuckDB twin; single-token/empty/null docs are absent
    (no bigrams)."""
    import duckdb

    from ulp_ray.stages.vocab import bigram_logprob

    ds, t = docs
    got = (
        bigram_logprob(ds, "text", "doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    exp = con.execute(
        "WITH l AS (SELECT doc_id, "
        "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
        "AS ts FROM documents), "
        "bg AS (SELECT doc_id, ts[i] AS w1, "
        "ts[i] || ' ' || ts[i+1] AS ngram FROM l, "
        "UNNEST(generate_series(1, len(ts)-1)) AS g(i)), "
        "bc AS (SELECT ngram, COUNT(*) AS cb FROM bg GROUP BY ngram), "
        "uc AS (SELECT w1, COUNT(*) AS cu FROM (SELECT ts[i] AS w1 "
        "FROM l, UNNEST(generate_series(1, len(ts))) AS g(i)) GROUP BY w1), "
        "v AS (SELECT COUNT(*) AS vs FROM uc) "
        "SELECT bg.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams, "
        "ROUND(AVG(LN(CAST(bc.cb + 1 AS DOUBLE) / (uc.cu + v.vs))), 4) "
        "AS avg_logprob "
        "FROM bg JOIN bc USING (ngram) JOIN uc USING (w1) CROSS JOIN v "
        "GROUP BY bg.doc_id ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # hand check one doc: "cat cat cat" = 2x bigram "cat cat"
    # C(cat cat)=2, C(cat)=4 (3 here + 1 in doc 0), V=distinct tokens
    vs = con.execute(
        "SELECT COUNT(DISTINCT token) FROM (SELECT unnest("
        "regexp_split_to_array(text, '\\s+')) AS token FROM documents) "
        "WHERE token <> ''"
    ).fetchone()[0]
    want = round(np.log((2 + 1) / (4 + vs)), 4)
    row = got[got["doc_id"] == 3]
    assert row["n_bigrams"].iloc[0] == 2
    assert abs(row["avg_logprob"].iloc[0] - want) < 1e-9
    # the join fallback path (forced by a zero driver bound) is
    # pinned equal to the broadcast fast path
    monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 0)
    got_join = (
        bigram_logprob(ds, "text", "doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got_join, check_dtype=False)


def test_bigram_logprob_without_bigrams_is_typed_empty(ray_session, monkeypatch):
    """A corpus with no bigram (an empty input, or every doc under two
    tokens) gives the typed empty table in both regimes."""
    import ray.data

    from ulp_ray.stages.vocab import bigram_logprob

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["one", None, "  two ", ""]),
        }
    )
    want = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_bigrams", pa.int64()),
            ("avg_logprob", pa.float64()),
        ]
    )
    for bound in (aggregate.DRIVER_FOLD_MAX_ROWS, 0):
        monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", bound)
        # (a repartitioned empty input would have no schema to type by)
        for src in (ray.data.from_arrow(t).repartition(2), ray.data.from_arrow(t.slice(0, 0))):
            out = bigram_logprob(src, "text", "doc_id").materialize()
            assert out.count() == 0
            s = out.schema()
            assert pa.schema(list(zip(s.names, s.types))) == want


def test_duplicated_window_stats_matches_duckdb(ray_session, monkeypatch):
    """Corpus-duplicated n-token windows per doc vs an exact integer
    DuckDB twin; planted cross-doc and within-doc duplicate windows."""
    import duckdb
    import ray.data

    from ulp_ray.stages.vocab import duplicated_window_stats

    texts = [
        "a b c d e f g",        # windows: "a b c", "b c d", ...
        "x y z a b c d q",      # shares "a b c" and "b c d" with doc 0
        "r r r r r r",          # within-doc repeated window "r r r" x4
        "short one",            # < 3 tokens: no windows, absent
        None,
        "p q r s",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    got = (
        duplicated_window_stats(ds, "text", "doc_id", n=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    exp = con.execute(
        "WITH l AS (SELECT doc_id, "
        "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
        "AS ts FROM documents), "
        "w AS (SELECT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] "
        "AS ngram FROM l, UNNEST(generate_series(1, len(ts)-2)) AS g(i)), "
        "c AS (SELECT ngram, COUNT(*) AS cn FROM w GROUP BY ngram) "
        "SELECT w.doc_id, CAST(COUNT(*) AS BIGINT) AS n_windows, "
        "CAST(SUM(CASE WHEN c.cn >= 2 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_dup_windows FROM w JOIN c USING (ngram) "
        "GROUP BY w.doc_id ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # hand checks: doc 2 "r r r r r r" has 4 windows, all the same
    # trigram -> all 4 duplicated; doc 3/4 absent; doc 5 has no dups
    row2 = got[got["doc_id"] == 2].iloc[0]
    assert (row2["n_windows"], row2["n_dup_windows"]) == (4, 4)
    assert 3 not in set(got["doc_id"]) and 4 not in set(got["doc_id"])
    row5 = got[got["doc_id"] == 5].iloc[0]
    assert (row5["n_windows"], row5["n_dup_windows"]) == (2, 0)
    # the join fallback path (forced by a zero driver bound) is
    # pinned equal to the broadcast fast path
    monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 0)
    got_join = (
        duplicated_window_stats(ds, "text", "doc_id", n=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, got_join, check_dtype=False)
    # every doc under n tokens: the window fold sees no row and has no
    # schema, which holds no duplicated window
    short = ray.data.from_arrow(t.slice(3, 2)).repartition(2)
    for bound in (0, 1 << 40):
        monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", bound)
        assert duplicated_window_stats(short, "text", "doc_id", n=3).count() == 0


def test_token_entropy_matches_duckdb(docs):
    """Shannon token entropy per doc vs an exact-formula DuckDB twin;
    repeated-single-token doc -> 0, null/empty docs -> null."""
    import duckdb

    from ulp_ray.functions.text import token_entropy

    _, t = docs
    got = token_entropy(t["text"]).to_pylist()
    con = duckdb.connect()
    con.register("documents", t)
    exp = con.execute(
        "WITH f AS (SELECT doc_id, unnest(list_filter("
        "regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token "
        "FROM documents), "
        "c AS (SELECT doc_id, token, COUNT(*) AS cnt FROM f "
        "GROUP BY doc_id, token), "
        "t2 AS (SELECT doc_id, SUM(cnt) AS tot FROM c GROUP BY doc_id) "
        "SELECT d.doc_id, ROUND(e.ent, 4) AS entropy FROM documents d "
        "LEFT JOIN (SELECT c.doc_id, -SUM((cnt/tot) * LN(cnt/tot)) AS ent "
        "FROM c JOIN t2 USING (doc_id) GROUP BY c.doc_id) e "
        "ON d.doc_id = e.doc_id ORDER BY d.doc_id"
    ).fetchall()
    for (_, want), have in zip(exp, got):
        if want is None:
            assert have is None
        else:
            assert abs(have - want) < 1e-9
    # "cat cat cat": single distinct token -> entropy 0
    assert got[3] == 0.0
    assert got[4] is None and got[5] is None
