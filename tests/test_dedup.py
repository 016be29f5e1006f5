"""Dedup family: exact, MinHash-LSH, SimHash, n-gram Jaccard, embedding
cosine near-dup — on small synthetic corpora with planted duplicates."""

import numpy as np
import pyarrow as pa
import pytest

from ulp_ray.stages.dedup import (
    embedding_neardup,
    embedding_neardup_lsh,
    exact_dedup,
    minhash_dedup,
    minhash_lsh_candidates,
    minhash_signatures,
    ngram_jaccard,
    simhash_candidates,
    simhash_signatures,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the stream engine "
    "shuffles arrow record batches across the cluster object store"
)


def _docs():
    rows = [
        (0, BASE),
        (1, BASE),  # exact dup of 0
        (2, BASE.replace("quick", "speedy")),  # near dup of 0
        (3, "completely different text about cooking pasta with tomatoes"),
        (4, "another unrelated document mentioning databases and indexes"),
        (5, BASE),  # exact dup of 0
    ]
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.from_arrow(_docs())


def test_exact_dedup_keeps_min_id(docs_ds):
    out = exact_dedup(docs_ds, on="text", order_col="doc_id").take_all()
    ids = sorted(r["doc_id"] for r in out)
    assert ids == [0, 2, 3, 4]  # 1 and 5 collapse into 0


def test_ngram_jaccard_bounds():
    assert ngram_jaccard(BASE, BASE) == 1.0
    assert ngram_jaccard(BASE, "zzzz") < 0.05
    near = ngram_jaccard(BASE, BASE.replace("quick", "speedy"))
    assert 0.5 < near < 1.0


def test_minhash_signature_shape(docs_ds):
    sigs = minhash_signatures(docs_ds, num_perm=64).take_all()
    assert len(sigs) == 6
    assert len(sigs[0]["minhash"]) == 64
    by_id = {s["doc_id"]: list(s["minhash"]) for s in sigs}
    assert by_id[0] == by_id[1] == by_id[5]  # identical docs → identical sigs
    assert by_id[0] != by_id[3]


def test_minhash_dedup_finds_planted_pairs(docs_ds):
    out = minhash_dedup(docs_ds, num_perm=64, bands=16, threshold=0.5)
    pairs = {(r["id_a"], r["id_b"]) for r in out.take_all()}
    assert (0, 1) in pairs and (0, 5) in pairs and (1, 5) in pairs
    assert (0, 2) in pairs  # near dup above 0.5 jaccard
    assert all(a != 3 and b != 3 for a, b in pairs)


def test_simhash_candidates(docs_ds):
    sigs = simhash_signatures(docs_ds)
    by_id = {s["doc_id"]: s["simhash"] for s in sigs.take_all()}
    assert by_id[0] == by_id[1] == by_id[5]
    cand = simhash_candidates(simhash_signatures(docs_ds), max_hamming=3).take_all()
    pairs = {(r["id_a"], r["id_b"]) for r in cand}
    assert (0, 1) in pairs and (0, 5) in pairs
    assert all(r["hamming"] <= 3 for r in cand)


def test_pair_candidates_without_pairs_stay_typed(ray_session, monkeypatch):
    """Signatures that share no band give no candidate pairs; the
    candidate blocks are still Arrow tables with int64 ``id_a``/``id_b``,
    so a later shuffle has nothing to re-type."""
    import ray
    import ray.data

    from ulp_ray.stages import dedup

    # the candidate stage itself, without the distinct-pair pass after it
    monkeypatch.setattr(dedup, "_dedup_pair_rows", lambda ds, key_cols: ds)

    ids = np.arange(20, dtype=np.int64)
    # every band of every signature differs between docs
    minhash = (ids[:, None] * 1000 + np.arange(128)).astype(np.uint64)
    mh = ray.data.from_arrow(
        pa.table({"doc_id": ids, "minhash": pa.array(list(minhash), pa.list_(pa.uint64()))})
    )
    sh = ray.data.from_arrow(
        pa.table({"doc_id": ids, "simhash": pa.array(ids * 0x0001000100010001, pa.uint64())})
    )
    for cand in (minhash_lsh_candidates(mh), simhash_candidates(sh)):
        done = cand.materialize()
        blocks = [
            ray.get(ref) for b in done.iter_internal_ref_bundles() for ref in b.block_refs
        ]
        assert blocks and sum(len(b) for b in blocks) == 0
        for b in blocks:
            assert isinstance(b, pa.Table)
            assert (b.schema.field("id_a").type, b.schema.field("id_b").type) == (
                pa.int64(),
                pa.int64(),
            )


@pytest.fixture(scope="module")
def embed_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    base = rng.standard_normal((8, 16)).astype(np.float32)
    # vec 1 = vec 0 + tiny noise (near dup); vec 7 = exact copy of vec 2
    base[1] = base[0] + 0.01 * rng.standard_normal(16).astype(np.float32)
    base[7] = base[2]
    t = pa.table(
        {
            "vec_id": pa.array(range(8), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(base.reshape(-1), pa.float32()), 16
            ),
        }
    )
    return ray.data.from_arrow(t)


def test_embedding_neardup_exact(embed_ds):
    out = embedding_neardup(embed_ds, threshold=0.99)
    pairs = {(r["id_a"], r["id_b"]) for r in out.take_all()}
    assert (0, 1) in pairs and (2, 7) in pairs
    assert len(pairs) == 2


def test_embedding_neardup_lsh_finds_exact_copy(embed_ds):
    out = embedding_neardup_lsh(embed_ds, threshold=0.99, n_planes=6).take_all()
    pairs = {(r["id_a"], r["id_b"]) for r in out}
    # exact copies share every sign bit → always same bucket
    assert (2, 7) in pairs


def test_short_doc_shingles_batch_independent():
    """A doc shorter than shingle_k must hash identically regardless of
    batch composition (its single window must not read into the next
    doc's bytes) and never produce an empty shingle set."""
    from ulp_ray.stages.dedup import _batch_shingle_hashes

    a = _batch_shingle_hashes(["ab", "XXXXXXXXXX"], 5)[0]
    b = _batch_shingle_hashes(["ab", "YYYYYYYYYY"], 5)[0]
    c = _batch_shingle_hashes(["ab"], 5)[0]
    assert a.shape == b.shape == c.shape == (1,)
    assert a[0] == b[0] == c[0]
    # and a long doc's hashes are unaffected by a short neighbor
    long = _batch_shingle_hashes(["0123456789"], 5)[0]
    long2 = _batch_shingle_hashes(["ab", "0123456789"], 5)[1]
    assert (long == long2).all()


def test_minhash_dedup_short_docs_no_crash(ray_session):
    """Corpus containing <k-byte texts used to crash the signature stage
    (zero-size min reduction)."""
    import ray.data

    tbl = pa.table(
        {
            "doc_id": pa.array(range(6), pa.int64()),
            "text": pa.array([BASE, BASE, "ab", "ab", "", None], pa.string()),
        }
    )
    out = minhash_dedup(ray.data.from_arrow(tbl), threshold=0.8)
    got = {(r["id_a"], r["id_b"]) for r in out.take_all()}
    assert (0, 1) in got  # the planted exact dup still found
    assert (2, 3) in got  # identical short docs dedup deterministically


def test_minhash_bucketed_verify_matches_driver(ray_session):
    """The distributed (bucketed-join) verify returns exactly the
    driver-side verify's pairs."""
    import ray.data

    rows = []
    for i in range(40):
        rows.append((i, BASE + f" variant {i % 7}"))
    rows += [(100, BASE), (101, BASE), (102, BASE.replace("quick", "speedy"))]
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    drv = minhash_dedup(ds, threshold=0.8, verify="driver")
    bkt = minhash_dedup(ds, threshold=0.8, verify="bucketed")
    key = lambda r: (r["id_a"], r["id_b"])  # noqa: E731 — Datasets are unordered
    drv_rows = sorted(({**r} for r in drv.take_all()), key=key)
    bkt_rows = sorted(({**r} for r in bkt.take_all()), key=key)
    assert drv_rows == bkt_rows
    assert len(drv_rows) > 0


def test_embedding_neardup_auto_routes_to_lsh(ray_session):
    """Above max_exact_rows the exact path must NOT materialize the
    corpus matrix — the LSH path runs instead (same planted pair)."""
    import ray.data

    rng = np.random.default_rng(0)
    base = rng.standard_normal(16).astype(np.float32)
    vecs = [base, base + rng.standard_normal(16).astype(np.float32) * 0.01]
    for _ in range(30):
        vecs.append(rng.standard_normal(16).astype(np.float32))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    exact = embedding_neardup(ds, threshold=0.95)
    routed = embedding_neardup(ds, threshold=0.95, max_exact_rows=10)  # forces LSH
    exact_pairs = {(r["id_a"], r["id_b"]) for r in exact.take_all()}
    routed_pairs = {(r["id_a"], r["id_b"]) for r in routed.take_all()}
    assert (0, 1) in exact_pairs
    assert routed_pairs <= exact_pairs  # LSH recall < 1, precision exact
    assert (0, 1) in routed_pairs  # identical-direction pair survives bucketing


def test_exact_dedup_null_values_form_a_group(ray_session):
    """NULL is a distinct group (SQL GROUP BY): the min-order null-text
    row must survive, not vanish."""
    import ray.data

    tbl = pa.table(
        {
            "doc_id": pa.array([3, 1, 2, 4], pa.int64()),
            "text": pa.array(["a", None, None, "a"], pa.string()),
        }
    )
    out = exact_dedup(ray.data.from_arrow(tbl), on="text", order_col="doc_id")
    got = sorted(
        ((r["text"], r["doc_id"]) for r in out.take_all()),
        key=lambda t: (t[0] is not None, t),
    )
    assert got == [(None, 1), ("a", 3)]


@pytest.mark.slow
def test_minhash_bucketed_verify_scales_without_driver_texts(ray_session, monkeypatch):
    """20k-doc corpus through the distributed verify path with the
    driver-side verifier FORBIDDEN (monkeypatched to raise): candidate
    texts must reach the verifier via the bucketed joins only."""
    import ray.data

    import ulp_ray.stages.dedup as dmod

    def _forbidden(*a, **k):
        raise AssertionError("driver-side verify must not run on the scale path")

    monkeypatch.setattr(dmod, "_verify_pairs_driver", _forbidden)

    rng = np.random.default_rng(19)
    vocab = np.array([f"w{j}" for j in range(5000)])
    n = 20_000
    texts = []
    for i in range(n):
        if i % 1000 == 1:  # planted near-dup of the previous doc
            texts.append(texts[-1] + " extra")
            continue
        texts.append(" ".join(vocab[rng.integers(0, len(vocab), 25)]))
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = dmod.minhash_dedup(
        ray.data.from_arrow(tbl), threshold=0.8, verify="auto",
        max_driver_candidates=0,  # force the bucketed path at any size
    )
    assert out.count() > 0  # the planted template family verifies


def test_embedding_lsh_blocked_verify_identical_at_any_block(embed_ds):
    """The row-block × bucket tiling must return the identical pair set
    at any block size (block=1 exercises every tiling edge)."""
    full = embedding_neardup_lsh(embed_ds, threshold=0.99, n_planes=6).take_all()
    tiny = embedding_neardup_lsh(
        embed_ds, threshold=0.99, n_planes=6, verify_block_rows=1
    ).take_all()
    k = lambda r: (r["id_a"], r["id_b"])  # noqa: E731
    assert sorted(({**r} for r in full), key=k) == sorted(({**r} for r in tiny), key=k)
    assert len(full) > 0


def test_minhash_threshold_boundary_consistent(ray_session):
    """Driver and bucketed verify must agree at the threshold boundary:
    both filter on the RAW jaccard, rounding only the output column."""
    import ray.data

    # two docs whose jaccard is exactly a non-representable fraction near
    # a chosen threshold: use the computed raw value itself as threshold
    from ulp_ray.stages.dedup import ngram_jaccard

    a, b = BASE, BASE.replace("quick", "speedy")
    raw = ngram_jaccard(a, b, 5)
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array([a, b], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    for verify in ("driver", "bucketed"):
        # threshold == raw → pair kept by >= in BOTH paths
        keep = minhash_dedup(ds, threshold=raw, verify=verify, bands=32).take_all()
        assert [(r["id_a"], r["id_b"]) for r in keep] == [(0, 1)], verify
        # threshold just above raw → dropped by both
        drop = minhash_dedup(
            ds, threshold=raw + 1e-12, verify=verify, bands=32
        ).take_all()
        assert drop == [], verify


def test_simhash_vectorized_tokenizer_matches_python_split(ray_session):
    """The Arrow-regex tokenizer must reproduce str.split() exactly:
    signatures computed from a reference per-doc Python loop must be
    bit-identical (unicode whitespace, nulls, edge/repeated spaces)."""
    import pandas as pd
    import ray.data

    texts = [
        "  Hello   World  ",
        "tab\tand\nnewline nbsp emsp",
        None,
        "",
        "   ",
        "ONE",
        "مرحبا بالعالم UPPER lower MiXeD",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = {
        r["doc_id"]: r["simhash"]
        for r in simhash_signatures(ray.data.from_arrow(tbl)).take_all()
    }

    # reference: per-doc python loop (the pre-vectorization definition)
    def ref_sig(t):
        toks = (t or "").lower().split()
        if not toks:
            return 0
        h = pd.util.hash_array(
            np.array(toks, dtype=object), hash_key="ulp_ray_dedup!16"
        ).astype(np.uint64)
        acc = np.zeros(64, dtype=np.int64)
        for hv in h:
            bits = (hv >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
            acc += bits.astype(np.int64) * 2 - 1
        return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    for i, t in enumerate(texts):
        assert got[i] == ref_sig(t), (i, t)


def test_ngram_jaccard_pairs_exact_vs_bruteforce(ray_session):
    """ngram_jaccard_pairs is EXACT: every pair the brute-force
    all-pairs computation finds at the threshold must come back with the
    same integer (inter_n, union_n) — the prefix filter may not drop
    true pairs (completeness), and the verify may not pass false ones."""
    import itertools

    import ray.data

    from ulp_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, rng.integers(8, 60))) for _ in range(80)]
    # planted near-dups: copy + small perturbations of a few docs
    texts += [texts[3], texts[7] + " extra token here", texts[11].replace("w0", "w1")]
    # degenerate rows: empty, null, < n tokens
    texts += ["", None, "one two"]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)})
    )
    t = 0.7
    got = {
        (r["id_a"], r["id_b"]): (r["inter_n"], r["union_n"])
        for r in ngram_jaccard_pairs(ds, n=3, threshold=t).take_all()
    }

    def gram_set(s):
        toks = (s or "").split()
        return {" ".join(toks[i : i + 3]) for i in range(len(toks) - 2)}

    sets = [gram_set(s) for s in texts]
    want = {}
    for a, b in itertools.combinations(ids, 2):
        sa, sb = sets[a], sets[b]
        if not sa or not sb:
            continue
        inter = len(sa & sb)
        union = len(sa | sb)
        if inter >= t * union:
            want[(a, b)] = (inter, union)
    assert want, "fixture must plant at least one near-dup pair"
    assert got == want


def test_ngram_jaccard_pairs_threshold_one(ray_session):
    """threshold=1.0 keeps only identical n-gram sets (prefix length
    still ≥ 1 — the ⌈t·|S|⌉ arithmetic must not produce an empty
    prefix)."""
    import ray.data

    from ulp_ray.stages.dedup import ngram_jaccard_pairs

    texts = ["a b c d e", "a b c d e", "a b c d x", "p q r s t"]
    ds = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(4), pa.int64()), "text": pa.array(texts)}
        )
    )
    out = ngram_jaccard_pairs(ds, n=3, threshold=1.0).take_all()
    assert [(r["id_a"], r["id_b"], r["inter_n"], r["union_n"]) for r in out] == [
        (0, 1, 3, 3)
    ]


def test_ngram_jaccard_pairs_no_candidates(ray_session):
    """Disjoint vocabularies → zero candidate pairs: the fused verify
    must return an empty result, not crash on schema inference over the
    empty candidate dataset (regression: p1.schema() is None)."""
    import ray.data

    from ulp_ray.stages.dedup import ngram_jaccard_pairs

    texts = [" ".join(f"u{i}_{j}" for j in range(10)) for i in range(20)]
    ds = ray.data.from_arrow(
        pa.table(
            {"doc_id": pa.array(range(20), pa.int64()), "text": pa.array(texts)}
        )
    )
    assert ngram_jaccard_pairs(ds, n=3, threshold=0.8).take_all() == []


def test_ngram_jaccard_pairs_property_vs_bruteforce(ray_session):
    """Hypothesis fuzz of the EXACTNESS claim: random small-vocab corpora
    (heavy gram sharing, duplicate docs, tiny/empty docs) × random
    thresholds must reproduce the brute-force pair set with identical
    integers — the prefix filter may never drop a true pair and the
    float-boundary arithmetic (⌈t·|S|⌉, inter ≥ t·union) must agree."""
    import itertools

    import ray.data
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ulp_ray.stages.dedup import ngram_jaccard_pairs

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([0.5, 0.7, 0.8, 0.9, 1.0]),
        st.integers(2, 8),  # vocab size: tiny → extreme gram sharing
    )
    def prop(seed, t, vsize):
        rng = np.random.default_rng(seed)
        vocab = [f"v{i}" for i in range(vsize)]
        texts = [
            " ".join(rng.choice(vocab, rng.integers(0, 12)))
            for _ in range(24)
        ]
        # force duplicates and a null
        texts[20] = texts[0]
        texts[21] = None
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )
        got = {
            (r["id_a"], r["id_b"]): (r["inter_n"], r["union_n"])
            for r in ngram_jaccard_pairs(ds, n=3, threshold=t).take_all()
        }
        sets = [
            {
                " ".join((s or "").split()[i : i + 3])
                for i in range(len((s or "").split()) - 2)
            }
            for s in texts
        ]
        want = {}
        for a, b in itertools.combinations(range(len(texts)), 2):
            sa, sb = sets[a], sets[b]
            if not sa or not sb:
                continue
            inter = len(sa & sb)
            union = len(sa | sb)
            if inter >= t * union:
                want[(a, b)] = (inter, union)
        assert got == want, (seed, t, vsize)

    prop()


def test_cross_jaccard_pairs_matches_duckdb(ray_session):
    """Cross-corpus exact n-gram Jaccard vs a DuckDB twin, including a
    planted near-dup, a self-match (same id in both sides), probes with
    no matches, and the probe-cap guard."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.dedup import cross_jaccard_pairs

    base = "the quick brown fox jumps over the lazy dog near the old barn"
    corpus_rows = [
        (0, base),
        (1, base.replace("quick", "speedy")),      # near-dup of probe 0
        (2, "completely different text about database storage engines"),
        (3, base),                                  # exact dup of probe 0
        (4, None),
        (5, "w1 w2 w3"),                            # too short for any match
    ]
    probe_rows = [(0, base), (100, "unrelated probe text entirely")]
    corpus = pa.table(
        {
            "doc_id": pa.array([r[0] for r in corpus_rows], pa.int64()),
            "text": pa.array([r[1] for r in corpus_rows], pa.string()),
        }
    )
    probes = pa.table(
        {
            "doc_id": pa.array([r[0] for r in probe_rows], pa.int64()),
            "text": pa.array([r[1] for r in probe_rows], pa.string()),
        }
    )
    got = (
        cross_jaccard_pairs(
            ray.data.from_arrow(corpus).repartition(3),
            ray.data.from_arrow(probes),
            n=3,
            threshold=0.5,
        )
        .to_pandas()
        .sort_values(["doc_id", "probe_id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("c", corpus)
    con.register("p", probes)
    exp = con.execute(
        "WITH lc AS (SELECT doc_id, list_filter(regexp_split_to_array(text, "
        "'\\s+'), x -> x <> '') AS ts FROM c), "
        "lp AS (SELECT doc_id, list_filter(regexp_split_to_array(text, "
        "'\\s+'), x -> x <> '') AS ts FROM p), "
        "gc AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] "
        "AS gram FROM lc, UNNEST(generate_series(1, len(ts)-2)) AS u(i)), "
        "gp AS (SELECT DISTINCT doc_id, ts[i]||' '||ts[i+1]||' '||ts[i+2] "
        "AS gram FROM lp, UNNEST(generate_series(1, len(ts)-2)) AS u(i)), "
        "sc AS (SELECT doc_id, COUNT(*) AS sz FROM gc GROUP BY doc_id), "
        "sp AS (SELECT doc_id, COUNT(*) AS sz FROM gp GROUP BY doc_id), "
        "i AS (SELECT a.doc_id AS doc_id, b.doc_id AS probe_id, COUNT(*) "
        "AS inter_n FROM gc a JOIN gp b ON a.gram = b.gram GROUP BY 1, 2) "
        "SELECT i.doc_id, i.probe_id, CAST(i.inter_n AS BIGINT) AS inter_n, "
        "CAST(sa.sz + sb.sz - i.inter_n AS BIGINT) AS union_n "
        "FROM i JOIN sc sa ON sa.doc_id = i.doc_id "
        "JOIN sp sb ON sb.doc_id = i.probe_id "
        "WHERE i.inter_n >= 0.5 * (sa.sz + sb.sz - i.inter_n) "
        "ORDER BY 1, 2"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # the planted relations surfaced
    pairs = set(zip(got["doc_id"], got["probe_id"]))
    assert (0, 0) in pairs and (3, 0) in pairs and (1, 0) in pairs
    assert all(p == 0 for _, p in pairs)  # probe 100 matches nothing
    # probe cap guard
    with pytest.raises(ValueError, match="broadcast_max_probes"):
        cross_jaccard_pairs(
            ray.data.from_arrow(corpus),
            ray.data.from_arrow(probes),
            broadcast_max_probes=1,
        )
