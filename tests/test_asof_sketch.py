"""As-of join vs pandas oracle; HLL approx-distinct accuracy."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ulp_ray.stages.asof import asof_join
from ulp_ray.stages.sketch import approx_distinct, hll_estimate, hll_partial


@pytest.fixture(scope="module")
def sides(ray_session):
    import ray.data

    rng = np.random.default_rng(6)
    base = np.datetime64("2026-01-01T00:00:00", "us")
    n_l, n_r = 500, 80
    left = pd.DataFrame(
        {
            "user": rng.integers(0, 10, n_l),
            "ts": base + rng.integers(0, 100_000, n_l).astype("timedelta64[s]"),
            "amount": rng.uniform(1, 100, n_l).round(2),
        }
    )
    right = pd.DataFrame(
        {
            "user": rng.integers(0, 10, n_r),
            "ts": base + rng.integers(0, 100_000, n_r).astype("timedelta64[s]"),
            "level": rng.integers(1, 5, n_r),
        }
    )
    return (
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(2),
        left,
        right,
    )


def test_asof_join_matches_pandas(sides):
    lds, rds, left, right = sides
    got = (
        asof_join(lds, rds, on="user", ts_col="ts")
        .to_pandas()
        .sort_values(["user", "ts", "amount"])
        .reset_index(drop=True)
    )
    exp_parts = []
    for u, lg in left.groupby("user"):
        rg = right[right["user"] == u].sort_values("ts")
        lg = lg.sort_values("ts")
        if rg.empty:
            m = lg.copy()
            m["level"] = pd.NA
        else:
            m = pd.merge_asof(lg, rg.drop(columns=["user"]), on="ts")
        exp_parts.append(m)
    exp = (
        pd.concat(exp_parts)[["user", "ts", "amount", "level"]]
        .sort_values(["user", "ts", "amount"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) == len(left)
    assert (got["amount"].to_numpy() == exp["amount"].to_numpy()).all()
    g = got["level"].astype("float64").fillna(-1).to_numpy()
    e = exp["level"].astype("float64").fillna(-1).to_numpy()
    assert (g == e).all()


def test_hll_partial_merge_associative():
    a = hll_partial(np.arange(1000).astype(str).astype(object))
    b = hll_partial((np.arange(500) + 800).astype(str).astype(object))
    merged = np.maximum(a, b)
    est = hll_estimate(merged)
    assert abs(est - 1300) / 1300 < 0.05


def test_approx_distinct_accuracy(ray_session):
    import ray.data

    n = 50_000
    vals = (np.arange(n) % 7919).astype("int64")  # 7919 distinct
    ds = ray.data.from_arrow(pa.table({"v": vals})).repartition(8)
    est = approx_distinct(ds, "v")
    assert abs(est - 7919) / 7919 < 0.05


def test_asof_join_null_keys_and_ts(ray_session):
    """SQL asof semantics for nulls: null-key / null-ts LEFT rows appear
    with null right columns; null-key / null-ts RIGHT rows never match
    (merge_asof would otherwise match NaN to NaN or raise on NaT)."""
    import numpy as np
    import ray.data

    from ulp_ray.stages.asof import asof_join

    def ts(s):
        return None if s is None else np.datetime64(f"2024-01-01T00:00:{s:02d}", "us")

    left = pa.table(
        {
            "u": pa.array([1, 1, None, 2], pa.int64()),
            "ts": pa.array([ts(10), None, ts(10), ts(10)]),
            "lv": pa.array([0, 1, 2, 3], pa.int64()),
        }
    )
    right = pa.table(
        {
            "u": pa.array([1, None, 2, 2], pa.int64()),
            "ts": pa.array([ts(5), ts(5), None, ts(7)]),
            "rv": pa.array([100, 200, 300, 400], pa.int64()),
        }
    )
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="u", ts_col="ts"
    ).to_pandas()
    assert len(out) == 4  # every left row survives (LEFT join)
    by_lv = out.set_index("lv")["rv"]
    assert by_lv[0] == 100          # normal backward match
    assert pd.isna(by_lv[1])        # null left ts -> no match
    assert pd.isna(by_lv[2])        # null left key -> no match (NOT the null right row)
    assert by_lv[3] == 400          # right null-ts row ignored, ts(7) wins


def test_asof_join_keeps_nullable_int64_payload_exact(ray_session):
    """A right payload of int64 values above 2^53 beside a null comes
    back exact and int64 (a pandas round trip would float it to 2^53),
    and the left payload keeps its type too."""
    import numpy as np
    import ray.data

    from ulp_ray.stages.asof import asof_join

    t0 = np.datetime64("2024-01-01", "us")
    left = pa.table(
        {
            "u": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.array(t0 + np.array([10, 20, 1], "timedelta64[s]")),
            "lv": pa.array([2**53 + 3, None, 5], pa.int64()),
        }
    )
    right = pa.table(
        {
            "u": pa.array([1, 1], pa.int64()),
            "ts": pa.array(t0 + np.array([5, 15], "timedelta64[s]")),
            "rv": pa.array([2**53 + 1, None], pa.int64()),
        }
    )
    out = asof_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="u", ts_col="ts"
    )
    blocks = [ray.get(r) for r in out.to_arrow_refs()]
    got = pa.concat_tables(b for b in blocks if b.num_rows)
    assert got.schema.field("rv").type == pa.int64()
    assert got.schema.field("lv").type == pa.int64()
    rows = sorted(got.to_pylist(), key=lambda r: r["ts"])
    assert [(r["lv"], r["rv"]) for r in rows] == [
        (5, None),
        (2**53 + 3, 2**53 + 1),
        (None, None),
    ]


def test_grouped_quantile_sketch_within_bin_width(ray_session):
    """The mergeable histogram quantile lands within one bin width of the
    exact quantile for every key."""
    import numpy as np
    import ray.data

    from ulp_ray.stages.aggregate import grouped_quantile
    from ulp_ray.stages.sketch import grouped_quantile_sketch

    rng = np.random.default_rng(21)
    n = 30_000
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n), pa.int64()),
            "v": pa.array(rng.random(n) * 500.0 - 100.0, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    approx = (
        grouped_quantile_sketch(ds, ["k"], "v", 0.5, bins=256, out_col="m")
        .to_pandas()
        .set_index("k")["m"]
    )
    exact = (
        grouped_quantile(ds, ["k"], "v", 0.5, out_col="m")
        .to_pandas()
        .set_index("k")["m"]
    )
    df = tbl.to_pandas()
    for k, g in df.groupby("k"):
        width = (g["v"].max() - g["v"].min()) / 256
        assert abs(approx[k] - exact[k]) <= width + 1e-9, k
    assert len(approx) == 40


def test_grouped_quantile_sketch_null_key_group(ray_session):
    """ADVICE r2: a null key that the exact grouped_quantile reports
    (dropna=False) must also appear in the sketch output, with the same
    within-bin-width accuracy."""
    import numpy as np
    import ray.data

    from ulp_ray.stages.aggregate import grouped_quantile
    from ulp_ray.stages.sketch import grouped_quantile_sketch

    rng = np.random.default_rng(7)
    n = 5_000
    keys = np.array(["a", "b", None], dtype=object)[rng.integers(0, 3, n)]
    tbl = pa.table(
        {
            "k": pa.array(keys, pa.string()),
            "v": pa.array(rng.random(n) * 100.0, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    approx = grouped_quantile_sketch(ds, ["k"], "v", 0.5, bins=256, out_col="m").to_pandas()
    exact = grouped_quantile(ds, ["k"], "v", 0.5, out_col="m").to_pandas()
    assert len(approx) == 3 and len(exact) == 3
    a_null = approx[approx["k"].isna()]["m"]
    e_null = exact[exact["k"].isna()]["m"]
    assert len(a_null) == 1 and len(e_null) == 1
    df = tbl.to_pandas()
    nv = df[df["k"].isna()]["v"]
    width = (nv.max() - nv.min()) / 256
    assert abs(float(a_null.iloc[0]) - float(e_null.iloc[0])) <= width + 1e-9
    # non-null keys agree too
    for k in ("a", "b"):
        av = float(approx[approx["k"] == k]["m"].iloc[0])
        ev = float(exact[exact["k"] == k]["m"].iloc[0])
        kv = df[df["k"] == k]["v"]
        assert abs(av - ev) <= (kv.max() - kv.min()) / 256 + 1e-9


def test_approx_distinct_grouped_error_bound(ray_session):
    """VERDICT r3 item 5: per-key HLL — <2% error at p=12 on groups
    spanning three orders of magnitude, null values not counted (SQL
    COUNT(DISTINCT)), null keys form their own group, and an
    all-null-value group reports 0 instead of disappearing."""
    import pandas as pd
    import ray.data

    from ulp_ray.stages.sketch import approx_distinct_grouped

    rng = np.random.default_rng(17)
    n = 120_000
    keys = np.array(["a", "b", "c", None], dtype=object)[rng.integers(0, 4, n)]
    vals = np.empty(n, dtype=object)
    for k, space in (("a", 20_000), ("b", 150), ("c", 60_000)):
        mask = keys == k
        vals[mask] = rng.integers(0, space, int(mask.sum()))
    nullk = np.array([k is None for k in keys])
    vals[nullk] = None  # the null-key group holds only null values
    # sprinkle null VALUES into 'a' too: they must not count
    a_idx = np.flatnonzero(keys == "a")[:500]
    vals[a_idx] = None
    t = pa.table(
        {
            "k": pa.array(keys, pa.string()),
            "v": pa.array(
                [None if v is None else int(v) for v in vals], pa.int64()
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)
    got = approx_distinct_grouped(ds, ["k"], "v").to_pandas()
    assert len(got) == 4
    exact = t.to_pandas().groupby("k", dropna=False)["v"].nunique()
    for _, row in got.iterrows():
        e = exact[np.nan] if pd.isna(row["k"]) else exact[row["k"]]
        if e == 0:
            assert row["approx_distinct"] == 0
        else:
            assert abs(row["approx_distinct"] - e) / e < 0.02, (row["k"], e)


def test_approx_distinct_grouped_matches_global_single_group(ray_session):
    """With one key the grouped estimator must agree with the global
    approx_distinct EXACTLY — same hash, same register math, same
    corrections (the sparse-row path is a re-encoding, not a new
    sketch)."""
    import ray.data

    from ulp_ray.stages.sketch import approx_distinct, approx_distinct_grouped

    vals = (np.arange(50_000) % 7919).astype("int64")
    t = pa.table({"k": pa.array(["x"] * len(vals)), "v": vals})
    ds = ray.data.from_arrow(t).repartition(8)
    est_global = approx_distinct(ds, "v")
    got = approx_distinct_grouped(ds, ["k"], "v").to_pandas()
    assert len(got) == 1
    assert int(got["approx_distinct"].iloc[0]) == est_global


def test_heavy_hitters_zipf_bounds(ray_session):
    """MG guarantee on Zipf-shaped data: top item identified, every
    estimate within [true - N/(cap+1), true], every value more frequent
    than the bound present in the summary."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(42)
    vals = rng.zipf(1.5, size=60_000)
    vals = vals[vals < 5_000]  # bounded id space
    t = pa.table({"v": pa.array(vals.astype("int64"), pa.int64())})
    # many small blocks so per-block MG pruning actually happens
    ds = ray.data.from_arrow(t).repartition(16)
    k, cap = 10, 80
    out = heavy_hitters(ds, col="v", k=k, capacity=cap).to_pandas()
    assert len(out) == k
    assert (out["est"].to_numpy()[:-1] >= out["est"].to_numpy()[1:]).all()

    import collections

    true = collections.Counter(vals.tolist())
    n = len(vals)
    bound = n / (cap + 1)
    est = dict(zip(out["value"], out["est"]))
    # Zipf(1.5): value 1 dominates
    assert out["value"].iloc[0] == 1
    for v, e in est.items():
        assert e <= true[v]
        assert e >= true[v] - bound
    # completeness: anything truly heavier than the k-th estimate plus
    # the bound must have surfaced in the top-k
    kth = out["est"].iloc[-1]
    for v, c in true.items():
        if c > kth + bound:
            assert v in est


def test_heavy_hitters_values_fn_tokens(ray_session):
    """values_fn expands inside the block (tokenize) — no explode ever
    shuffles; exact when nothing prunes."""
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.sketch import heavy_hitters
    from ulp_ray.stages._tokens import flat_tokens

    docs = pa.table(
        {"text": ["a b a", "b a c", None, "a d"]}
    )
    ds = ray.data.from_arrow(docs)
    out = heavy_hitters(
        ds, values_fn=lambda b: flat_tokens(b["text"])[0], k=3, capacity=100
    ).to_pandas()
    assert out["value"].tolist() == ["a", "b", "c"]
    assert out["est"].tolist() == [4, 2, 1]


def test_heavy_hitters_arg_validation(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data

    from ulp_ray.stages.sketch import heavy_hitters

    ds = ray.data.from_arrow(pa.table({"v": [1]}))
    with pytest.raises(ValueError, match="exactly one"):
        heavy_hitters(ds, col="v", values_fn=lambda b: b["v"])
    with pytest.raises(ValueError, match="exactly one"):
        heavy_hitters(ds)


def test_heavy_hitters_capacity_zero_rejected(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data

    from ulp_ray.stages.sketch import heavy_hitters

    ds = ray.data.from_arrow(pa.table({"v": [1]}))
    with pytest.raises(ValueError, match="capacity"):
        heavy_hitters(ds, col="v", capacity=0)


def test_grouped_heavy_hitters_bounds_per_group(ray_session):
    """Per-group MG: each group gets its own top-k with the per-group
    bound est in [true_g - N_g/(cap+1), true_g]."""
    import collections

    import numpy as np
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.sketch import grouped_heavy_hitters

    rng = np.random.default_rng(9)
    rows_g, rows_v = [], []
    for grp, zipf_a, size in (("en", 1.4, 30_000), ("fr", 1.8, 20_000)):
        v = rng.zipf(zipf_a, size=size)
        v = v[v < 2_000]
        rows_g += [grp] * len(v)
        rows_v += v.astype("int64").tolist()
    t = pa.table({"lang": rows_g, "v": pa.array(rows_v, pa.int64())})
    ds = ray.data.from_arrow(t).repartition(12)
    k, cap = 5, 64
    out = grouped_heavy_hitters(ds, "lang", col="v", k=k, capacity=cap).to_pandas()
    assert set(out["lang"]) == {"en", "fr"}
    for grp in ("en", "fr"):
        sub = out[out["lang"] == grp]
        assert len(sub) == k
        true = collections.Counter(
            v for g, v in zip(rows_g, rows_v) if g == grp
        )
        n_g = sum(1 for g in rows_g if g == grp)
        bound = n_g / (cap + 1)
        # the dominant value per group is found
        assert sub.sort_values("est", ascending=False)["value"].iloc[0] == 1
        for _, r in sub.iterrows():
            assert r["est"] <= true[r["value"]]
            assert r["est"] >= true[r["value"]] - bound


def test_grouped_heavy_hitters_tokens_values_fn(ray_session):
    """flat_tokens' (values, parents) contract keeps group alignment;
    exact when nothing prunes."""
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages._tokens import flat_tokens
    from ulp_ray.stages.sketch import grouped_heavy_hitters

    t = pa.table(
        {
            "lang": ["en", "en", "fr"],
            "text": ["a b a", "b a", "c c d"],
        }
    )
    out = grouped_heavy_hitters(
        ray.data.from_arrow(t),
        "lang",
        values_fn=lambda b: flat_tokens(b["text"]),
        k=2,
        capacity=100,
    ).to_pandas()
    en = out[out["lang"] == "en"].sort_values("est", ascending=False)
    fr = out[out["lang"] == "fr"].sort_values("est", ascending=False)
    assert list(zip(en["value"], en["est"])) == [("a", 3), ("b", 2)]
    assert list(zip(fr["value"], fr["est"])) == [("c", 2), ("d", 1)]
