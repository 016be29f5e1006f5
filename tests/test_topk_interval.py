"""Grouped top-k, grouped quantile, and the interval (range) join — unit
tests vs pandas/numpy oracles, including many-distinct-key shapes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ulp_ray.stages.aggregate import grouped_quantile, grouped_topk
from ulp_ray.stages.interval import interval_join


@pytest.fixture(scope="module")
def values(ray_session):
    rng = np.random.default_rng(3)
    n = 20_000
    return pa.table(
        {
            "grp": pa.array(rng.integers(0, 50, n), pa.int64()),
            "row_id": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(rng.random(n) * 100.0, pa.float64()),
        }
    )


def test_grouped_topk_matches_pandas(values):
    import ray.data

    out = (
        grouped_topk(
            ray.data.from_arrow(values), ["grp"], "v", k=3, tie_cols=["row_id"]
        )
        .to_pandas()
        .sort_values(["grp", "v", "row_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    df = values.to_pandas()
    want = (
        df.sort_values(["grp", "v", "row_id"], ascending=[True, False, True])
        .groupby("grp", sort=True)
        .head(3)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[want.columns.tolist()], want)
    assert len(out) == 150


def test_grouped_topk_ties_deterministic(ray_session):
    import ray.data

    tbl = pa.table(
        {
            "grp": pa.array([0] * 5, pa.int64()),
            "row_id": pa.array([5, 3, 1, 4, 2], pa.int64()),
            "v": pa.array([1.0, 1.0, 1.0, 1.0, 1.0], pa.float64()),
        }
    )
    out = grouped_topk(
        ray.data.from_arrow(tbl), ["grp"], "v", k=2, tie_cols=["row_id"]
    ).to_pandas()
    assert sorted(out["row_id"]) == [1, 2]  # smallest row_ids win ties


def test_grouped_quantile_quantile_cont_semantics(values):
    import ray.data

    out = (
        grouped_quantile(ray.data.from_arrow(values), ["grp"], "v", 0.5)
        .to_pandas()
        .set_index("grp")["q0.5"]
    )
    df = values.to_pandas()
    for grp, g in df.groupby("grp"):
        s = np.sort(g["v"].to_numpy())
        pos = 0.5 * (len(s) - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        want = s[lo] + (s[hi] - s[lo]) * (pos - lo)
        assert out[grp] == want


def test_interval_join_matches_pandas(ray_session):
    import ray.data

    rng = np.random.default_rng(9)
    n_l, n_r = 5_000, 2_000
    base = np.datetime64("2024-01-01", "us")
    left = pa.table(
        {
            "k": pa.array(rng.integers(0, 300, n_l), pa.int64()),
            "eid": pa.array(np.arange(n_l), pa.int64()),
            "ts": pa.array(
                base + rng.integers(0, 10_000_000_000, n_l).astype("timedelta64[us]")
            ),
        }
    )
    starts = base + rng.integers(0, 10_000_000_000, n_r).astype("timedelta64[us]")
    right = pa.table(
        {
            "k": pa.array(rng.integers(0, 300, n_r), pa.int64()),
            "iid": pa.array(np.arange(n_r), pa.int64()),
            "iv_start": pa.array(starts),
            "iv_end": pa.array(starts + np.timedelta64(600_000_000, "us")),
        }
    )
    out = interval_join(
        ray.data.from_arrow(left),
        ray.data.from_arrow(right),
        on="k",
        ts_col="ts",
        start_col="iv_start",
        end_col="iv_end",
    ).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k")
    want = want[(want["ts"] >= want["iv_start"]) & (want["ts"] <= want["iv_end"])]
    key = ["eid", "iid"]
    got_pairs = set(map(tuple, out[key].to_numpy()))
    want_pairs = set(map(tuple, want[key].to_numpy()))
    assert got_pairs == want_pairs
    assert len(out) == len(want) > 0


def test_interval_join_null_rows_dropped(ray_session):
    import ray.data

    base = np.datetime64("2024-01-01", "us")
    left = pa.table(
        {
            "k": pa.array([1, None], pa.int64()),
            "eid": pa.array([0, 1], pa.int64()),
            "ts": pa.array([base, base]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, None], pa.int64()),
            "iid": pa.array([0, 1], pa.int64()),
            "iv_start": pa.array([base - np.timedelta64(1, "s"), base]),
            "iv_end": pa.array([base + np.timedelta64(1, "s"), base]),
        }
    )
    out = interval_join(
        ray.data.from_arrow(left),
        ray.data.from_arrow(right),
        on="k",
        ts_col="ts",
        start_col="iv_start",
        end_col="iv_end",
    ).to_pandas()
    assert out["eid"].tolist() == [0]  # null keys never match (SQL join)


def test_pivot_counts_matches_pandas(values):
    import ray.data

    from ulp_ray.stages.aggregate import pivot_counts

    # pivot the low digit of v as a categorical
    tbl = values.append_column(
        "cat",
        pa.array(
            (values["v"].to_numpy() % 3).astype("int64").astype(str), pa.string()
        ),
    )
    out = (
        pivot_counts(ray.data.from_arrow(tbl), ["grp"], "cat", values=["0", "1"])
        .to_pandas()
        .sort_values("grp")
        .reset_index(drop=True)
    )
    df = tbl.to_pandas()
    want = (
        df.assign(**{
            "0_n": (df["cat"] == "0").astype("int64"),
            "1_n": (df["cat"] == "1").astype("int64"),
        })
        .groupby("grp", as_index=False)[["0_n", "1_n"]]
        .sum()
        .sort_values("grp")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[["grp", "0_n", "1_n"]], want, check_dtype=False)


def test_pivot_counts_null_pivot_values_count_zero(ray_session):
    import ray.data

    from ulp_ray.stages.aggregate import pivot_counts

    tbl = pa.table(
        {
            "grp": pa.array([1, 1, 2], pa.int64()),
            "cat": pa.array(["x", None, None], pa.string()),
        }
    )
    out = (
        pivot_counts(ray.data.from_arrow(tbl), ["grp"], "cat", values=["x"])
        .to_pandas()
        .sort_values("grp")
    )
    # all-null group 2 gets 0, not null (SQL SUM(CASE...ELSE 0))
    assert out["x_n"].tolist() == [1, 0]


def test_grouped_moments_exact(ray_session):
    """Mergeable integer moments equal a single-pass pandas oracle and
    derive the right mean/std."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import grouped_moments

    rng = np.random.default_rng(17)
    n = 20_000
    t = pa.table(
        {
            "k": pa.array(np.array(["a", "b", "c"])[rng.integers(0, 3, n)]),
            "v": pa.array(rng.random(n) * 100 - 50, pa.float64(),
                          mask=rng.random(n) < 0.05),
        }
    )
    got = (
        grouped_moments(ray.data.from_arrow(t).repartition(4), ["k"], "v")
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    df = t.to_pandas()
    cents = (df["v"] * 100).round()
    exp = pd.DataFrame(
        {
            "n": df["v"].notna().groupby(df["k"]).sum().astype("int64"),
            "sum_scaled": cents.groupby(df["k"]).sum().astype("int64"),
            "sumsq_scaled": (cents * cents).groupby(df["k"]).sum().astype("int64"),
        }
    ).sort_index()
    pd.testing.assert_frame_equal(got, exp, check_names=False)
    # derived stats are sane
    mean = got["sum_scaled"] / (100.0 * got["n"])
    assert (mean.abs() < 5).all()


def test_grouped_collect_distinct_sorted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import grouped_collect

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b", "c"]),
            "v": pa.array(["z", "m", "z", None, "q", None]),
        }
    )
    out = (
        grouped_collect(ray.data.from_arrow(t).repartition(2), ["k"], "v")
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    # nulls skipped; distinct + sorted; all-null group absent (SQL
    # list() over no rows)
    assert out.loc["a", "values_joined"] == "m|z"
    assert list(out.loc["a", "values"]) == ["m", "z"]
    assert out.loc["b", "values_joined"] == "q"
    assert "c" not in out.index
    # non-distinct keeps multiplicity
    out2 = (
        grouped_collect(
            ray.data.from_arrow(t).repartition(2), ["k"], "v", distinct=False
        )
        .to_pandas()
        .set_index("k")
    )
    assert out2.loc["a", "values_joined"] == "m|z|z"


def test_grouped_collect_null_numeric_key_single_group(ray_session):
    """Review regression: a numeric key column's null group must stay
    ONE group (NaN != NaN previously fragmented it per value)."""
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import grouped_collect

    t = pa.table(
        {
            "k": pa.array([1, None, None, None], pa.int64()),
            "v": pa.array(["a", "c", "b", "c"]),
        }
    )
    out = grouped_collect(ray.data.from_arrow(t), ["k"], "v").to_pandas()
    assert len(out) == 2
    null_row = out[out["k"].isna()]
    assert len(null_row) == 1
    assert null_row.iloc[0]["values_joined"] == "b|c"


def test_quantile_filter_matches_duckdb(ray_session):
    """Broadcast-threshold percentile filter vs DuckDB join twin,
    including null groups / null values (JOIN semantics: never pass),
    both keep directions, and the join fallback path."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import quantile_filter

    rng = np.random.default_rng(7)
    n = 400
    t = pa.table(
        {
            "g": pa.array(
                [None if i % 57 == 0 else f"t{x}"
                 for i, x in enumerate(rng.integers(0, 4, n))]
            ),
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(
                [None if i % 41 == 0 else float(x)
                 for i, x in enumerate(rng.normal(size=n))],
                pa.float64(),
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    con = duckdb.connect()
    con.register("t", t)

    for keep, op in [("above", ">"), ("below", "<=")]:
        got = (
            quantile_filter(ds, "g", "v", 0.5, keep=keep)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        exp = con.execute(
            "WITH th AS (SELECT g, quantile_cont(v, 0.5) AS thr FROM t "
            f"GROUP BY g) SELECT t.g, t.id, t.v FROM t JOIN th USING (g) "
            f"WHERE t.v {op} th.thr ORDER BY id"
        ).df()
        pd.testing.assert_frame_equal(
            got[["g", "id", "v"]], exp, check_dtype=False
        )
        # join fallback gives identical rows
        got_j = (
            quantile_filter(ds, "g", "v", 0.5, keep=keep, broadcast_max_groups=0)
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got_j[["g", "id", "v"]].reset_index(drop=True), exp, check_dtype=False
        )

    with pytest.raises(ValueError, match="keep must be"):
        quantile_filter(ds, "g", "v", 0.5, keep="between")


def test_cube_counts_matches_duckdb(ray_session):
    """GROUP BY CUBE: every key subset, padded nulls, incl. real-null
    data values coinciding with padded nulls (SQL's own ambiguity)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import cube_counts

    rng = np.random.default_rng(13)
    n = 300
    t = pa.table(
        {
            "a": pa.array(
                [None if i % 29 == 0 else f"a{x}"
                 for i, x in enumerate(rng.integers(0, 3, n))]
            ),
            "b": pa.array(rng.integers(0, 4, n), pa.int64()),
        }
    )
    got = (
        cube_counts(ray.data.from_arrow(t).repartition(3), ["a", "b"])
        .to_pandas()
        .sort_values(["a", "b", "n"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = (
        con.execute(
            "SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n FROM t "
            "GROUP BY CUBE(a, b)"
        )
        .df()
        .sort_values(["a", "b", "n"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError, match="at least one key"):
        cube_counts(ray.data.from_arrow(t), [])


def test_grouping_sets_matches_duckdb(ray_session):
    """GROUPING SETS incl. a disjoint set that needs its own raw pass
    and the grand-total ()."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import grouping_sets_counts

    rng = np.random.default_rng(19)
    n = 250
    t = pa.table(
        {
            "a": pa.array([f"a{x}" for x in rng.integers(0, 3, n)]),
            "b": pa.array(rng.integers(0, 4, n), pa.int64()),
            "c": pa.array([f"c{x}" for x in rng.integers(0, 2, n)]),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    got = (
        grouping_sets_counts(ds, ["a", "b", "c"], [["a", "b"], ["c"], []])
        .to_pandas()
        .sort_values(["a", "b", "c", "n"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = (
        con.execute(
            "SELECT a, b, c, CAST(COUNT(*) AS BIGINT) AS n FROM t "
            "GROUP BY GROUPING SETS ((a, b), (c), ())"
        )
        .df()
        .sort_values(["a", "b", "c", "n"], na_position="last")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError, match="at least one set"):
        grouping_sets_counts(ds, ["a"], [])
    with pytest.raises(ValueError, match="not in keys"):
        grouping_sets_counts(ds, ["a"], [["z"]])


def test_grouping_sets_rejects_empty_keys(ray_session):
    """No keys (even for the grand total alone) is rejected like
    ``cube_counts`` does, not folded through a keyless rollup."""
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import grouping_sets_counts

    ds = ray.data.from_arrow(pa.table({"a": ["x", "y"]}))
    with pytest.raises(ValueError, match="at least one key"):
        grouping_sets_counts(ds, [], [[]])


def test_grouped_corr_matches_duckdb(ray_session):
    """Grouped Pearson correlation vs DuckDB's CORR, including null
    pairs (excluded), a zero-variance group (null), and a single-pair
    group (null)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import grouped_corr

    rng = np.random.default_rng(29)
    n = 400
    g = rng.integers(0, 4, n)
    x = rng.integers(-100, 100, n).astype("float64")
    y = (x * 3 + rng.integers(-40, 40, n)).astype("float64")
    x[g == 2] = 7.0          # zero variance group -> null
    x[[5, 17]] = np.nan      # null pairs excluded
    y[[9, 17]] = np.nan
    t = pa.table(
        {
            "g": pa.array([f"g{v}" for v in g]),
            "x": pa.array(x, pa.float64(), from_pandas=True),
            "y": pa.array(y, pa.float64(), from_pandas=True),
        }
    )
    got = (
        grouped_corr(ray.data.from_arrow(t).repartition(3), ["g"], "x", "y")
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        "SELECT g, CAST(COUNT(*) FILTER (x IS NOT NULL AND y IS NOT NULL) "
        "AS BIGINT) AS n, ROUND(CORR(x, y), 4) AS corr "
        "FROM t GROUP BY g ORDER BY g"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert got[got["g"] == "g2"]["corr"].isna().all()
    # integer inputs take the exact int64-sum path
    ti = pa.table(
        {
            "g": pa.array(["a"] * 6 + ["b"] * 6),
            "x": pa.array(list(range(6)) + [1, 2, 3, 4, 5, 6], pa.int64()),
            "y": pa.array([2, 4, 6, 8, 10, 12] + [6, 5, 4, 3, 2, 1], pa.int64()),
        }
    )
    got_i = (
        grouped_corr(ray.data.from_arrow(ti), ["g"], "x", "y")
        .to_pandas()
        .set_index("g")["corr"]
    )
    assert got_i["a"] == 1.0 and got_i["b"] == -1.0
