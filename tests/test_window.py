"""Windowed aggregates: tumbling vs pandas oracle, sliding membership,
session gap splitting."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ulp_ray.stages.window import session_windows, sliding_counts, tumbling_counts


@pytest.fixture(scope="module")
def events(ray_session):
    import ray.data

    rng = np.random.default_rng(2)
    n = 2000
    base = np.datetime64("2026-01-01T00:00:00", "us")
    ts = base + rng.integers(0, 6 * 3600, n).astype("timedelta64[s]").astype(
        "timedelta64[us]"
    )
    t = pa.table(
        {
            "user": pa.array((rng.integers(0, 5, n)).astype("int64")),
            "kind": pa.array(np.array(["a", "b"])[rng.integers(0, 2, n)]),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    return ray.data.from_arrow(t).repartition(4), t


def test_tumbling_counts_matches_pandas(events):
    ds, t = events
    got = {
        (r["kind"], r["window_start"]): r["n"]
        for r in tumbling_counts(ds, ["kind"], unit="hour").take_all()
    }
    df = t.to_pandas()
    df["window_start"] = df["ts"].dt.floor("h")
    exp = df.groupby(["kind", "window_start"]).size()
    assert got == {(k, w.to_pydatetime()): n for (k, w), n in exp.items()}


def test_sliding_counts_window_membership(events):
    ds, t = events
    out = sliding_counts(ds, ["kind"], size_s=3600, slide_s=1800).take_all()
    # every row should appear in exactly size/slide = 2 windows
    total = sum(r["n"] for r in out)
    assert total == 2 * len(t)


def test_session_windows_gap_split(ray_session):
    import ray.data

    base = pd.Timestamp("2026-01-01")
    rows = pd.DataFrame(
        {
            "user": [1, 1, 1, 1, 2],
            "ts": [
                base,
                base + pd.Timedelta(minutes=5),
                base + pd.Timedelta(hours=2),  # gap > 30min → new session
                base + pd.Timedelta(hours=2, minutes=10),
                base,
            ],
        }
    )
    ds = ray.data.from_pandas(rows)
    out = session_windows(ds, "user", gap_s=1800).take_all()
    by_user = {}
    for r in out:
        by_user.setdefault(r["user"], []).append(r)
    assert len(by_user[1]) == 2
    assert sorted(s["n_events"] for s in by_user[1]) == [2, 2]
    assert len(by_user[2]) == 1


def test_running_aggregate_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from ulp_ray.stages.window import running_aggregate

    rng = np.random.default_rng(13)
    n = 20_000
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 5_000, n), pa.int64()),
            "o": pa.array(rng.permutation(n), pa.int64()),
            "v": pa.array(rng.integers(0, 100, n), pa.int64()),
        }
    )
    out = (
        running_aggregate(
            ray.data.from_arrow(tbl), "k", "o", "v", "cumsum", out_col="rs"
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    df = tbl.to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    df["rs"] = df.groupby("k")["v"].cumsum()
    pd.testing.assert_frame_equal(out[df.columns.tolist()], df)
    # cumcount is 1-based like SQL COUNT(*) OVER
    cc = (
        running_aggregate(
            ray.data.from_arrow(tbl), "k", "o", "v", "cumcount", out_col="n"
        )
        .to_pandas()
        .sort_values(["k", "o"])
    )
    assert cc.groupby("k")["n"].first().eq(1).all()


def test_running_aggregate_sql_null_semantics(ray_session):
    """Nulls contribute nothing, the running value carries through null
    rows, and rows before a key's first non-null stay null — SQL window
    semantics, not pandas cum* NaN propagation."""
    import ray.data

    tbl = pa.table(
        {
            "k": pa.array([1] * 4 + [2] * 2, pa.int64()),
            "o": pa.array([0, 1, 2, 3, 0, 1], pa.int64()),
            "v": pa.array([None, 1.0, None, 2.0, None, None], pa.float64()),
        }
    )
    ds = ray.data.from_arrow(tbl)
    from ulp_ray.stages.window import running_aggregate

    rs = (
        running_aggregate(ds, "k", "o", "v", "cumsum", out_col="rs")
        .to_pandas()
        .sort_values(["k", "o"])["rs"]
        .tolist()
    )
    assert rs[0] != rs[0]  # leading null -> NULL (NaN)
    assert rs[1:4] == [1.0, 1.0, 3.0]  # carry through the null row
    assert all(x != x for x in rs[4:])  # all-null key stays NULL
    mx = (
        running_aggregate(ds, "k", "o", "v", "cummax", out_col="mx")
        .to_pandas()
        .sort_values(["k", "o"])["mx"]
        .tolist()
    )
    assert mx[0] != mx[0] and mx[1:4] == [1.0, 1.0, 2.0]


def test_running_aggregate_out_col_collision_rejected(ray_session):
    import pytest as _pytest
    import ray.data

    from ulp_ray.stages.window import running_aggregate

    ds = ray.data.from_arrow(
        pa.table({"k": [1], "o": [1], "v": [1]})
    )
    with _pytest.raises(ValueError, match="collides"):
        running_aggregate(ds, "k", "o", "v", "cumsum", out_col="k")


def test_rolling_aggregate_matches_duckdb(ray_session):
    """rolling mean/sum/min/count vs the exact SQL window-frame oracle
    (ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW), incl. null values."""
    import duckdb
    import ray.data

    from ulp_ray.stages.window import rolling_aggregate

    rng = np.random.default_rng(11)
    n = 4000
    v = rng.random(n) * 100
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 37, n), pa.int64()),
            "o": pa.array(rng.permutation(n), pa.int64()),  # unique order
            # real Arrow NULLs (NaN would be a *value* to DuckDB)
            "v": pa.array(v, pa.float64(), mask=rng.random(n) < 0.1),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    con = duckdb.connect()
    con.register("t", t)
    for agg, sql_fn in [("mean", "AVG"), ("sum", "SUM"), ("min", "MIN"), ("count", "COUNT")]:
        got = (
            rolling_aggregate(ds, "k", ["o"], "v", window_rows=5, agg=agg, out_col="r")
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        exp = con.execute(
            f"SELECT k, o, {sql_fn}(v) OVER (PARTITION BY k ORDER BY o "
            "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS r FROM t "
            "ORDER BY k, o"
        ).df()
        assert len(got) == len(exp) == n
        ge, ee = got["r"].to_numpy(dtype=np.float64), exp["r"].to_numpy(dtype=np.float64)
        both_nan = np.isnan(ge) & np.isnan(ee)
        assert (both_nan | (np.abs(ge - ee) < 1e-9)).all(), agg


def test_grouped_rank_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from ulp_ray.stages.window import grouped_rank

    rng = np.random.default_rng(13)
    n = 3000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 29, n), pa.int64()),
            "o": pa.array(rng.integers(0, 50, n), pa.int64()),  # ties!
            "tie": pa.array(np.arange(n), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    con = duckdb.connect()
    con.register("t", t)
    # row_number with a unique tiebreaker is fully deterministic
    got = (
        grouped_rank(ds, ["k"], ["o", "tie"], method="row_number", out_col="rn")
        .to_pandas()
        .sort_values(["k", "o", "tie"])
        .reset_index(drop=True)
    )
    exp = con.execute(
        "SELECT k, o, tie, ROW_NUMBER() OVER (PARTITION BY k ORDER BY o, tie) "
        "AS rn FROM t ORDER BY k, o, tie"
    ).df()
    assert (got["rn"].to_numpy() == exp["rn"].to_numpy()).all()
    # rank / dense_rank share tied ranks — no tiebreaker needed
    for method, sql in [("rank", "RANK()"), ("dense_rank", "DENSE_RANK()")]:
        got = (
            grouped_rank(ds, ["k"], ["o"], method=method, out_col="r")
            .to_pandas()
            .sort_values(["k", "o", "tie"])
            .reset_index(drop=True)
        )
        exp = con.execute(
            f"SELECT k, o, tie, {sql} OVER (PARTITION BY k ORDER BY o) AS r "
            "FROM t ORDER BY k, o, tie"
        ).df()
        # ties make row order within (k,o) ambiguous, but rank depends
        # only on (k,o) — compare the (k,o)->rank mapping
        gm = got.groupby(["k", "o"])["r"].first()
        em = exp.groupby(["k", "o"])["r"].first()
        assert (gm == em).all(), method


def test_lag_column_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from ulp_ray.stages.window import lag_column

    rng = np.random.default_rng(23)
    n = 3000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 31, n), pa.int64()),
            "o": pa.array(rng.permutation(n), pa.int64()),
            "v": pa.array(rng.random(n) * 10, pa.float64(),
                          mask=rng.random(n) < 0.05),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    con = duckdb.connect()
    con.register("t", t)
    for off, sql in [(1, "LAG(v, 1)"), (3, "LAG(v, 3)"), (-2, "LEAD(v, 2)")]:
        got = (
            lag_column(ds, "k", ["o"], "v", offset=off, out_col="x")
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        exp = con.execute(
            f"SELECT k, o, v, {sql} OVER (PARTITION BY k ORDER BY o) AS x "
            "FROM t ORDER BY k, o"
        ).df()
        ge, ee = got["x"].to_numpy(dtype=float), exp["x"].to_numpy(dtype=float)
        both_nan = np.isnan(ge) & np.isnan(ee)
        assert (both_nan | (ge == ee)).all(), off


def test_grouped_rank_distribution_methods_match_duckdb(ray_session):
    """percent_rank / cume_dist / ntile vs the DuckDB window twins —
    including tied order values and group sizes that don't divide the
    tile count."""
    import duckdb
    import ray.data

    from ulp_ray.stages.window import grouped_rank

    rng = np.random.default_rng(31)
    n = 2500
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 23, n), pa.int64()),
            "o": pa.array(rng.integers(0, 40, n), pa.int64()),  # ties!
            "tie": pa.array(np.arange(n), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    con = duckdb.connect()
    con.register("t", t)

    for method, sql in [
        ("percent_rank", "PERCENT_RANK() OVER (PARTITION BY k ORDER BY o)"),
        ("cume_dist", "CUME_DIST() OVER (PARTITION BY k ORDER BY o)"),
    ]:
        got = (
            grouped_rank(ds, ["k"], ["o"], method=method, out_col="x")
            .to_pandas()
            .sort_values(["k", "o", "tie"])
            .reset_index(drop=True)
        )
        exp = con.execute(
            f"SELECT k, o, tie, {sql} AS x FROM t ORDER BY k, o, tie"
        ).df()
        np.testing.assert_allclose(
            got["x"].to_numpy(), exp["x"].to_numpy(), rtol=0, atol=0
        )

    got = (
        grouped_rank(
            ds, ["k"], ["o", "tie"], method="ntile", ntile_n=4, out_col="tile"
        )
        .to_pandas()
        .sort_values(["k", "o", "tie"])
        .reset_index(drop=True)
    )
    exp = con.execute(
        "SELECT k, o, tie, CAST(NTILE(4) OVER (PARTITION BY k ORDER BY o, tie)"
        " AS BIGINT) AS tile FROM t ORDER BY k, o, tie"
    ).df()
    assert (got["tile"].to_numpy() == exp["tile"].to_numpy()).all()

    # tiny groups: count < n → each row its own tile (SQL semantics)
    small = pa.table(
        {"k": pa.array([1, 1], pa.int64()), "o": pa.array([5, 3], pa.int64()),
         "tie": pa.array([0, 1], pa.int64())}
    )
    got = grouped_rank(
        ray.data.from_arrow(small), ["k"], ["o", "tie"],
        method="ntile", ntile_n=8, out_col="tile",
    ).to_pandas().sort_values("o").reset_index(drop=True)
    assert got["tile"].tolist() == [1, 2]

    with pytest.raises(ValueError, match="ntile_n"):
        grouped_rank(ds, ["k"], ["o"], method="ntile", out_col="x")
    with pytest.raises(ValueError, match="ntile_n only"):
        grouped_rank(ds, ["k"], ["o"], method="rank", ntile_n=3, out_col="x")


def test_edge_value_matches_duckdb_including_null_edges(ray_session):
    """FIRST_VALUE/LAST_VALUE over the full partition frame — including
    a NULL edge row, which pandas' transform('first') would skip."""
    import duckdb
    import ray.data

    from ulp_ray.stages.window import edge_value_column

    rng = np.random.default_rng(17)
    n = 2000
    vals = rng.integers(0, 100, n).astype("float64")
    vals[rng.random(n) < 0.1] = np.nan  # nulls anywhere, incl. edges
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 37, n), pa.int64()),
            "o": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(vals, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    con = duckdb.connect()
    con.register("t", t)
    for edge, fn in (("first", "FIRST_VALUE"), ("last", "LAST_VALUE")):
        got = (
            edge_value_column(ds, "k", ["o"], "v", edge=edge, out_col="ev")
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        exp = con.execute(
            f"SELECT k, o, v, {fn}(v) OVER (PARTITION BY k ORDER BY o "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS ev "
            "FROM t ORDER BY k, o"
        ).df()
        np.testing.assert_array_equal(
            got["ev"].to_numpy(), exp["ev"].to_numpy()
        )

    with pytest.raises(ValueError, match="edge must be"):
        edge_value_column(ds, "k", ["o"], "v", edge="middle")


def test_rolling_time_aggregate_vs_duckdb(ray_session):
    """Event-time RANGE frame vs DuckDB's RANGE BETWEEN INTERVAL window,
    including timestamp ties (peers share the frame), null values
    (skipped by SUM/COUNT) and null timestamps (the NULL peer group)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from ulp_ray.stages.window import rolling_time_aggregate

    rng = np.random.default_rng(9)
    n = 400
    base = pd.Timestamp("2024-05-01")
    secs = rng.integers(0, 3600 * 6, size=n)
    ts = [base + pd.Timedelta(seconds=int(s)) for s in secs]
    # plant ties and null timestamps / null values
    ts[10] = ts[11] = ts[12]
    ts[20] = None
    ts[21] = None
    vals = rng.integers(-50, 100, size=n).astype("float64")
    vals[[5, 13, 21]] = np.nan
    df = pd.DataFrame(
        {
            "u": rng.integers(0, 12, size=n),
            "ts": pd.to_datetime(ts),
            "v": vals,
            "rid": np.arange(n),
        }
    )
    ds = ray.data.from_pandas(df)
    got = (
        rolling_time_aggregate(ds, "u", "ts", "v", window_s=1800, agg="sum")
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    got_cnt = (
        rolling_time_aggregate(
            ds, "u", "ts", "v", window_s=1800, agg="count", out_col="c"
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        "SELECT rid, SUM(v) OVER w AS s, COUNT(v) OVER w AS c FROM t "
        "WINDOW w AS (PARTITION BY u ORDER BY ts RANGE BETWEEN "
        "INTERVAL 30 MINUTES PRECEDING AND CURRENT ROW) ORDER BY rid"
    ).df()
    pd.testing.assert_series_equal(
        got["rolling_sum_v"].astype("float64"),
        want["s"].astype("float64"),
        check_names=False,
    )
    pd.testing.assert_series_equal(
        got_cnt["c"].astype("int64"),
        want["c"].astype("int64"),
        check_names=False,
    )


def test_rolling_frame_aggregate_vs_duckdb(ray_session):
    """Centered/asymmetric ROWS frame vs DuckDB, including null values
    (skipped; all-null frame -> NULL/0) and frames clamped at segment
    edges."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from ulp_ray.stages.window import rolling_frame_aggregate

    rng = np.random.default_rng(17)
    n = 300
    vals = rng.integers(-20, 50, n).astype("float64")
    vals[[4, 5, 6, 40]] = np.nan
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 9, n),
            "o": rng.permutation(n),
            "v": vals,
            "rid": np.arange(n),
        }
    )
    ds = ray.data.from_pandas(df)
    con = duckdb.connect()
    con.register("t", df)
    for agg, sql_expr, col in [
        ("sum", "SUM(v)", "frame_sum_v"),
        ("mean", "AVG(v)", "frame_mean_v"),
        ("count", "COUNT(v)", "frame_count_v"),
    ]:
        got = (
            rolling_frame_aggregate(ds, "k", ["o"], "v", 2, 3, agg=agg)
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )
        want = con.sql(
            f"SELECT rid, {sql_expr} OVER (PARTITION BY k ORDER BY o "
            "ROWS BETWEEN 2 PRECEDING AND 3 FOLLOWING) AS w FROM t "
            "ORDER BY rid"
        ).df()
        pd.testing.assert_series_equal(
            got[col].astype("float64"),
            want["w"].astype("float64"),
            check_names=False,
        )
    with pytest.raises(ValueError, match="unsupported"):
        rolling_frame_aggregate(ds, "k", ["o"], "v", 1, 1, agg="max")
    with pytest.raises(ValueError, match=">= 0"):
        rolling_frame_aggregate(ds, "k", ["o"], "v", -1, 0)


def test_fill_time_gaps_matches_duckdb(ray_session):
    """Dense per-key time series: gaps between each key's min and max
    bucket are zero-filled; values at observed buckets survive."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.window import fill_time_gaps

    rng = np.random.default_rng(23)
    base = pd.Timestamp("2024-03-01")
    rows = []
    for k in ["a", "b", "c"]:
        hours = np.unique(rng.integers(0, 50, size=12))
        for h in hours:
            rows.append((k, base + pd.Timedelta(hours=int(h)), int(rng.integers(1, 9))))
    df = pd.DataFrame(rows, columns=["k", "ws", "n"])
    ds = ray.data.from_pandas(df)
    got = (
        fill_time_gaps(ds, ["k"], "ws", step_s=3600)
        .to_pandas()
        .sort_values(["k", "ws"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute(
        "WITH r AS (SELECT k, MIN(ws) AS mn, MAX(ws) AS mx FROM t GROUP BY k), "
        "g AS (SELECT k, UNNEST(generate_series(mn, mx, INTERVAL 1 HOUR)) "
        "AS ws FROM r) "
        "SELECT g.k, g.ws, CAST(COALESCE(t.n, 0) AS BIGINT) AS n "
        "FROM g LEFT JOIN t ON t.k = g.k AND t.ws = g.ws "
        "ORDER BY 1, 2"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    with pytest.raises(ValueError, match="positive"):
        fill_time_gaps(ds, ["k"], "ws", step_s=0)


def test_rolling_time_aggregate_float_seconds_round_to_us(ray_session):
    """Numeric-second timestamps are rounded to µs, not truncated: 2.01 s
    is 2009999.9999… µs in float, and truncating it would push the row
    out of the 1 s frame that ends at 3.01 s (the RANGE contract
    includes it: 3.01 − 1.0 = 2.01)."""
    import pandas as pd
    import ray.data

    from ulp_ray.stages.window import rolling_time_aggregate

    df = pd.DataFrame({"u": [1, 1], "ts": [2.01, 3.01], "v": [1.0, 10.0]})
    got = (
        rolling_time_aggregate(
            ray.data.from_pandas(df), "u", "ts", "v", window_s=1.0, agg="sum"
        )
        .to_pandas()
        .sort_values("ts")
    )
    assert got["rolling_sum_v"].tolist() == [1.0, 11.0]


@pytest.mark.parametrize(
    "ws, match",
    [
        (["2024-03-01 00:00", None, "2024-03-01 02:00"], "null"),
        (["2024-03-01 00:00", "2024-03-01 01:30", "2024-03-01 02:00"], "grid"),
        (["2024-03-01 00:00", "2024-03-01 01:00", "2024-03-01 01:00"], "duplicate"),
    ],
    ids=["null_bucket", "off_grid", "duplicate_bucket"],
)
def test_fill_time_gaps_rejects_contract_violations(ray_session, ws, match):
    """A null bucket timestamp, a bucket off the step grid of its key's
    first bucket, or a repeated (key, bucket) row would collide on the
    dense grid and drop counts silently; densify raises instead."""
    import ray.data

    from ulp_ray.stages.window import fill_time_gaps

    t = pa.table(
        {
            "k": ["a"] * len(ws),
            "ws": pa.array(pd.to_datetime(pd.Series(ws)), pa.timestamp("us")),
            "n": pa.array([1, 2, 3], pa.int64()),
        }
    )
    with pytest.raises(ValueError, match=match):
        fill_time_gaps(ray.data.from_arrow(t), ["k"], "ws", step_s=3600).materialize()


def test_window_ops_keep_int64_exact(ray_session):
    """Keys 2^53 and 2^53+1 are two partitions, not one, and an int64
    column holding a null passes through (and lags) as int64: the
    per-bucket body stays in Arrow instead of a float64 round trip."""
    import ray.data

    from ulp_ray.stages.window import grouped_rank, lag_column, running_aggregate

    big = 2**53
    t = pa.table(
        {
            "k": pa.array([big, big + 1, None, big + 1], pa.int64()),
            "o": pa.array([0, 1, 2, 3], pa.int64()),
            "v": pa.array([10, 20, None, 30], pa.int64()),
            "w": pa.array([big + 1, None, 1, big + 3], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    for op in (
        lambda: running_aggregate(ds, "k", "o", "v", "cumsum", out_col="x", buckets=1),
        lambda: grouped_rank(ds, ["k"], ["o"], out_col="x", buckets=1),
        lambda: lag_column(ds, "k", ["o"], "w", out_col="x", buckets=1),
    ):
        out = pa.concat_tables(
            ray.get(r) for r in op().to_arrow_refs()
        ).sort_by("o")
        assert out.select(t.column_names).equals(t)
        assert out.schema.field("x").type == pa.int64()
    got = running_aggregate(ds, "k", "o", "v", "cumsum", out_col="x", buckets=1)
    assert sorted(got.take_all(), key=lambda r: r["o"])[1]["x"] == 20
    lagged = lag_column(ds, "k", ["o"], "w", out_col="x", buckets=1).take_all()
    assert {r["o"]: r["x"] for r in lagged}[3] is None  # lag of a null w


class _Local:
    """A one-bucket stand-in for a Dataset: with ``co_group`` swapped for
    :func:`_one_bucket`, an op runs its per-bucket body in-process over
    the whole table."""

    def __init__(self, t: pa.Table):
        self.t = t

    def schema(self):
        return self.t.schema


def _one_bucket(inputs, on, fn, buckets=None):
    return fn(*(x.t for x in inputs))


_LO, _HI = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_KEYS = [None, _LO, _HI, 2**53, 2**53 + 1, 0]
_INTS = [None, _LO, _LO + 1, _HI, _HI - 1, 2**53 - 1, 2**53, 2**53 + 1, 0, -1, 7]


def _rows_key(row):
    return [(v is None, v if v is not None else 0) for v in row]


def _bits(t: pa.Table) -> pa.Table:
    """``t`` with float columns viewed as their int64 bit patterns, so
    that ``equals`` holds NaN equal to the same NaN."""
    return pa.table(
        {
            c: t[c].combine_chunks().view(pa.int64())
            if pa.types.is_float64(t[c].type)
            else t[c]
            for c in t.column_names
        }
    )


def _assert_same(got: list, want: list, what):
    """Element-wise: None is None, NaN is NaN, floats to 1e-9, the rest
    exactly."""
    import math

    assert len(got) == len(want), what
    for g, w in zip(got, want):
        if g is None or w is None:
            assert g is None and w is None, (what, got, want)
        elif isinstance(g, float) or isinstance(w, float):
            if math.isnan(w):
                assert math.isnan(g), (what, got, want)
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), (what, got, want)
        else:
            assert g == w, (what, got, want)


def test_window_family_matches_duckdb_over():
    """Every per-key window op against its DuckDB ``OVER`` twin, on small
    generated tables with null keys, int64 extremes and the 2^53
    neighbours (as keys and values), null, NaN and ±inf floats, null
    timestamps, and tied orders plus a unique tiebreaker ``tie``. Each
    op's per-bucket body runs in-process over one bucket (the bucket
    split itself is ``test_many_keys``'s); an int64 SUM whose exact
    (HUGEINT) result leaves int64 must raise instead."""
    import duckdb
    import pyarrow.compute as pc
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ulp_ray.stages import _bucket, window
    from ulp_ray.stages.conversation import assemble_conversations, turn_gaps

    row = st.tuples(
        st.sampled_from(_KEYS),
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.sampled_from(_INTS), st.integers(-5, 5)),
        st.one_of(
            st.none(),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            st.floats(-100, 100, allow_nan=False),
        ),
        st.one_of(st.none(), st.integers(0, 12)),
    )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(row, min_size=1, max_size=24))
    def check(rows):
        k, o, v, f, sec = (list(c) for c in zip(*rows))
        t0 = np.datetime64("2024-01-01", "us")
        t = pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "o": pa.array(o, pa.int64()),
                "tie": pa.array(np.arange(len(rows)), pa.int64()),
                "v": pa.array(v, pa.int64()),
                "f": pa.array(f, pa.float64()),
                "ts": pa.array(
                    [None if s is None else t0 + np.timedelta64(30 * s, "s")
                     for s in sec],
                    pa.timestamp("us"),
                ),
            }
        )
        con = duckdb.connect()
        con.register("t", t)
        by_tie = "PARTITION BY k ORDER BY tie"
        by_o_tie = "PARTITION BY k ORDER BY o NULLS LAST, tie"
        ds = _Local(t)

        def appended(op, sql, name="x"):
            want = con.execute(f"SELECT {sql} AS x FROM t ORDER BY tie").fetchall()
            want = [r[0] for r in want]
            overflow = any(
                isinstance(w, int) and not _LO <= w <= _HI for w in want
            )
            if overflow:
                with pytest.raises(OverflowError):
                    op()
                return
            out = op().sort_by("tie")
            assert _bits(out.select(t.column_names)).equals(_bits(t)), sql
            _assert_same(out[name].to_pylist(), want, sql)
            return out.schema.field(name).type

        I64, F64 = pa.int64(), pa.float64()
        for col in ("v", "f"):
            typ = t.schema.field(col).type
            run = f"{by_tie} ROWS UNBOUNDED PRECEDING"
            for agg, sql, out_t in (
                ("cumsum", f"SUM({col})", typ),
                ("cumcount", "COUNT(*)", I64),
                ("cummax", f"MAX({col})", typ),
                ("cummin", f"MIN({col})", typ),
            ):
                got_t = appended(
                    lambda: window.running_aggregate(
                        ds, "k", "tie", col, agg, out_col="x"
                    ),
                    f"{sql} OVER ({run})",
                )
                assert got_t in (None, out_t), (agg, col)
            trail = f"{by_o_tie} ROWS BETWEEN 2 PRECEDING AND CURRENT ROW"
            for agg, sql, out_t in (
                ("mean", f"AVG({col})", F64),
                ("sum", f"SUM({col})", typ),
                ("min", f"MIN({col})", typ),
                ("max", f"MAX({col})", typ),
                ("count", f"COUNT({col})", I64),
            ):
                got_t = appended(
                    lambda: window.rolling_aggregate(
                        ds, "k", ["o", "tie"], col, 3, agg, out_col="x"
                    ),
                    f"{sql} OVER ({trail})",
                )
                assert got_t in (None, out_t), (agg, col)
            frame = f"{by_o_tie} ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING"
            for agg, sql in (("sum", "SUM"), ("mean", "AVG"), ("count", "COUNT")):
                appended(
                    lambda: window.rolling_frame_aggregate(
                        ds, "k", ["o", "tie"], col, 1, 2, agg, out_col="x"
                    ),
                    f"{sql}({col}) OVER ({frame})",
                )
            rng = (
                "PARTITION BY k ORDER BY ts RANGE BETWEEN INTERVAL 90 SECONDS "
                "PRECEDING AND CURRENT ROW"
            )
            for agg, sql in (("sum", "SUM"), ("count", "COUNT")):
                appended(
                    lambda: window.rolling_time_aggregate(
                        ds, "k", "ts", col, 90, agg, out_col="x"
                    ),
                    f"{sql}({col}) OVER ({rng})",
                )
            for off, sql in ((1, f"LAG({col}, 1)"), (-2, f"LEAD({col}, 2)")):
                got_t = appended(
                    lambda: window.lag_column(ds, "k", ["o", "tie"], col, off, "x"),
                    f"{sql} OVER ({by_o_tie})",
                )
                assert got_t == typ
            full = (
                f"{by_o_tie} ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING"
            )
            for edge in ("first", "last"):
                got_t = appended(
                    lambda: window.edge_value_column(
                        ds, "k", ["o", "tie"], col, edge, "x"
                    ),
                    f"{edge.upper()}_VALUE({col}) OVER ({full})",
                )
                assert got_t == typ
        by_o = "PARTITION BY k ORDER BY o NULLS LAST"
        for method, order, sql in (
            ("row_number", ["o", "tie"], f"ROW_NUMBER() OVER ({by_o_tie})"),
            ("ntile", ["o", "tie"], f"NTILE(3) OVER ({by_o_tie})"),
            ("rank", ["o"], f"RANK() OVER ({by_o})"),
            ("dense_rank", ["o"], f"DENSE_RANK() OVER ({by_o})"),
            ("percent_rank", ["o"], f"PERCENT_RANK() OVER ({by_o})"),
            ("cume_dist", ["o"], f"CUME_DIST() OVER ({by_o})"),
        ):
            appended(
                lambda: window.grouped_rank(
                    ds, ["k"], order, method, "x",
                    ntile_n=3 if method == "ntile" else None,
                ),
                sql,
            )

        def same_rows(got: pa.Table, sql: str):
            want = con.execute(sql).arrow()
            assert got.schema == want.schema, sql
            g, w = (
                sorted((list(r.values()) for r in x.to_pylist()), key=_rows_key)
                for x in (got, want)
            )
            assert len(g) == len(w), sql
            for a, b in zip(g, w):
                _assert_same(a, b, sql)

        w = "PARTITION BY k ORDER BY ts NULLS LAST, tie"
        same_rows(
            window.session_windows(ds, "k", "ts", gap_s=60),
            "SELECT k, MIN(ts) AS session_start, MAX(ts) AS session_end, "
            "COUNT(*) AS n_events FROM (SELECT k, ts, SUM(new) OVER "
            f"({w} ROWS UNBOUNDED PRECEDING) AS sid FROM (SELECT k, ts, tie, "
            f"CASE WHEN ROW_NUMBER() OVER ({w}) = 1 OR ts - LAG(ts) OVER ({w}) "
            "> INTERVAL 60 SECONDS THEN 1 ELSE 0 END AS new FROM t)) "
            "GROUP BY k, sid",
        )
        sparse = con.execute(
            "SELECT k, date_trunc('minute', ts) AS ws, COUNT(*) AS n FROM t "
            "WHERE ts IS NOT NULL GROUP BY ALL"
        ).arrow()
        con.register("s", sparse)
        if sparse.num_rows:  # co_group runs no empty bucket
            same_rows(
                window.fill_time_gaps(_Local(sparse), ["k"], "ws", step_s=60),
                "WITH r AS (SELECT k, MIN(ws) AS mn, MAX(ws) AS mx FROM s "
                "GROUP BY k), g AS (SELECT k, UNNEST(generate_series(mn, mx, "
                "INTERVAL 1 MINUTE)) AS ws FROM r) SELECT g.k, g.ws, "
                "COALESCE(s.n, 0) AS n FROM g LEFT JOIN s ON s.k IS NOT "
                "DISTINCT FROM g.k AND s.ws = g.ws",
            )
        conv = pa.table(
            {
                "conv_id": pc.cast(t["k"], pa.string()),
                "turn_idx": t["tie"],
                "role": pa.array(
                    [None if x is None else ("tool", "user")[x % 2] for x in o],
                    pa.string(),
                ),
                "text": pc.cast(t["f"], pa.string()),
                "tool": pc.cast(t["v"], pa.string()),
                "ts": t["ts"],
            }
        )
        con.register("c", conv)
        same_rows(
            turn_gaps(_Local(conv)),
            "SELECT conv_id, turn_idx, (epoch_us(ts) - LAG(epoch_us(ts)) OVER "
            "(PARTITION BY conv_id ORDER BY turn_idx)) / 1e6 AS gap_s FROM c",
        )
        assembled = assemble_conversations(_Local(conv), buckets=1)
        want = con.execute(
            "SELECT conv_id, COUNT(*) AS n_turns, LIST({'turn_idx': turn_idx, "
            "'role': role, 'text': text, 'tool': tool} ORDER BY turn_idx) "
            "AS turns FROM c GROUP BY conv_id"
        ).arrow()
        assert assembled.schema.field("n_turns").type == pa.int64()
        key = lambda r: (r["conv_id"] is None, r["conv_id"] or "")  # noqa: E731
        assert sorted(assembled.to_pylist(), key=key) == sorted(
            want.to_pylist(), key=key
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(window, "co_group", _one_bucket)
        mp.setattr(_bucket, "co_group", _one_bucket)
        check()

