"""Scale-shape regression: the bucketed co-grouping operators must stay
correct (and not degenerate to per-key Python callbacks) with ≥10⁴
distinct keys — the shape that killed the round-1 per-key map_groups
forms. Correctness here is vs straightforward pandas oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

N_KEYS = 10_000
ROWS = 40_000


@pytest.fixture(scope="module")
def events(ray_session):
    rng = np.random.default_rng(17)
    keys = rng.integers(0, N_KEYS, ROWS)
    ts = np.datetime64("2024-01-01", "us") + rng.integers(
        0, 86_400_000_000, ROWS
    ).astype("timedelta64[us]")
    return pa.table(
        {
            "user_id": pa.array(keys, pa.int64()),
            "event_id": pa.array(np.arange(ROWS), pa.int64()),
            "ts": pa.array(ts),
        }
    )


def test_asof_join_many_keys(events):
    import ray.data

    from ulp_ray.stages.asof import asof_join

    tbl = events
    left_mask = np.arange(ROWS) % 2 == 0
    left_tbl = tbl.filter(pa.array(left_mask)).select(["user_id", "event_id", "ts"])
    right_tbl = (
        tbl.filter(pa.array(~left_mask))
        .select(["user_id", "ts"])
        .append_column("mark", pa.array(np.arange((~left_mask).sum()), pa.int64()))
    )
    out = asof_join(
        ray.data.from_arrow(left_tbl),
        ray.data.from_arrow(right_tbl),
        on="user_id",
        ts_col="ts",
    ).to_pandas()
    assert len(out) == left_tbl.num_rows
    # pandas oracle: global merge_asof by=key
    lp = left_tbl.to_pandas().sort_values("ts", kind="stable")
    rp = right_tbl.to_pandas().sort_values("ts", kind="stable")
    want = pd.merge_asof(lp, rp, on="ts", by="user_id", direction="backward")
    key = ["user_id", "event_id"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_series_equal(
        got["mark"].astype("float64"), want["mark"].astype("float64"), check_names=False
    )
    assert got["user_id"].nunique() > 8_000


def test_session_windows_many_keys(events):
    import ray.data

    from ulp_ray.stages.window import session_windows

    out = session_windows(
        ray.data.from_arrow(events.select(["user_id", "ts"])),
        "user_id",
        gap_s=1800,
    ).to_pandas()
    # pandas oracle
    df = events.select(["user_id", "ts"]).to_pandas().sort_values(["user_id", "ts"])
    gap = pd.Timedelta(seconds=1800)
    new_s = (df["user_id"].ne(df["user_id"].shift())) | (
        df["ts"].diff() > gap
    )
    df["sid"] = new_s.cumsum()
    want = (
        df.groupby("sid")
        .agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("ts", "size"),
        )
        .reset_index(drop=True)
    )
    key = ["user_id", "session_start"]
    got = out.sort_values(key).reset_index(drop=True)[want.columns.tolist()]
    want = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.astype({"n_events": got["n_events"].dtype}), check_dtype=False
    )
    assert got["user_id"].nunique() > 9_000


def test_turn_gaps_many_keys(events):
    import ray.data

    from ulp_ray.stages.conversation import turn_gaps

    adapted = pa.table(
        {
            "conv_id": events["user_id"].cast(pa.string()),
            "turn_idx": events["event_id"],
            "ts": events["ts"],
        }
    )
    out = turn_gaps(ray.data.from_arrow(adapted)).to_pandas()
    assert len(out) == ROWS
    df = adapted.to_pandas().sort_values(["conv_id", "turn_idx"])
    lag = df.groupby("conv_id", sort=False)["ts"].diff().dt.total_seconds()
    want = df.assign(gap_s=lag)
    key = ["conv_id", "turn_idx"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)[got.columns.tolist()]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_default_buckets_scales_with_cluster(ray_session):
    """buckets=None resolves to 4 x cluster CPUs when the row count is
    unknown, and to min(4 x CPUs, max(CPUs, ceil(rows / 250k))) when it
    is known: one bucket per core until a bucket would pass 250k rows,
    and never more than the unknown-count value."""
    import ray

    from ulp_ray.stages._bucket import _TARGET_ROWS_PER_BUCKET, resolve_buckets

    cpus = int(ray.cluster_resources().get("CPU", 0))
    assert resolve_buckets(None) == 4 * cpus
    assert resolve_buckets(None, 0) == cpus
    assert resolve_buckets(None, 1000) == cpus
    rows = (cpus + 1) * _TARGET_ROWS_PER_BUCKET
    assert resolve_buckets(None, rows) == cpus + 1
    assert resolve_buckets(None, rows + 1) == cpus + 2
    assert resolve_buckets(None, 4 * cpus * _TARGET_ROWS_PER_BUCKET) == 4 * cpus
    assert resolve_buckets(None, 10**12) == 4 * cpus


def test_resolve_buckets_rows_cap_and_pins(ray_session, tmp_path):
    """Bucket resolution is rows-aware when every input's row count is
    free (parquet metadata on an untransformed read, or a count the
    caller holds): a small table gets one bucket per CPU, not the 4 x
    CPUs of an unknown count. A transformed input (count unknown) is
    taken as large, 4 x CPUs, and an explicit buckets= always wins."""
    import pyarrow.parquet as pq
    import ray

    from ulp_ray.stages._bucket import _TARGET_ROWS_PER_BUCKET, resolve_buckets

    cpus = int(ray.cluster_resources().get("CPU", 0))
    pq.write_table(pa.table({"k": list(range(1000))}), tmp_path / "t.parquet")
    small = ray.data.read_parquet(str(tmp_path / "t.parquet"))

    # free metadata count (1000 rows) → one bucket per CPU
    assert resolve_buckets(None, small) == cpus
    # explicit always wins
    assert resolve_buckets(7, small) == 7
    assert resolve_buckets(1, small) == 1
    # transformed input → count unknown → 4 x CPUs
    mapped = small.map_batches(lambda b: b, batch_format="pyarrow")
    assert resolve_buckets(None, mapped) == 4 * cpus
    # any-unknown poisons the estimate (a sum would under-count)
    assert resolve_buckets(None, small, mapped) == 4 * cpus
    # the counts of all inputs add up: ceil(rows / target) past CPUs
    rows = (2 * cpus) * _TARGET_ROWS_PER_BUCKET

    class FakeDS:
        def _meta_count(self):
            return rows

    assert resolve_buckets(None, FakeDS()) == 2 * cpus
    assert resolve_buckets(None, FakeDS(), small) == 2 * cpus + 1
    assert resolve_buckets(None, FakeDS(), 1000) == 2 * cpus + 1
    # a large known count stops at the unknown-count value
    assert resolve_buckets(None, FakeDS(), rows, rows) == 4 * cpus


def test_bucket_count_never_changes_results(ray_session, monkeypatch):
    """co_group's promise: the bucket count moves rows between buckets
    and never changes results. Every operator gives the same sorted rows,
    types included, at 1, 3 and the derived bucket count, over null keys
    and int64 extremes."""
    import ray.data

    from ulp_ray.stages import _bucket, aggregate
    from ulp_ray.stages.asof import asof_join
    from ulp_ray.stages.conversation import turn_gaps
    from ulp_ray.stages.dedup import exact_dedup
    from ulp_ray.stages.join import (
        bucketed_anti_join,
        bucketed_hash_join,
        bucketed_semi_join,
    )

    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    keys = [lo, hi, None, 0, -1, 1, hi, None, lo, 7] * 3
    n = len(keys)
    t0 = np.datetime64("2024-01-01", "us")
    ts = t0 + (np.arange(n)[::-1] * 7 % n).astype("timedelta64[s]")
    left = pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "ts": pa.array(ts),
            "v": pa.array([None if i % 4 == 0 else i % 5 for i in range(n)], pa.int64()),
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array([lo, None, 1, hi, 5, lo], pa.int64()),
            "ts": pa.array(t0 + np.array([3, 0, 9, 30, 1, 20]).astype("timedelta64[s]")),
            "w": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
        }
    )
    convs = pa.table(
        {
            "conv_id": pa.array([None if k is None else str(k) for k in keys]),
            "turn_idx": pa.array(np.arange(n), pa.int64()),
            "ts": pa.array(ts),
        }
    )
    L = ray.data.from_arrow(left).repartition(3)
    R = ray.data.from_arrow(right)
    C = ray.data.from_arrow(convs).repartition(3)
    monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 0)
    derive = _bucket.resolve_buckets

    def topk(b):
        # fold_partials' co_group takes no bucket count: set the one it
        # derives
        monkeypatch.setattr(
            _bucket, "resolve_buckets", lambda x, *inputs: derive(b, *inputs)
        )
        try:
            return aggregate.grouped_topk(L, ["k"], "v", 2, tie_cols=["id"])
        finally:
            monkeypatch.setattr(_bucket, "resolve_buckets", derive)

    ops = {
        "turn_gaps": lambda b: turn_gaps(C, buckets=b),
        "exact_dedup": lambda b: exact_dedup(L, on="k", order_col="ts", buckets=b),
        "inner": lambda b: bucketed_hash_join(
            L, R.select_columns(["k", "w"]), on="k", buckets=b
        ),
        "semi": lambda b: bucketed_semi_join(L, R, on="k", buckets=b),
        "anti": lambda b: bucketed_anti_join(L, R, on="k", buckets=b),
        "asof": lambda b: asof_join(L, R, on="k", ts_col="ts", buckets=b),
        "grouped_topk": topk,
    }
    for name, op in ops.items():
        want = _sorted_rows(op(None))
        assert want.num_rows, name
        for b in (1, 3):
            assert _sorted_rows(op(b)).equals(want), (name, b)


def _sorted_rows(ds) -> pa.Table:
    """A Dataset's rows as one Arrow table sorted by every column (empty
    output blocks without columns skipped)."""
    import ray

    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    t = pa.concat_tables([b for b in blocks if b.num_rows])
    return t.sort_by([(c, "ascending") for c in t.column_names])
