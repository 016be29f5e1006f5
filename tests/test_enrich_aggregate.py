"""Enrich (broadcast taxonomy) + partial-count aggregation unit tests."""

import pyarrow as pa

from ulp_ray.stages.aggregate import partial_counts_fn
from ulp_ray.stages.enrich import DEFAULT_TAXONOMY, Enricher, enrich_batch


def test_enrich_batch_lookup():
    batch = pa.table(
        {
            "role": ["user", "assistant", "tool", "ghost"],
            "tool": ["", "bash", "read", "wand"],
        }
    )
    out = enrich_batch(batch, DEFAULT_TAXONOMY)
    assert out["role_class"].to_pylist() == ["human", "model", "infra", "unknown"]
    assert out["tool_class"].to_pylist() == ["none", "exec", "retrieval", "unknown"]


def test_enricher_plain_construction():
    # actor __init__ errors surface late in Ray — smoke the class directly
    e = Enricher()
    batch = pa.table({"role": ["system"], "tool": ["edit"]})
    out = e(batch)
    assert out["role_class"].to_pylist() == ["infra"]
    assert out["tool_class"].to_pylist() == ["mutation"]


def test_partial_counts_fn():
    batch = pa.table(
        {
            "rule": ["a", "a", "b", "a"],
            "tool": ["t", "t", "t", "u"],
            "role": ["r", "r", "r", "r"],
            "payload": [1, 2, 3, 4],
        }
    )
    out = partial_counts_fn(["rule", "tool", "role"])(batch)
    got = {(r["rule"], r["tool"], r["role"]): r["n"] for r in out.to_pylist()}
    assert got == {("a", "t", "r"): 2, ("b", "t", "r"): 1, ("a", "u", "r"): 1}
    assert out.column_names == ["rule", "tool", "role", "n"]


def test_salted_sum_matches_plain(ray_session):
    import numpy as np
    import ray.data

    from ulp_ray.stages.aggregate import salted_sum

    rng = np.random.default_rng(1)
    t = pa.table(
        {
            "k": pa.array(np.array(["hot"] * 5000 + ["a", "b"] * 100)),
            "n": pa.array(np.ones(5200, dtype=np.int64)),
        }
    )
    out = salted_sum(ray.data.from_arrow(t).repartition(4), ["k"], "n", salt=8)
    got = {r["k"]: r["n"] for r in out.take_all()}
    assert got == {"hot": 5000, "a": 100, "b": 100}

    # a null key is one group, as in SQL GROUP BY
    tn = pa.table(
        {
            "k": pa.array(["x", None, "x", None, None, "y"]),
            "n": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        }
    )
    out = salted_sum(ray.data.from_arrow(tn).repartition(3), ["k"], "n", salt=2)
    assert {r["k"]: r["n"] for r in out.take_all()} == {"x": 4, None: 11, "y": 6}


def _sorted_table(ds) -> pa.Table:
    """A Dataset's rows as one Arrow table, sorted by every column (a
    shuffle's empty output blocks may carry no columns: skipped)."""
    import ray

    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    t = pa.concat_tables([b for b in blocks if b.num_rows] or blocks[:1])
    return t.sort_by([(c, "ascending") for c in t.column_names]) if t.num_rows else t


def test_distributed_fold_matches_driver_fold(ray_session, monkeypatch):
    """Every combiner rollup gives the same rows, types included, when
    its partials fold per co_group bucket as when they fold on the
    driver — with null string and null int keys, and on empty input."""
    import datetime as dt

    import ray.data

    from ulp_ray.stages import aggregate
    from ulp_ray.stages.conversation import conversation_stats
    from ulp_ray.stages.vocab import vocabulary

    t0 = dt.datetime(2024, 1, 1)
    t = pa.table(
        {
            "k": pa.array(["a", None, "b", "a", None, "c", "b", "a", None]),
            "i": pa.array([1, None, 2, 1, None, 3, None, 1, 5], pa.int64()),
            "v": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9], pa.int64()),
            "x": pa.array([1, 4, 2, 7, 3, 5, None, 2, 8], pa.int64()),
            "y": pa.array([2, 1, 3, 5, 9, 4, 6, None, 7], pa.int64()),
            "role": pa.array(
                ["user", "tool", "tool", None, "user", "tool", "user", "tool", "user"]
            ),
            "ts": pa.array(
                [t0 + dt.timedelta(seconds=s) for s in (5, 1, 9, 2, 7, 3, 8, 4, 6)],
                pa.timestamp("us"),
            ),
            "text": pa.array(
                ["a b", "b c c", None, "a", "", "c a", "b b", "d", "a d"]
            ),
        }
    )
    ops = {
        "count_rollup": lambda ds: aggregate.count_rollup(ds, ["k", "i"]),
        "sum_rollup": lambda ds: aggregate.sum_rollup(ds, ["k"], ["v"], count_col="n"),
        "sum_rollup_no_count": lambda ds: aggregate.sum_rollup(
            ds, ["i"], ["v", "x"], count_col=None
        ),
        "grouped_corr": lambda ds: aggregate.grouped_corr(ds, ["k"], "x", "y"),
        "grouped_topk": lambda ds: aggregate.grouped_topk(ds, ["k"], "v", 2),
        "conversation_stats": lambda ds: conversation_stats(
            ds.rename_columns({"k": "conv_id"})
        ),
        "pivot_counts": lambda ds: aggregate.pivot_counts(
            ds, ["k", "i"], "role", ["user", "tool"]
        ),
        "vocabulary": lambda ds: vocabulary(ds, "text"),
    }
    for data in (t, t.slice(0, 0)):
        ds = ray.data.from_arrow(data).repartition(3)
        driver = {name: _sorted_table(op(ds)) for name, op in ops.items()}
        monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 0)
        for name, op in ops.items():
            assert _sorted_table(op(ds)).equals(driver[name]), name  # schema too
        monkeypatch.undo()
    assert driver["count_rollup"].num_rows == 0  # the empty input's round


def test_remote_env_cwd_detection(monkeypatch, tmp_path):
    from ulp_ray import _env

    monkeypatch.chdir(_env.package_root())
    assert _env.remote_env() == {}
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    env = _env.remote_env()
    assert _env.package_root() in env["runtime_env"]["env_vars"]["PYTHONPATH"]


def test_enrich_null_role_tool_maps_unknown():
    batch = pa.table(
        {
            "role": pa.array(["user", None]),
            "tool": pa.array([None, "bash"]),
        }
    )
    out = enrich_batch(batch, DEFAULT_TAXONOMY)
    assert out["role_class"].to_pylist() == ["unknown", "unknown"]
    assert out["tool_class"].to_pylist() == ["unknown", "unknown"]


def test_rollup_counts_matches_duckdb(ray_session):
    """GROUP BY ROLLUP: all prefix levels + grand total, with real NULL
    data values coinciding with padded rollup nulls (SQL's own
    ambiguity) — multiset-equal to the DuckDB twin."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.aggregate import rollup_counts

    rng = np.random.default_rng(4)
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 3, 1000), pa.int64()),
            "b": pa.array(
                [None if x == 0 else f"s{x}" for x in rng.integers(0, 4, 1000)],
                pa.string(),
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    got = rollup_counts(ds, ["a", "b"]).to_pandas()
    exp = (
        duckdb.connect()
        .execute(
            "SELECT a, b, COUNT(*) AS n FROM t GROUP BY ROLLUP(a, b)"
        )
        .df()
    )

    def norm(df):
        rows = []
        for row in df.itertuples(index=False):
            rows.append(
                tuple(
                    "N"
                    if (v is None or (isinstance(v, float) and v != v))
                    else v
                    for v in row
                )
            )
        return sorted(rows, key=str)

    assert norm(got) == norm(exp)
    # no-total variant drops exactly one row (the grand total)
    no_tot = rollup_counts(ds, ["a", "b"], total_row=False).to_pandas()
    assert len(no_tot) == len(got) - 1

    import pytest

    with pytest.raises(ValueError, match="at least one key"):
        rollup_counts(ds, [])
