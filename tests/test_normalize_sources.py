"""Normalize-to-schema stage, NDJSON round-trip, schema rollup aggregate."""

import os

import pyarrow as pa
import pytest

from ulp_ray.functions.casts import SemType as T
from ulp_ray.stages.normalize import cast_column, normalize_to_schema


def test_cast_column_int_to_float_saturates():
    col = pa.array([5, 2**31, -(2**31) - 5], pa.int64())
    out = cast_column(col, pa.float64())
    assert out.to_pylist() == [5.0, float(2**31 - 1), float(-(2**31))]


def test_cast_column_float_to_int_half_away():
    col = pa.array([0.5, 1.5, 2.5, -0.5, -2.5, 2.4])
    out = cast_column(col, pa.int64())
    assert out.to_pylist() == [1, 2, 3, -1, -3, 2]


def test_cast_column_bool_str_round_trip():
    assert cast_column(pa.array([True, False]), pa.string()).to_pylist() == [
        "true",
        "false",
    ]
    assert cast_column(pa.array(["true", "FALSE", "1", "0", "x"]), pa.bool_()).to_pylist() == [
        True,
        False,
        True,
        False,
        None,
    ]


def test_normalize_to_schema(ray_session):
    import ray.data

    ds = ray.data.from_arrow(
        pa.table({"a": pa.array([1, 2], pa.int64()), "b": pa.array(["1.5", "x"])})
    )
    target = pa.schema([("a", pa.float64()), ("b", pa.string()), ("c", pa.int64())])
    out = normalize_to_schema(ds, target).take_all()
    assert out == [
        {"a": 1.0, "b": "1.5", "c": None},
        {"a": 2.0, "b": "x", "c": None},
    ]


def test_normalize_strict_errors_on_unknown(ray_session):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"a": [1], "zz": [2]}))
    target = pa.schema([("a", pa.int64())])
    with pytest.raises(Exception):
        normalize_to_schema(ds, target, strict=True).take_all()


def test_ndjson_round_trip(ray_session, tmp_path):
    import ray.data

    from ulp_ray.sources import read_ndjson, write_ndjson

    t = pa.table({"x": [1, 2, 3], "s": ["a", "b", "c"]})
    out = str(tmp_path / "nd")
    write_ndjson(ray.data.from_arrow(t), out)
    back = read_ndjson(out).take_all()
    assert sorted(r["x"] for r in back) == [1, 2, 3]


def test_read_transcripts_prunes(ray_session, tmp_path):
    from ulp_ray.fixtures import write_transcripts
    from ulp_ray.sources import read_transcripts

    d = str(tmp_path / "t")
    write_transcripts(d, 500, n_files=2)
    ds = read_transcripts(d, columns=["conv_id", "text"])
    assert set(ds.schema().names) == {"conv_id", "text"}
    assert ds.count() == 500


def test_schema_rollup_partials(ray_session):
    import ray.data

    from ulp_ray.functions.casts import SemType
    from ulp_ray.functions.schema_merge import ObjectNode
    from ulp_ray.stages.aggregate import schema_rollup_partials

    t = pa.table(
        {
            "route": ["a", "a", "b"],
            "v": [1, 2, 3],
            "s": ["x", "2.5", "hello world"],
        }
    )
    merged = schema_rollup_partials(ray.data.from_arrow(t).repartition(2))
    assert set(merged) == {"a", "b"}
    node_a = merged["a"]
    assert isinstance(node_a, ObjectNode)
    assert node_a["v"] is SemType.INT
    # 'x'/'2.5' sniff to STR/FLOAT -> widened to STR across rows
    assert node_a["s"] in (SemType.STR,)


def test_schema_rollup_partials_null_route(ray_session):
    """A null route value is its own group, not an empty sample that fails
    the whole call."""
    import ray.data

    from ulp_ray.functions.casts import SemType
    from ulp_ray.stages.aggregate import schema_rollup_partials

    t = pa.table({"route": ["a", None], "x": [1, 2]})
    merged = schema_rollup_partials(ray.data.from_arrow(t))
    assert set(merged) == {"a", None}
    assert merged["a"]["x"] is SemType.INT and merged[None]["x"] is SemType.INT
    assert merged[None]["route"] is SemType.NULL


def test_cast_column_nan_inf_to_null():
    import math

    col = pa.array([1.5, math.nan, math.inf, -2.5])
    out = cast_column(col, pa.int64())
    assert out.to_pylist() == [2, None, None, -3]


def test_cast_column_str_bool_hex_fallback():
    out = cast_column(pa.array(["0x1", "+1", "true", "x"]), pa.bool_())
    assert out.to_pylist() == [True, True, True, None]


def test_compact_route_preserves_rows(ray_session, tmp_path):
    import glob as g

    import pyarrow.parquet as pq2
    import ray.data

    from ulp_ray.stages.compact import compact_route

    d = str(tmp_path / "route=x")
    os.makedirs(d)
    # many small files
    for i in range(6):
        pq2.write_table(
            pa.table({"a": list(range(i * 10, i * 10 + 10))}),
            os.path.join(d, f"part-{i:03d}.parquet"),
        )
    n_files = compact_route(d, target_rows=25)
    files = sorted(g.glob(os.path.join(d, "*.parquet")))
    # roll when a file reaches >=25 rows: 10-row batches pack 3 per file
    assert len(files) == n_files == 2
    vals = sorted(pq2.read_table(d)["a"].to_pylist())
    assert vals == list(range(60))


def test_compact_run_recovers_midswap_crash(ray_session, tmp_path):
    """A crash between the two os.replace calls leaves only
    route=<x>.pre-compact; compact_run must restore + compact it, not
    strand the rows."""
    import glob as g

    import pyarrow.parquet as pq2

    from ulp_ray.stages.compact import compact_run

    run = tmp_path / "run"
    pdir = run / "sinks" / "partition=0"
    backup = pdir / "route=x.pre-compact"
    os.makedirs(backup)
    for i in range(3):
        pq2.write_table(
            pa.table({"a": list(range(i * 10, i * 10 + 10))}),
            os.path.join(backup, f"part-{i:03d}.parquet"),
        )
    out = compact_run(str(run), target_rows=100)
    live = os.path.join(pdir, "route=x")
    assert os.path.isdir(live) and not os.path.isdir(str(backup))
    assert sorted(pq2.read_table(live)["a"].to_pylist()) == list(range(30))
    assert out == {os.path.join("sinks", "partition=0", "route=x"): 1}


def test_read_parquet_evolved_schema_drift(ray_session, tmp_path):
    """Files written over time with drifting schemas (added column,
    int->float widening) read as ONE dataset under the widened schema."""
    import pyarrow.parquet as pq2

    from ulp_ray.sources.io import read_parquet_evolved

    d = tmp_path / "drift"
    d.mkdir()
    pq2.write_table(
        pa.table({"id": pa.array([1, 2], pa.int64()), "v": pa.array([1, 2], pa.int64())}),
        d / "old.parquet",
    )
    pq2.write_table(
        pa.table(
            {
                "id": pa.array([3], pa.int64()),
                "v": pa.array([3.5], pa.float64()),  # widened
                "extra": pa.array(["x"], pa.string()),  # added later
            }
        ),
        d / "new.parquet",
    )
    out = read_parquet_evolved(str(d)).to_pandas().sort_values("id")
    assert out["v"].tolist() == [1.0, 2.0, 3.5]  # int widened to float
    assert out["extra"].tolist()[:2] == [None, None]  # old files -> null
    assert out["extra"].tolist()[2] == "x"
    # column pruning still works across the drift
    pruned = read_parquet_evolved(str(d), columns=["id", "extra"]).to_pandas()
    assert sorted(pruned.columns) == ["extra", "id"]


def test_read_parquet_evolved_all_absent_column(ray_session, tmp_path):
    """Requesting a column no file has yet returns nulls (the evolution
    contract), and pruning reads narrow even for the null-only files."""
    import pyarrow.parquet as pq2

    from ulp_ray.sources.io import read_parquet_evolved

    d = tmp_path / "drift2"
    d.mkdir()
    pq2.write_table(
        pa.table({"id": pa.array([1, 2], pa.int64())}), d / "a.parquet"
    )
    out = read_parquet_evolved(str(d), columns=["id", "future"]).to_pandas()
    assert out["future"].isna().all() and len(out) == 2


def test_read_parquet_evolved_no_i32_clamp(ray_session, tmp_path):
    """Widening int64 -> float64 must NOT clamp to i32 (the cast
    matrix's saturation is conformance behavior, not for this reader)."""
    import pyarrow.parquet as pq2

    from ulp_ray.sources.io import read_parquet_evolved

    d = tmp_path / "drift3"
    d.mkdir()
    big = 2**40
    pq2.write_table(
        pa.table({"id": pa.array([1], pa.int64()), "v": pa.array([big], pa.int64())}),
        d / "a.parquet",
    )
    pq2.write_table(
        pa.table({"id": pa.array([2], pa.int64()), "v": pa.array([0.5], pa.float64())}),
        d / "b.parquet",
    )
    out = read_parquet_evolved(str(d)).to_pandas().sort_values("id")
    assert out["v"].tolist() == [float(big), 0.5]


def test_read_parquet_evolved_only_absent_columns(ray_session, tmp_path):
    """Requesting ONLY columns this generation lacks reads a narrow
    anchor column and yields all-null rows of the right length."""
    import pyarrow.parquet as pq2

    from ulp_ray.sources.io import read_parquet_evolved

    d = tmp_path / "drift4"
    d.mkdir()
    pq2.write_table(
        pa.table(
            {
                "text": pa.array(["long payload"] * 3, pa.string()),
                "id": pa.array([1, 2, 3], pa.int64()),
            }
        ),
        d / "a.parquet",
    )
    out = read_parquet_evolved(str(d), columns=["future"]).to_pandas()
    assert len(out) == 3 and out["future"].isna().all()
