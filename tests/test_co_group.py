"""``co_group``: the one hash-bucket co-group every bucketed stage uses."""

import pandas as pd
import pyarrow as pa
import pytest

from ulp_ray.stages._bucket import co_group


def _tables(ds) -> list[pa.Table]:
    import ray

    return ray.get(ds.to_arrow_refs())


def test_int_key_with_nulls_meets_its_float_twin(ray_session):
    """An int64 key with nulls on one side and the same keys as
    float64-with-NaN on the other (what a pandas round trip makes of
    it) land in the same bucket call: every key meets its twin."""
    import ray.data

    left = pa.table(
        {"k": pa.array([1, 2, None, 2**40, 7], pa.int64()), "a": list("vwxyz")}
    )
    right = pa.table({"k": [1.0, 2.0, float("nan"), float(2**40), 7.0]})

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lk = sorted(str(v) for v in lt["k"].to_pylist())
        rk = sorted(str(None if v != v else int(v)) for v in rt["k"].to_pylist())
        return pa.table(
            {
                "l": [",".join(lk)],
                "r": [",".join(rk)],
                "ltype": [str(lt.schema.field("k").type)],
                "rtype": [str(rt.schema.field("k").type)],
            }
        )

    out = co_group(
        [ray.data.from_arrow(left), ray.data.from_arrow(right)], ["k"], fn, 16
    ).to_pandas()
    assert (out["l"] == out["r"]).all(), out
    assert sorted(",".join(out["l"]).split(",")) == sorted(
        str(v) for v in left["k"].to_pylist()
    )
    assert set(out["ltype"]) == {"int64"} and set(out["rtype"]) == {"double"}


def test_input_without_rows_in_a_bucket_arrives_typed_and_empty(ray_session):
    """A bucket that holds only left rows still calls ``fn`` with a
    right table: zero rows, the right input's own columns and types."""
    import ray.data

    left = pa.table({"k": pa.array(range(40), pa.int64())})
    right = pa.table(
        {
            "k": pa.array([3], pa.int64()),
            "ts": pa.array([0], pa.timestamp("us")),
            "tag": pa.array(["x"], pa.string()),
        }
    )

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table(
            {"n_left": [lt.num_rows], "n_right": [rt.num_rows], "rschema": [str(rt.schema)]}
        )

    out = co_group(
        [ray.data.from_arrow(left), ray.data.from_arrow(right)], ["k"], fn, 8
    ).to_pandas()
    assert out["n_left"].sum() == 40 and out["n_right"].sum() == 1
    empty = out[out["n_right"] == 0]
    assert len(empty) >= 1
    assert set(empty["rschema"]) == {str(right.schema)}


@pytest.mark.parametrize("returns", ["arrow", "pandas"])
def test_output_schema_carries_no_metadata(ray_session, returns):
    """Input blocks with ``b'pandas'`` metadata, and a pandas return that
    ``from_pandas`` would tag again: the output blocks carry none (a
    metadata dict makes Ray's schema dedup fail to hash)."""
    import ray.data

    df = pd.DataFrame({"k": [1, 2, 3, 4], "v": [0.5, 1.5, 2.5, 3.5]})
    tbl = pa.Table.from_pandas(df)
    assert tbl.schema.metadata  # the input does carry it

    def fn(t: pa.Table):
        return t if returns == "arrow" else t.to_pandas()

    out = _tables(co_group([ray.data.from_arrow(tbl)], ["k"], fn, 4))
    assert sum(t.num_rows for t in out) == 4
    assert all(t.schema.metadata is None for t in out)
