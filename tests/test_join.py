"""Join strategies: broadcast, native hash-partitioned, explicit bucketed
— all three must produce identical results — and the many-to-one
lookup, whose two placements must too."""

import pandas as pd
import pyarrow as pa
import pytest

from ulp_ray.stages import aggregate
from ulp_ray.stages.join import broadcast_join, bucketed_hash_join, lookup_join


@pytest.fixture(scope="module")
def sides(ray_session):
    import ray.data

    orders = pa.table(
        {
            "o_orderkey": pa.array(range(100), pa.int64()),
            "o_custkey": pa.array([i % 7 for i in range(100)], pa.int64()),
            "o_total": pa.array([float(i) * 1.5 for i in range(100)]),
        }
    )
    cust = pa.table(
        {
            "o_custkey": pa.array(range(7), pa.int64()),
            "c_name": pa.array([f"cust-{i}" for i in range(7)]),
        }
    )
    return ray.data.from_arrow(orders).repartition(4), cust


def _expected(sides):
    orders_ds, cust = sides
    odf = pd.DataFrame({"o_orderkey": range(100), "o_custkey": [i % 7 for i in range(100)], "o_total": [float(i) * 1.5 for i in range(100)]})
    return odf.merge(cust.to_pandas(), on="o_custkey", how="inner").sort_values(
        "o_orderkey"
    ).reset_index(drop=True)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df[["o_orderkey", "o_custkey", "o_total", "c_name"]].sort_values(
        "o_orderkey"
    ).reset_index(drop=True)


def test_broadcast_join(sides):
    orders_ds, cust = sides
    out = broadcast_join(orders_ds, cust, on="o_custkey").to_pandas()
    pd.testing.assert_frame_equal(_norm(out), _expected(sides))


def test_bucketed_hash_join(sides, ray_session):
    import ray.data

    orders_ds, cust = sides
    cust_ds = ray.data.from_arrow(cust)
    out = bucketed_hash_join(orders_ds, cust_ds, on="o_custkey", buckets=8).to_pandas()
    pd.testing.assert_frame_equal(_norm(out), _expected(sides))


def test_native_dataset_join(sides, ray_session):
    import ray.data

    orders_ds, cust = sides
    cust_ds = ray.data.from_arrow(cust)
    out = orders_ds.join(
        cust_ds, join_type="inner", num_partitions=4, on=("o_custkey",)
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(out), _expected(sides))


def test_bucketed_join_rejects_column_overlap(sides, ray_session):
    import ray.data

    orders_ds, _ = sides
    with pytest.raises(ValueError, match="overlapping"):
        bucketed_hash_join(orders_ds, orders_ds, on="o_custkey")


def test_key_hash_canonicalization_properties():
    """The bucket hasher must assign the same hash to the same logical
    key regardless of the column's physical representation (int64 vs
    null-promoted float64, chunking) — hypothesis fuzz."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ulp_ray.stages._bucket import key_hash_u64

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(-(2**40), 2**40), st.none()),
            min_size=1,
            max_size=30,
        )
    )
    def prop(vals):
        no_null = [v if v is not None else 0 for v in vals]
        as_int = pa.array(no_null, pa.int64())
        as_float = pa.array([float(v) for v in no_null], pa.float64())
        with_null = pa.array(vals, pa.int64())  # forces the null path
        h_int = key_hash_u64(as_int)
        h_float = key_hash_u64(as_float)
        assert (h_int == h_float).all()  # int64 vs float64 same key
        # non-null positions hash the same whether or not the column
        # carries nulls (the null-promotion hazard)
        h_null = key_hash_u64(with_null)
        mask = np.array([v is not None for v in vals])
        assert (h_null[mask] == h_int[mask]).all()
        # chunked == contiguous
        if len(vals) > 1:
            chunked = pa.chunked_array([as_int[:1], as_int[1:]])
            assert (key_hash_u64(chunked) == h_int).all()

    prop()

    # beyond-2^53 regression (ADVICE r2): int64 keys that differ only in
    # bits below float64 precision must hash distinctly — snowflake-style
    # adjacent IDs previously collapsed through the float64 promotion,
    # correlating hash_split/deterministic_sample assignments
    base = 2**62 + 3
    big = pa.array([base + i for i in range(1000)], pa.int64())
    h_big = key_hash_u64(big)
    assert len(np.unique(h_big)) == 1000
    # and the exact-int path is consistent with/without nulls in the column
    big_null = pa.array([base, None, base + 1], pa.int64())
    h_bn = key_hash_u64(big_null)
    assert h_bn[0] == h_big[0] and h_bn[2] == h_big[1]
    # float64 columns holding integral values still co-locate with int64
    f = pa.array([5.0, -0.0, 2.0**40], pa.float64())
    i = pa.array([5, 0, 2**40], pa.int64())
    assert (key_hash_u64(f) == key_hash_u64(i)).all()


def test_bucketed_anti_join(sides, ray_session):
    import ray.data

    orders_ds, _ = sides
    # exclude three customer keys via a Dataset of ids (with a duplicate)
    excl = ray.data.from_arrow(
        pa.table({"bad_key": pa.array([1, 3, 3, 6], pa.int64())})
    )
    from ulp_ray.stages.join import bucketed_anti_join

    out = bucketed_anti_join(orders_ds, excl, on="o_custkey", right_on="bad_key")
    rows = out.take_all()
    assert rows and all(r["o_custkey"] not in (1, 3, 6) for r in rows)
    expect = [i for i in range(100) if i % 7 not in (1, 3, 6)]
    assert sorted(r["o_orderkey"] for r in rows) == expect
    # full row payload survives
    assert set(rows[0]) == {"o_orderkey", "o_custkey", "o_total"}


def test_bucketed_anti_join_null_keys(ray_session):
    """Containment semantics: a null left key is kept unless the right
    side contains a null (NOT SQL NOT IN's all-null poisoning)."""
    import ray.data

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, None], pa.int64()), "v": pa.array(list("abc"))})
    )
    right_no_null = ray.data.from_arrow(pa.table({"k": pa.array([2], pa.int64())}))
    right_null = ray.data.from_arrow(pa.table({"k": pa.array([2, None], pa.int64())}))
    from ulp_ray.stages.join import bucketed_anti_join

    keep = sorted(r["v"] for r in bucketed_anti_join(left, right_no_null, on="k").take_all())
    assert keep == ["a", "c"]
    keep2 = sorted(r["v"] for r in bucketed_anti_join(left, right_null, on="k").take_all())
    assert keep2 == ["a"]


def test_bucketed_anti_join_empty_right(sides, ray_session):
    import ray.data

    orders_ds, _ = sides
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    from ulp_ray.stages.join import bucketed_anti_join

    out = bucketed_anti_join(orders_ds, empty, on="o_custkey", right_on="k")
    assert out.count() == 100


def test_bucketed_semi_join(sides, ray_session):
    import ray.data

    from ulp_ray.stages.join import bucketed_semi_join

    orders_ds, _ = sides
    keep = ray.data.from_arrow(
        pa.table({"good_key": pa.array([1, 3, 3, None], pa.int64())})
    )
    out = bucketed_semi_join(orders_ds, keep, on="o_custkey", right_on="good_key")
    rows = out.take_all()
    assert rows and all(r["o_custkey"] in (1, 3) for r in rows)
    # no duplication: each left row appears once despite duplicate right keys
    base = [r for r in orders_ds.take_all() if r["o_custkey"] in (1, 3)]
    assert len(rows) == len(base)
    # EXISTS semantics: a null left key never matches, even with a null
    # right key present
    left_null = ray.data.from_arrow(
        pa.table({"o_custkey": pa.array([None, 1], pa.int64())})
    )
    got = bucketed_semi_join(left_null, keep, on="o_custkey", right_on="good_key").take_all()
    assert [r["o_custkey"] for r in got] == [1]


def test_outer_and_right_join_sql_null_semantics(ray_session):
    """FULL OUTER / RIGHT joins vs a DuckDB oracle, including NULL join
    keys — SQL: a null key matches NOTHING (pandas merge would pair NaN
    keys; the stage splits them out and preserves them unmatched)."""
    import duckdb
    import numpy as np
    import ray.data

    rng = np.random.default_rng(5)
    lk = [int(x) for x in rng.integers(0, 8, size=30)]
    rk = [int(x) for x in rng.integers(0, 8, size=10)]
    left = pa.table(
        {
            "k": pa.array(lk[:-2] + [None, None], pa.int64()),
            "lv": pa.array(range(30), pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array(rk[:-1] + [None], pa.int64()),
            "rv": pa.array(range(100, 110), pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    for how, sql in [
        (
            "outer",
            "SELECT COALESCE(l.k, r.k) AS k, l.lv, r.rv "
            "FROM l FULL JOIN r ON l.k = r.k",
        ),
        (
            "right",
            "SELECT r.k AS k, l.lv, r.rv FROM l RIGHT JOIN r ON l.k = r.k",
        ),
    ]:
        got = (
            bucketed_hash_join(
                ray.data.from_arrow(left),
                ray.data.from_arrow(right),
                on="k",
                how=how,
            )
            .to_pandas()
            .astype("float64")
            .sort_values(["k", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        want = (
            con.sql(sql)
            .df()
            .astype("float64")
            .sort_values(["k", "lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["k", "lv", "rv"]], want[["k", "lv", "rv"]], check_dtype=False
        )


def test_bucketed_hash_join_rejects_unknown_how(ray_session):
    import ray.data

    t = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError, match="how must be"):
        bucketed_hash_join(t, t, on="k", how="cross")


def _lookup_sides():
    """A left side with int64 keys near 2^53 and string keys, nulls in
    both, and a right side for each key holding a null key of its own."""
    big = 2**53
    left = pa.table(
        {
            "k": pa.array([big, big + 1, None, big, 7, big + 1], pa.int64()),
            "s": pa.array(["a", "b", None, "zz", "a", "c"]),
            "x": pa.array(range(6), pa.int64()),
        }
    )
    right = {
        "k": pa.table(
            {
                "k": pa.array([big + 1, big, None, 8], pa.int64()),
                "v": pa.array([2.5, 1.5, 9.0, 3.0]),
            }
        ),
        "s": pa.table(
            {
                "s": pa.array(["b", "a", None, "q"]),
                "w": pa.array([20, 10, 30, 40], pa.int32()),
            }
        ),
    }
    return left, right


def _lookup_regimes(monkeypatch, left, right, on, how):
    """``lookup_join``'s output, sorted by ``x``, with the right side
    collected on the driver and with it co-grouped (every right side,
    the empty one included, holds more than -1 rows)."""
    import ray

    out = []
    for bound in (aggregate.DRIVER_FOLD_MAX_ROWS, -1):
        with monkeypatch.context() as m:
            m.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", bound)
            ds = lookup_join(left, right, on, how=how).materialize()
        # an empty bucket's block has no columns
        blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
        out.append(pa.concat_tables(blocks).sort_by("x"))
    return out


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("on", ["k", "s"])
def test_lookup_join_regimes_match_duckdb(ray_session, monkeypatch, on, how):
    """Both placements give DuckDB's rows (a null key matches nothing,
    int64 keys past 2^53 stay apart) and the same types: left's columns
    followed by the right side's non-key column."""
    import duckdb
    import ray.data

    left, right = _lookup_sides()
    r = right[on]
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", r)
    val = r.column_names[1]
    join = "JOIN" if how == "inner" else "LEFT JOIN"
    want = con.execute(
        f"SELECT l.k, l.s, l.x, r.{val} FROM l {join} r ON l.{on} = r.{on} ORDER BY l.x"
    ).arrow()
    broadcast, exchange = _lookup_regimes(
        monkeypatch,
        ray.data.from_arrow(left).repartition(3),
        ray.data.from_arrow(r).repartition(2),
        on,
        how,
    )
    assert broadcast.schema == pa.schema(list(left.schema) + [r.schema.field(val)])
    assert broadcast.equals(exchange)
    assert broadcast.to_pylist() == want.to_pylist()


@pytest.mark.parametrize("how", ["inner", "left"])
def test_lookup_join_empty_right(ray_session, monkeypatch, how):
    """An empty right side with a schema matches nothing and adds its
    typed columns; one without a schema (the output of a fold that saw
    no rows) holds no keys and adds none."""
    import ray.data

    def nothing(batch):  # a map that emits no block: no schema either
        yield from ()

    left, right = _lookup_sides()
    lds = ray.data.from_arrow(left).repartition(3)
    typed = ray.data.from_arrow(right["k"].slice(0, 0))
    broadcast, exchange = _lookup_regimes(monkeypatch, lds, typed, "k", how)
    assert broadcast.equals(exchange)
    assert broadcast.schema == pa.schema(list(left.schema) + [right["k"].schema.field("v")])
    assert broadcast.num_rows == (0 if how == "inner" else 6)
    assert broadcast["v"].null_count == broadcast.num_rows

    bare = typed.map_batches(nothing, batch_format="pyarrow").materialize()
    assert bare.schema() is None
    out = lookup_join(lds, bare, "k", how=how).take_all()
    assert sorted(r["x"] for r in out) == ([] if how == "inner" else list(range(6)))
    assert all(set(r) == {"k", "s", "x"} for r in out)


def test_lookup_join_rejects_duplicate_and_mismatched_keys(ray_session, monkeypatch):
    """A key held twice by the right side and a key dtype mismatch raise
    ValueError in both placements (from the bucket task in the exchange
    one, which Ray Data re-raises as the task's own exception when
    ``raise_original_map_exception`` is set)."""
    import ray.data
    from ray.data import DataContext

    monkeypatch.setattr(DataContext.get_current(), "raise_original_map_exception", True)
    left, right = _lookup_sides()
    lds = ray.data.from_arrow(left).repartition(3)
    dup = ray.data.from_arrow(pa.concat_tables([right["k"], right["k"].slice(0, 1)]))
    as_double = ray.data.from_arrow(
        pa.table({"k": pa.array([1.0, 2.0]), "v": pa.array([1.5, 2.5])})
    )
    for bound in (aggregate.DRIVER_FOLD_MAX_ROWS, 0):
        monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", bound)
        with pytest.raises(ValueError, match="more than once"):
            lookup_join(lds, dup, "k").take_all()
        with pytest.raises(ValueError, match="dtype mismatch"):
            lookup_join(lds, as_double, "k").take_all()
    with pytest.raises(ValueError, match="how='inner'/'left'"):
        lookup_join(lds, dup, "k", how="outer")
