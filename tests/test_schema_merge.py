"""Conformance tests for the widening merge lattice (reference
type_casting/src/lib.rs:14-166 + tests.rs:7-67)."""

import pyarrow as pa
import pytest
from hypothesis import given, strategies as st

from ulp_ray.functions.casts import SemType as T
from ulp_ray.functions.schema_merge import (
    ListNode,
    ObjectNode,
    arrow_schema_from_json,
    arrow_schema_to_json,
    infer_table_node,
    infer_type,
    merge_types,
    type_node_to_arrow,
    unify_arrow_schemas,
)

from conformance_cases import MERGE_COMMUTATIVE_OBJECT_PAIRS


def test_null_absorbs():
    # tests.rs:59-67
    for t in (T.BOOL, T.INT, T.FLOAT, T.STR, T.IPV4, T.IPV6, T.DATE):
        assert merge_types(T.NULL, t) is t
        assert merge_types(t, T.NULL) is t


def test_numeric_ladder():
    assert merge_types(T.BOOL, T.INT) is T.INT
    assert merge_types(T.INT, T.FLOAT) is T.FLOAT
    assert merge_types(T.BOOL, T.FLOAT) is T.FLOAT
    assert merge_types(T.INT, T.STR) is T.STR
    assert merge_types(T.IPV4, T.IPV6) is T.STR


@pytest.mark.parametrize("a,b", MERGE_COMMUTATIVE_OBJECT_PAIRS)
def test_merge_commutative_on_reference_cases(a, b):
    # tests.rs:10-54: merge(a,b) == merge(b,a) on real JSON objects
    ta, tb = infer_type(a), infer_type(b)
    assert merge_types(ta, tb) == merge_types(tb, ta)


def test_reference_asymmetric_corners_documented():
    # lib.rs:117-146 ships a non-commutative table at these corners; we
    # reproduce it exactly rather than "fixing" it silently.
    assert merge_types(T.FLOAT, T.DATE) is T.FLOAT
    assert merge_types(T.DATE, T.FLOAT) is T.STR
    assert merge_types(T.FLOAT, T.IPV6) is T.FLOAT
    assert merge_types(T.IPV6, T.FLOAT) is T.STR


def test_object_merge_recursive():
    a = infer_type({"a": 1, "b": 2.0, "c": 1})
    b = infer_type({"a": 1, "b": "2.a", "c": "1.0.2.4"})
    m = merge_types(a, b)
    assert isinstance(m, ObjectNode)
    # "1" sniffs BOOL (str_bool int fallback); int+bool→int
    assert m["a"] is T.BOOL or m["a"] is T.INT
    assert m["b"] is T.STR
    # c: Int merged with IPv4 → Str
    assert m["c"] is T.STR


def test_list_scalar_merges_into_element_zero():
    lst = infer_type([1, 2.5])
    m = merge_types(lst, T.FLOAT)
    assert isinstance(m, ListNode)
    assert m[0] is T.FLOAT
    assert m[1] is T.FLOAT


def test_object_list_numeric_key_merge():
    obj = ObjectNode({"0": T.INT, "x": T.STR})
    lst = ListNode({0: T.FLOAT, 1: T.STR})
    m = merge_types(obj, lst)
    assert isinstance(m, ObjectNode)
    assert m["0"] is T.FLOAT  # merged
    assert "1" not in m  # unmatched list entries dropped (lib.rs:69-86)


_scalars = st.sampled_from([T.NULL, T.BOOL, T.INT, T.FLOAT, T.STR])


@given(_scalars, _scalars, _scalars)
def test_associative_on_commutative_core(a, b, c):
    # the Null/Bool/Int/Float/Str core IS a lattice: associativity holds
    assert merge_types(merge_types(a, b), c) == merge_types(a, merge_types(b, c))


def test_arrow_projection():
    node = infer_type({"n": 1, "f": 2.5, "s": "hello world", "lst": [1, 2]})
    t = type_node_to_arrow(node)
    assert t == pa.struct(
        [
            pa.field("f", pa.float64()),
            pa.field("lst", pa.list_(pa.int64())),
            pa.field("n", pa.int64()),
            pa.field("s", pa.string()),
        ]
    )


def test_unify_arrow_schemas_widens():
    s1 = pa.schema([("a", pa.int64()), ("b", pa.string())])
    s2 = pa.schema([("a", pa.float64()), ("c", pa.timestamp("us"))])
    u = unify_arrow_schemas([s1, s2])
    assert u.field("a").type == pa.float64()
    assert u.field("b").type == pa.string()
    assert u.field("c").type == pa.timestamp("us")


def test_schema_json_roundtrip():
    s = pa.schema([("a", pa.int64()), ("b", pa.string()), ("t", pa.timestamp("us"))])
    assert arrow_schema_from_json(arrow_schema_to_json(s)) == s


# ---------------------------------------------------------------------------
# infer_table_node: the column-wise form of the row-wise fold
# ---------------------------------------------------------------------------

_SNIFFED = [
    "", " ", "null", "NULL", "0", "1", "true", "False", "0x1F", "0xZZ", "12",
    "-3", "1.5", "nan", "inf", "1e3", "1.2.3.4", "010.1.1.1", "256.1.1.1",
    "::1", "2001:db8::1", "::ffff:1.2.3.4", "2026-01-01T00:00:00+00:00",
    "2026-01-01T00:00:00Z", "2026-01-01", "2026-01-01T00:00:00", "hello",
]


def _column_kinds():
    from datetime import timezone

    text = st.one_of(st.sampled_from(_SNIFFED), st.text(max_size=6))
    small = st.one_of(st.none(), st.integers(-5, 5))
    return {
        "bool": (st.booleans(), pa.bool_()),
        "int64": (st.integers(-(2**63), 2**63 - 1), pa.int64()),
        "int8": (st.integers(-128, 127), pa.int8()),
        "uint32": (st.integers(0, 2**32 - 1), pa.uint32()),
        "float64": (st.floats(allow_nan=True, allow_infinity=True), pa.float64()),
        "float32": (st.floats(width=32), pa.float32()),
        "ts": (st.datetimes(), pa.timestamp("us")),
        "ts_utc": (
            st.datetimes(timezones=st.just(timezone.utc)),
            pa.timestamp("us", tz="UTC"),
        ),
        "string": (text, pa.string()),
        "large_string": (text, pa.large_string()),
        "null": (st.none(), pa.null()),
        "list": (st.lists(small, max_size=3), pa.list_(pa.int64())),
        "struct": (
            st.fixed_dictionaries({"a": st.one_of(st.none(), text), "b": small}),
            pa.struct([("a", pa.string()), ("b", pa.int64())]),
        ),
        "date32": (st.dates(), pa.date32()),
    }


_KINDS = _column_kinds()


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4))
    cols = {}
    for i, kind in enumerate(kinds):
        values, typ = _KINDS[kind]
        nulls = draw(st.sampled_from([st.none(), st.one_of(st.none(), values), values]))
        cols[f"{kind}_{i}"] = pa.array(draw(st.lists(nulls, min_size=n, max_size=n)), typ)
    tbl = pa.table(cols)
    cut = draw(st.integers(0, n))  # several chunks, as a concatenated sample
    return pa.concat_tables([tbl.slice(0, cut), tbl.slice(cut)])


def _row_wise(tbl: pa.Table):
    from functools import reduce

    return reduce(merge_types, map(infer_type, tbl.to_pylist()))


@given(_tables())
def test_infer_table_node_equals_row_wise_fold(tbl):
    try:
        want = _row_wise(tbl)
    except TypeError:
        with pytest.raises(TypeError):
            infer_table_node(tbl)
        return
    got = infer_table_node(tbl)
    assert got == want
    assert repr(got) == repr(want)  # key order too: it is the sidecar's order


def test_infer_table_node_corners():
    # the lattice is not commutative: the fold keeps row order
    t = pa.table({"s": ["1.2.3.4", "2026-01-01T00:00:00+00:00"]})
    assert infer_table_node(t) == _row_wise(t) == ObjectNode({"s": T.DATE})
    t = pa.table({"s": ["2026-01-01T00:00:00+00:00", "1.2.3.4"]})
    assert infer_table_node(t) == _row_wise(t) == ObjectNode({"s": T.STR})
    # a repeated name keeps its first position and last column
    t = pa.Table.from_arrays(
        [pa.array([None, None], pa.date32()), pa.array([1, 2]), pa.array(["x", "y"])],
        names=["a", "b", "a"],
    )
    assert repr(infer_table_node(t)) == repr(_row_wise(t))
    with pytest.raises(TypeError):
        infer_table_node(pa.table({"d": pa.array([None, 1], pa.date32())}))
    with pytest.raises(TypeError):
        infer_table_node(pa.table({"s": pa.array([], pa.string())}))


@pytest.mark.parametrize(
    "typ",
    [pa.date32(), pa.decimal128(10, 2), pa.string(), pa.list_(pa.int64()), pa.int64()],
)
def test_all_null_column_infers_null_without_its_values(typ, monkeypatch):
    """An all-null column is Null whatever its type, found from its null
    count: no value is converted or inferred."""
    from ulp_ray.functions import schema_merge

    def no_values(v):
        raise AssertionError(f"value {v!r} inferred")

    monkeypatch.setattr(schema_merge, "infer_type", no_values)
    monkeypatch.setattr(schema_merge, "sniff_str", no_values)
    tbl = pa.table({"c": pa.chunked_array([pa.nulls(2, typ), pa.nulls(3, typ)])})
    assert infer_table_node(tbl) == ObjectNode({"c": T.NULL})


def test_date32_and_decimal_raise_only_with_a_value():
    from datetime import date
    from decimal import Decimal

    cases = ((pa.date32(), date(2026, 1, 1)), (pa.decimal128(10, 2), Decimal("1.5")))
    for typ, value in cases:
        all_null = pa.table({"c": pa.nulls(3, typ)})
        assert infer_table_node(all_null) == ObjectNode({"c": T.NULL})
        with pytest.raises(TypeError):
            infer_table_node(pa.table({"c": pa.array([None, value, None], typ)}))
