"""Dynamic schema inference + the widening merge lattice.

Reproduces the reference's ``Types`` tree and its pairwise merge
(``/root/reference/type_casting/src/types.rs:8-57`` for inference,
``type_casting/src/lib.rs:14-166`` for the merge table), re-implemented as
a small pure-Python structure so per-block partial schemas can be folded
associatively (tree-reduce / groupby) with **no shared mutex** — the
reference instead locks one ``Arc<Mutex<Mapping>>`` per record
(``src/evtx.rs:55-64``), its scalability ceiling.

Merge-table quirks preserved verbatim (and covered by conformance tests):
- ``Null`` absorbs into everything; numeric ladder Bool<Int<Float;
  anything+Str→Str; IPv4+IPv6→Str.
- Asymmetries the reference ships: ``(Float, IPv6)→Float`` and
  ``(Float, Date)→Float`` but ``(Date, Float)→Str`` / ``(IPv6, Float)→Str``
  — the lattice is NOT fully commutative at those corners
  (``lib.rs:117-123``). The reference's own commutativity tests
  (``type_casting/src/tests.rs:10-54``) avoid those corners; ours assert
  commutativity on the same cases and document the corners separately.
- ``Object`` merged with ``List`` merges the list's numeric keys into the
  object's string keys (``lib.rs:69-86``); ``List`` merged with a scalar
  folds the scalar into element 0 (``lib.rs:88-98``).

Also provides the Arrow projection: ``type_node_to_arrow`` /
``unify_arrow_schemas`` (per-sink schema capture — the analog of the
reference's per-route ``index_pattern_mappings``) and
``arrow_schema_to_json`` (the analog of the ES mapping renderer,
``src/elastic.rs:38-66``).
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Any, Union

import pyarrow as pa

from .casts import SemType, sniff_str

__all__ = [
    "TypeNode",
    "ListNode",
    "ObjectNode",
    "infer_type",
    "infer_table_node",
    "merge_types",
    "type_node_to_arrow",
    "sem_type_to_arrow",
    "unify_arrow_schemas",
    "arrow_schema_to_json",
    "arrow_schema_from_json",
]


class ListNode(dict):
    """List type: position → element TypeNode (reference keeps a
    ``BTreeMap<usize, Types>`` per list — positional, sparse)."""

    __slots__ = ()


class ObjectNode(dict):
    """Object type: key → TypeNode."""

    __slots__ = ()


TypeNode = Union[SemType, ListNode, ObjectNode]


def infer_type(v: Any) -> TypeNode:
    """Infer the reference's dynamic type for one JSON-ish value
    (``Types::get_type``, ``types.rs:29-57``). Strings are sniffed."""
    if v is None:
        return SemType.NULL
    if isinstance(v, bool):
        return SemType.BOOL
    if isinstance(v, int):
        return SemType.INT
    if isinstance(v, float):
        return SemType.FLOAT
    if isinstance(v, str):
        return sniff_str(v)
    if isinstance(v, datetime):
        return SemType.DATE
    if isinstance(v, (list, tuple)):
        return ListNode({i: infer_type(x) for i, x in enumerate(v)})
    if isinstance(v, dict):
        return ObjectNode({str(k): infer_type(x) for k, x in v.items()})
    raise TypeError(f"cannot infer type of {type(v)}")


# the scalar merge table, transcribed from lib.rs:99-160 (left, right) → out.
# Only non-identity, non-container entries; identity handled generically.
_S = SemType
_SCALAR_MERGE: dict[tuple[SemType, SemType], SemType] = {
    # (Null, b) => b handled generically
    (_S.BOOL, _S.NULL): _S.BOOL,
    (_S.BOOL, _S.INT): _S.INT,
    (_S.BOOL, _S.FLOAT): _S.FLOAT,
    (_S.BOOL, _S.STR): _S.STR,
    (_S.BOOL, _S.IPV4): _S.STR,
    (_S.BOOL, _S.IPV6): _S.STR,
    (_S.BOOL, _S.DATE): _S.STR,
    (_S.INT, _S.NULL): _S.INT,
    (_S.INT, _S.BOOL): _S.INT,
    (_S.INT, _S.FLOAT): _S.FLOAT,
    (_S.INT, _S.STR): _S.STR,
    (_S.INT, _S.IPV4): _S.STR,
    (_S.INT, _S.IPV6): _S.STR,
    (_S.INT, _S.DATE): _S.STR,
    (_S.FLOAT, _S.NULL): _S.FLOAT,
    (_S.FLOAT, _S.BOOL): _S.FLOAT,
    (_S.FLOAT, _S.INT): _S.FLOAT,
    (_S.FLOAT, _S.STR): _S.STR,
    (_S.FLOAT, _S.IPV4): _S.STR,
    (_S.FLOAT, _S.IPV6): _S.FLOAT,  # reference asymmetry, lib.rs:122
    (_S.FLOAT, _S.DATE): _S.FLOAT,  # reference asymmetry, lib.rs:123
    (_S.IPV4, _S.NULL): _S.IPV4,
    (_S.IPV4, _S.BOOL): _S.STR,
    (_S.IPV4, _S.INT): _S.STR,
    (_S.IPV4, _S.FLOAT): _S.STR,
    (_S.IPV4, _S.IPV6): _S.STR,
    (_S.IPV4, _S.DATE): _S.DATE,  # falls through (IPv4, b) => b, lib.rs:131
    (_S.IPV4, _S.STR): _S.STR,
    (_S.IPV6, _S.NULL): _S.IPV6,
    (_S.IPV6, _S.BOOL): _S.STR,
    (_S.IPV6, _S.INT): _S.STR,
    (_S.IPV6, _S.FLOAT): _S.STR,
    (_S.IPV6, _S.IPV4): _S.STR,
    (_S.IPV6, _S.DATE): _S.DATE,  # (IPv6, b) => b, lib.rs:138
    (_S.IPV6, _S.STR): _S.STR,
    (_S.DATE, _S.NULL): _S.DATE,
    (_S.DATE, _S.BOOL): _S.STR,
    (_S.DATE, _S.INT): _S.STR,
    (_S.DATE, _S.FLOAT): _S.STR,
    (_S.DATE, _S.IPV4): _S.STR,
    (_S.DATE, _S.IPV6): _S.STR,
    (_S.DATE, _S.STR): _S.STR,  # (Date, b) => b, lib.rs:146
    (_S.STR, _S.NULL): _S.STR,
    (_S.STR, _S.BOOL): _S.STR,
    (_S.STR, _S.INT): _S.STR,
    (_S.STR, _S.FLOAT): _S.STR,
    (_S.STR, _S.IPV4): _S.STR,
    (_S.STR, _S.IPV6): _S.STR,
    (_S.STR, _S.DATE): _S.STR,
}


def merge_types(left: TypeNode, right: TypeNode) -> TypeNode:
    """Pairwise widening merge, reproducing ``merge`` (lib.rs:14-166).

    Pure (returns a new node) so it can serve as an associative combiner in
    per-block partial folds.
    """
    if isinstance(left, ObjectNode) and isinstance(right, ObjectNode):
        out = ObjectNode(left)
        for k, rv in right.items():
            out[k] = merge_types(out[k], rv) if k in out else rv
        return out
    if isinstance(left, ListNode) and isinstance(right, ListNode):
        out = ListNode(left)
        for k, rv in right.items():
            out[k] = merge_types(out[k], rv) if k in out else rv
        return out
    if isinstance(left, ObjectNode) and isinstance(right, ListNode):
        # list numeric keys merged into matching object string keys;
        # unmatched list entries are DROPPED (lib.rs:69-86)
        out = ObjectNode(left)
        for k, rv in right.items():
            sk = str(k)
            if sk in out:
                out[sk] = merge_types(out[sk], rv)
        return out
    if isinstance(left, ListNode):
        # (List, scalar-or-object): fold into element 0 if present (lib.rs:88-98)
        out = ListNode(left)
        if 0 in out:
            out[0] = merge_types(out[0], right)
        return out
    if isinstance(left, ObjectNode):
        if right is SemType.NULL:
            return ObjectNode(left)  # (Object, Null) => unchanged, lib.rs:162
        # (Object, scalar) is unimplemented!() in the reference; widen to Str
        # instead of panicking — documented deviation for robustness.
        return SemType.STR
    # left is a scalar SemType
    if left is SemType.NULL:
        return right  # (Null, b) => b
    if isinstance(right, (ListNode, ObjectNode)):
        # (Bool|Int|Float|Str, container) => container via the `(X, b) => b`
        # fall-through arms (lib.rs:106,114,124,155); IPv4/IPv6/Date same.
        return right
    if left is right:
        return left
    return _SCALAR_MERGE[(left, right)]


def _typed_column_sem(t: pa.DataType) -> SemType | None:
    """The SemType every non-null value of an Arrow column of type ``t``
    infers to, for the types whose Python values are bool, int, float or
    datetime; None for the rest."""
    if pa.types.is_null(t):
        return SemType.NULL
    if pa.types.is_boolean(t):
        return SemType.BOOL
    if pa.types.is_integer(t):
        return SemType.INT
    if t in (pa.float32(), pa.float64()):
        return SemType.FLOAT
    if pa.types.is_timestamp(t):
        return SemType.DATE
    return None


def _infer_column(col: pa.ChunkedArray) -> TypeNode:
    """``infer_type`` folded with ``merge_types`` over one column's values
    in row order (the per-key fold of the row-wise ObjectNode merge). An
    all-null column of any type is Null: every value infers to Null."""
    if col.null_count == len(col):
        return SemType.NULL
    sem = _typed_column_sem(col.type)
    if sem is not None:
        return sem
    values = col.to_pylist()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        # nulls merge as no-ops into a scalar; STR absorbs every scalar
        node, seen = SemType.NULL, {}
        for v in values:
            if v is None:
                continue
            t = seen.get(v)
            if t is None:
                t = seen[v] = sniff_str(v)
            node = merge_types(node, t)
            if node is SemType.STR:
                break
        return node
    node = infer_type(values[0])
    for v in values[1:]:
        node = merge_types(node, infer_type(v))
    return node


def infer_table_node(tbl: pa.Table) -> ObjectNode:
    """``reduce(merge_types, map(infer_type, tbl.to_pylist()))`` — the
    dynamic type of a table's rows — computed column by column: bool,
    integer, float and timestamp columns map straight to their SemType
    (Null when all null), string columns sniff each distinct value once
    and stop at Str, and every other type folds ``infer_type`` over its
    values (so date32 or decimal values raise ``TypeError`` as there); an
    all-null column of any type is Null without a look at its values.
    An empty table raises ``TypeError``, as the empty fold does."""
    if tbl.num_rows == 0:
        raise TypeError("cannot infer the type of a table without rows")
    # a repeated name keeps its first position and last column, as in a row dict
    columns = dict(zip(tbl.column_names, tbl.columns))
    return ObjectNode({name: _infer_column(col) for name, col in columns.items()})


# ---------------------------------------------------------------------------
# Arrow projection
# ---------------------------------------------------------------------------

_SEM_TO_ARROW: dict[SemType, pa.DataType] = {
    SemType.NULL: pa.null(),
    SemType.BOOL: pa.bool_(),
    SemType.INT: pa.int64(),
    SemType.FLOAT: pa.float64(),
    SemType.IPV4: pa.string(),
    SemType.IPV6: pa.string(),
    SemType.DATE: pa.timestamp("us"),
    SemType.STR: pa.string(),
}


def sem_type_to_arrow(t: SemType) -> pa.DataType:
    return _SEM_TO_ARROW[t]


def type_node_to_arrow(node: TypeNode) -> pa.DataType:
    """Project a dynamic type tree onto Arrow (the per-sink physical
    schema). Lists use the merged element type (all positions folded);
    objects become structs."""
    if isinstance(node, ObjectNode):
        return pa.struct(
            [pa.field(k, type_node_to_arrow(v)) for k, v in sorted(node.items())]
        )
    if isinstance(node, ListNode):
        if not node:
            return pa.list_(pa.null())
        elem: TypeNode | None = None
        for v in node.values():
            elem = v if elem is None else merge_types(elem, v)
        return pa.list_(type_node_to_arrow(elem))
    return sem_type_to_arrow(node)


def unify_arrow_schemas(schemas: list[pa.Schema]) -> pa.Schema:
    """Widening union of Arrow schemas: field union; conflicting field types
    widen per the scalar lattice (int64+float64→float64, anything+string→
    string, timestamp+non-timestamp→string), mirroring how the reference
    merges per-route schemas. Falls back to ``pa.unify_schemas`` when no
    conflicts exist."""
    try:
        return pa.unify_schemas(schemas)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        pass

    def widen(a: pa.DataType, b: pa.DataType) -> pa.DataType:
        if a == b:
            return a
        if pa.types.is_null(a):
            return b
        if pa.types.is_null(b):
            return a
        numeric_rank = {pa.bool_(): 0, pa.int64(): 1, pa.float64(): 2}
        if a in numeric_rank and b in numeric_rank:
            return max(a, b, key=lambda t: numeric_rank[t])
        if pa.types.is_timestamp(a) and pa.types.is_timestamp(b):
            # tz-naive vs tz-aware (or unit mismatch): unify on µs,
            # tz-aware if either side is — both are Dates semantically
            tz = a.tz or b.tz
            return pa.timestamp("us", tz=tz)
        return pa.string()

    fields: dict[str, pa.DataType] = {}
    order: list[str] = []
    for s in schemas:
        for f in s:
            if f.name in fields:
                fields[f.name] = widen(fields[f.name], f.type)
            else:
                fields[f.name] = f.type
                order.append(f.name)
    return pa.schema([pa.field(n, fields[n]) for n in order])


def arrow_schema_to_json(schema: pa.Schema) -> str:
    """Serialize a schema as JSON — written as ``_schema.json`` beside each
    sink, the analog of the reference's ES index mapping
    (``src/elastic.rs:38-66``)."""
    return json.dumps(
        {"fields": [{"name": f.name, "type": str(f.type)} for f in schema]},
        indent=2,
        sort_keys=True,
    )


_ARROW_FROM_STR = {
    "null": pa.null(),
    "bool": pa.bool_(),
    "int32": pa.int32(),
    "int64": pa.int64(),
    "float": pa.float32(),
    "double": pa.float64(),
    "string": pa.string(),
    "large_string": pa.large_string(),
    "timestamp[us]": pa.timestamp("us"),
    "timestamp[us, tz=UTC]": pa.timestamp("us", tz="UTC"),
    "list<element: float>": pa.list_(pa.float32()),
    "list<element: double>": pa.list_(pa.float64()),
}


def arrow_schema_from_json(s: str) -> pa.Schema:
    spec = json.loads(s)
    return pa.schema(
        [pa.field(f["name"], _ARROW_FROM_STR[f["type"]]) for f in spec["fields"]]
    )
