"""Interval (range) join — the second temporal-join shape a log/event
engine needs beyond the as-of join (SURVEY.md §2 custom-operator clause;
the reference has no joins at all, ``SURVEY.md §2.4``).

``interval_join``: every left row pairs with EVERY right interval of the
same key that contains its timestamp (``start <= ts <= end``) — an
inner many-to-many join, the semantics of a SQL inequality join
(``ON l.key = r.key AND l.ts BETWEEN r.start AND r.end``).

Shape: both sides co-group by ``hash(key) % buckets`` (one Python
callback per bucket, same partitioning contract as
:mod:`ulp_ray.stages.asof`), then ONE pandas key-equi merge per bucket
followed by a vectorized between-mask. Partitioning assumption
(documented): the per-key cross product (left rows × intervals of that
key) must fit the bucket's worker — true when per-key interval counts
are bounded (sessions, promo windows, deployment spans); salt the key
upstream if one key carries unbounded intervals.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env
from ._bucket import arrow_type_of, co_group, resolve_buckets

__all__ = ["interval_join"]


def interval_join(
    left,
    right,
    on: str,
    ts_col: str = "ts",
    start_col: str = "start",
    end_col: str = "end",
    buckets: int | None = None,
):
    """Inner interval-containment join; returns left columns + the
    matching right columns (callers must pre-rename collisions)."""
    buckets = resolve_buckets(buckets, left, right)
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    overlap = (set(lcols) & set(rcols)) - {on}
    if overlap:
        raise ValueError(
            f"overlapping non-key columns {sorted(overlap)}: rename before joining"
        )
    l_only = [c for c in lcols if c != on]
    r_only = [c for c in rcols if c != on]
    ltypes = dict(zip(left.schema().names, left.schema().types))
    rtypes = dict(zip(right.schema().names, right.schema().types))
    types = {c: arrow_type_of(t) for c, t in {**ltypes, **rtypes}.items()}
    out_cols = [on] + l_only + r_only

    def valid(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            # null keys / null bounds can never satisfy the predicate
            cols = [on, ts_col] if side == "l" else [on, start_col, end_col]
            mask = pc.is_valid(batch[cols[0]])
            for c in cols[1:]:
                mask = pc.and_(mask, pc.is_valid(batch[c]))
            return batch.filter(mask)

        return fn

    l = left.map_batches(valid("l"), batch_format="pyarrow", **remote_env())
    r = right.map_batches(valid("r"), batch_format="pyarrow", **remote_env())

    out_schema = pa.schema([(c, types[c]) for c in out_cols])

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lg = lt.select([on] + l_only).to_pandas()
        rg = rt.select([on] + r_only).to_pandas()
        if lg.empty or rg.empty:
            return out_schema.empty_table()
        m = lg.merge(rg, on=on)  # key-equi first; then the range mask
        m = m[(m[ts_col] >= m[start_col]) & (m[ts_col] <= m[end_col])]
        arrays = []
        for field in out_schema:
            arr = pa.Array.from_pandas(m[field.name])
            if arr.type != field.type:
                arr = arr.cast(field.type, safe=False)
            arrays.append(arr)
        return pa.Table.from_arrays(arrays, schema=out_schema)

    return co_group(
        [(l, left.schema()), (r, right.schema())], [on], merge, buckets
    )
