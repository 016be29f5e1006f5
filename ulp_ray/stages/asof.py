"""As-of (temporal) join — a join shape the reference lacks entirely and
Ray Data has no primitive for (SURVEY.md §2 custom-operator clause):
implemented as ``bucket by hash(key) % B → co-group → one
pd.merge_asof(by=key) per bucket``.

Partitioning assumption (explicit): rows join only within their key's
bucket — a key's full history lands in exactly one bucket because both
sides use the same canonicalized hash. The per-bucket body is ONE
``merge_asof`` over all of the bucket's keys (pandas ``by=`` grouping,
C-level), so the total Python-callback count is ~``buckets``, not
O(distinct keys) — the round-1 per-key group-map form ran one
callback + two sorts per key. Backward direction = "latest right row
with right.ts <= left.ts" (DuckDB ``ASOF JOIN`` semantics, the oracle in
``__ray_entry__``).
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env

__all__ = ["asof_join"]


def asof_join(
    left,
    right,
    on: str,
    ts_col: str = "ts",
    right_ts_col: str | None = None,
    direction: str = "backward",
    suffix: str = "_r",
    buckets: int | None = None,
):
    """Left as-of join: every left row gains the columns of the closest
    (per ``direction``) right row sharing ``on``.

    Both sides shuffle once on ``on``; the per-group step sorts and runs
    ``pd.merge_asof``. Right-side non-key columns that collide with left
    names get ``suffix``.
    """
    rts = right_ts_col or ts_col

    lschema, rschema = left.schema(), right.schema()
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    r_payload = [c for c in rcols if c not in (on, rts)]
    rename_map = {c: (c + suffix if c in lcols else c) for c in r_payload}
    collisions = set(rename_map.values()) & set(lcols)
    if collisions:
        raise ValueError(
            f"right columns {sorted(collisions)} collide with left columns "
            f"even after suffix {suffix!r} — rename before joining"
        )

    from ._bucket import arrow_type_of, co_group, resolve_buckets

    types = {n: arrow_type_of(t) for n, t in zip(lschema.names, lschema.types)}
    for n, t in zip(rschema.names, rschema.types):
        types[rename_map.get(n, n)] = arrow_type_of(t)
    l_payload = [c for c in lcols if c not in (on, ts_col)]
    out_r_payload = [rename_map[c] for c in r_payload]
    out_schema = pa.schema(
        [(on, types[on]), (ts_col, types[ts_col])]
        + [(c, types[c]) for c in l_payload + out_r_payload]
    )

    buckets = resolve_buckets(buckets, left, right)

    def valid_right(batch: pa.Table) -> pa.Table:
        # SQL asof semantics: a NULL key or NULL timestamp on the right
        # can never satisfy the join inequality — drop those rows here
        # (merge_asof would otherwise match NaN keys to NaN keys and
        # raise on NaT timestamps)
        return batch.filter(pc.and_(pc.is_valid(batch[on]), pc.is_valid(batch[rts])))

    r = right.map_batches(valid_right, batch_format="pyarrow", **remote_env())

    def _typed(out: pd.DataFrame) -> pa.Table:
        # enforce one schema across ALL groups: merge_asof NaN-floats
        # unmatched int columns and empty groups would otherwise infer
        # null/float types that break downstream schema unification
        arrays = []
        for field in out_schema:
            arr = pa.Array.from_pandas(out[field.name])
            if arr.type != field.type:
                arr = arr.cast(field.type, safe=False)
            arrays.append(arr)
        return pa.Table.from_arrays(arrays, schema=out_schema)

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # one merge_asof(by=on) over ALL of the bucket's keys: pandas
        # groups by `on` internally (C-level), no per-key Python
        if len(lt) == 0:
            return out_schema.empty_table()
        lt = lt.select([on, ts_col] + l_payload).rename_columns(
            [on, "__ts"] + l_payload
        )
        rg = (
            rt.select([on, rts] + r_payload)
            .rename_columns([on, "__ts"] + out_r_payload)
            .to_pandas()
            .sort_values("__ts", kind="stable")
        )
        # left rows with a NULL key or timestamp never match (SQL
        # equality and inequality); they still appear in the LEFT join
        # output with null rights. They stay in Arrow: merge_asof raises
        # on null on-keys, and a null would float an int key in pandas
        valid = pc.and_(pc.is_valid(lt[on]), pc.is_valid(lt["__ts"]))
        lg_null = lt.filter(pc.invert(valid))
        lg = lt.filter(valid).to_pandas().sort_values("__ts", kind="stable")
        if rg.empty or lg.empty:
            out = lg.copy()
            for c in out_r_payload:
                out[c] = None
        else:
            out = pd.merge_asof(
                lg,
                rg,
                on="__ts",
                by=on,
                direction=direction,
            )
        out = out.rename(columns={"__ts": ts_col})
        out = _typed(out[[on, ts_col] + l_payload + out_r_payload])
        nulls = [pa.nulls(len(lg_null), out_schema.field(c).type) for c in out_r_payload]
        pad = pa.Table.from_arrays(
            lg_null.columns + nulls, names=out_schema.names
        ).cast(out_schema)
        return pa.concat_tables([out, pad])

    return co_group([left, (r, rschema)], [on], merge, buckets)
