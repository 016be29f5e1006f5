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
callback + two sorts per key. ``merge_asof`` sees only the key, the
timestamp and the row numbers; every payload column follows its matched
row number with an Arrow ``take``, so it keeps its type and values (a
nullable int64 is never floated through pandas). Backward direction =
"latest right row with right.ts <= left.ts" (DuckDB ``ASOF JOIN``
semantics, the oracle in ``__ray_entry__``).
"""

from __future__ import annotations

import numpy as np
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

    from ._bucket import co_group, resolve_buckets

    l_payload = [c for c in lcols if c not in (on, ts_col)]
    names = [on, ts_col] + l_payload + [rename_map[c] for c in r_payload]

    buckets = resolve_buckets(buckets, left, right)

    def valid_right(batch: pa.Table) -> pa.Table:
        # SQL asof semantics: a NULL key or NULL timestamp on the right
        # can never satisfy the join inequality — drop those rows here
        # (merge_asof would otherwise match NaN keys to NaN keys and
        # raise on NaT timestamps)
        return batch.filter(pc.and_(pc.is_valid(batch[on]), pc.is_valid(batch[rts])))

    r = right.map_batches(valid_right, batch_format="pyarrow", **remote_env())

    def merge(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # one merge_asof(by=on) over ALL of the bucket's keys (pandas
        # groups by `on` internally, C-level, no per-key Python) on the
        # key, the timestamp and the row numbers only; the payloads
        # follow the matched row numbers in Arrow, types and values kept
        lt = lt.select([on, ts_col] + l_payload)
        rows = np.full(len(lt), -1)  # matched right row, -1 for none
        # left rows with a NULL key or timestamp never match (SQL
        # equality and inequality); they still appear in the LEFT join
        # output with null rights. merge_asof raises on null on-keys
        valid = pc.and_(pc.is_valid(lt[on]), pc.is_valid(lt[ts_col]))
        lg = pa.table({on: lt[on], "__ts": lt[ts_col], "__l": np.arange(len(lt))})
        lg = lg.filter(valid).to_pandas().sort_values("__ts", kind="stable")
        rg = pa.table({on: rt[on], "__ts": rt[rts], "__r": np.arange(len(rt))})
        rg = rg.to_pandas().sort_values("__ts", kind="stable")
        if len(lg) and len(rg):
            m = pd.merge_asof(lg, rg, on="__ts", by=on, direction=direction)
            hit = m["__r"].notna().to_numpy()
            rows[m["__l"].to_numpy()[hit]] = m["__r"].to_numpy()[hit]
        taken = rt.select(r_payload).take(pa.array(rows, mask=rows < 0))
        return pa.Table.from_arrays(lt.columns + taken.columns, names=names)

    return co_group([left, (r, rschema)], [on], merge, buckets)
