"""Conversation-level operators over the transcript contract table —
the transcript-domain transforms a training-data pipeline needs beyond
the reference's per-record model (ulp has no grouped/windowed compute).

- :func:`conversation_stats` — one row per conv_id: turn count, tool-turn
  count, start/end ts, duration. Partial-per-block (count/min/max are
  associative) + one fold (``aggregate.fold_partials``), so a hot
  conv_id never concentrates raw turns.
- :func:`turn_gaps` — per-conversation inter-turn latency (ts delta to
  the previous turn under (conv_id, turn_idx) order). Order-dependent ⇒
  conversations must co-locate — done by ``hash(conv_id) % buckets``
  co-grouping (one Python callback per BUCKET; the in-bucket body is
  one Arrow sort, ``_bucket.sorted_runs``, + diff + run-start mask over
  all of the bucket's conversations). A single conv_id holding a large
  fraction of all turns still concentrates its bucket — the documented
  hot-key hazard for order-dependent ops (mitigate upstream by capping
  conversation length at ingest).
- :func:`assemble_conversations` — 1 row per conversation with its turns
  as a sorted list<struct> (the training-data export shape); same bucket
  co-grouping, with the list column built by offset slicing
  (``pa.ListArray.from_arrays``) — no per-conversation Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["conversation_stats", "turn_gaps", "assemble_conversations"]


_STATS_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_turns", pa.int64()),
        ("n_tool_turns", pa.int64()),
        ("t_start", pa.timestamp("us")),
        ("t_end", pa.timestamp("us")),
        ("duration_s", pa.float64()),
    ]
)


def conversation_stats(ds):
    """Per-conversation rollup: ``conv_id, n_turns, n_tool_turns,
    t_start, t_end, duration_s``. A :func:`~.aggregate.fold_partials`
    rollup: associative per-block partials (count/sum/min/max), folded
    with ``duration_s`` computed in the fold, so a hot conv_id
    contributes ≤ #blocks partial rows and never concentrates raw turns.
    An empty input gives the empty table of that schema."""
    import pyarrow.compute as pc
    import ray
    from ray.data.dataset import MaterializedDataset

    from .aggregate import fold_partials

    def partial(batch: pa.Table) -> pa.Table:
        is_tool = pc.cast(pc.equal(batch["role"], "tool"), pa.int64())
        b = batch.append_column("is_tool", is_tool)
        g = b.group_by(["conv_id"]).aggregate(
            [([], "count_all"), ("is_tool", "sum"), ("ts", "min"), ("ts", "max")]
        )
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": g["count_all"],
                "n_tool_turns": g["is_tool_sum"],
                "t_start": g["ts_min"],
                "t_end": g["ts_max"],
            }
        )

    def fold(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["conv_id"]).aggregate(
            [
                ("n_turns", "sum"),
                ("n_tool_turns", "sum"),
                ("t_start", "min"),
                ("t_end", "max"),
            ]
        )
        dur = pc.divide(
            pc.cast(
                pc.subtract(
                    pc.cast(g["t_end_max"], pa.int64()),
                    pc.cast(g["t_start_min"], pa.int64()),
                ),
                pa.float64(),
            ),
            1_000_000.0,
        )
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": g["n_turns_sum"],
                "n_tool_turns": g["n_tool_turns_sum"],
                "t_start": g["t_start_min"],
                "t_end": g["t_end_max"],
                "duration_s": dur,
            }
        )

    out = fold_partials(ds, ["conv_id"], partial, fold)
    # no partial rows come back as the materialized, schema-less partials
    if isinstance(out, MaterializedDataset) and out.count() == 0:
        return ray.data.from_arrow(_STATS_SCHEMA.empty_table())
    return out


def turn_gaps(ds, buckets: int | None = None):
    """Per-turn latency: ``conv_id, turn_idx, gap_s`` (ts delta to the
    previous turn of the conversation in seconds; first turn or a null
    ts → null). Order established per bucket by one Arrow
    (conv_id, turn_idx) sort, ``_bucket.sorted_runs``."""
    from ._bucket import co_group, sorted_runs
    from .window import _ticks

    def gaps(t: pa.Table) -> pa.Table:
        t, run_id = sorted_runs(t, ["conv_id"], ["turn_idx"])
        ticks, valid, per_s = _ticks(t["ts"])
        dt = np.diff(ticks, prepend=0) / per_s
        null = (np.diff(run_id, prepend=-1) > 0) | ~valid | ~np.append(True, valid[:-1])
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "gap_s": pa.array(dt, pa.float64(), mask=null),
            }
        )

    return co_group([ds], ["conv_id"], gaps, buckets)


def assemble_conversations(ds, buckets: int | None = None):
    """Reassemble turns into one row per conversation:
    ``conv_id, n_turns, turns: list<struct{turn_idx, role, text, tool}>``
    sorted by turn_idx — the export shape for conversation-level training
    data."""
    from ._bucket import co_group, resolve_buckets, sorted_runs

    # resolve HERE so the overflow guard below can report the actual count
    buckets = resolve_buckets(buckets, ds)

    struct_type = pa.struct(
        [
            ("turn_idx", pa.int64()),
            ("role", pa.string()),
            ("text", pa.string()),
            ("tool", pa.string()),
        ]
    )

    def assemble(t: pa.Table) -> pa.Table:
        # one bucket = many conversations: sort once, then slice the
        # struct array into per-conversation lists via run-boundary
        # offsets — zero per-conversation Python
        t, run_id = sorted_runs(t, ["conv_id"], ["turn_idx"])
        n = len(t)
        # list<> offsets are int32: a silent astype would WRAP past 2^31
        # rows per bucket and corrupt the turns column. Guard loudly —
        # the fix is more buckets, not a schema change (the contract
        # pins list<struct>, not large_list).
        if n >= 2**31:
            raise ValueError(
                f"bucket holds {n} turns, over the int32 list-offset "
                f"limit; raise buckets= (currently {buckets}) so each "
                "hash bucket stays under 2^31 rows"
            )
        starts = np.flatnonzero(np.diff(run_id, prepend=-1))
        offsets = np.append(starts, n).astype(np.int32)
        struct = pa.StructArray.from_arrays(
            [t[f.name].cast(f.type).combine_chunks() for f in struct_type],
            fields=list(struct_type),
        )
        return pa.table(
            {
                "conv_id": t["conv_id"].take(starts).cast(pa.string()),
                "n_turns": pa.array(np.diff(offsets), pa.int64()),
                "turns": pa.ListArray.from_arrays(pa.array(offsets), struct),
            }
        )

    return co_group([ds], ["conv_id"], assemble, buckets)
