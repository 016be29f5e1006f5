"""Joins — the capability the reference lacks entirely (SURVEY.md §2.4:
ulp has no relational join; its only lookups are dotted-path self-lookups).
A data engine at 100 TB needs three join shapes, cheapest first:

1. :func:`broadcast_join` — small side (dimension table, taxonomy,
   blocklist) shipped once via ``ray.put``; each batch does a vectorized
   pandas merge against it. No shuffle. Use whenever one side fits in a
   worker's heap (≲ a few GB).
2. ``Dataset.join`` (Ray ≥2.46) — hash-partitioned large-large join; both
   sides shuffle on the key. Used directly (see ``__ray_entry__``
   ``join_orders_customer_large``); ``num_partitions`` sizes the exchange.
3. :func:`bucketed_hash_join` — the portable explicit form of (2): add
   ``bucket = hash(key) % B`` to both sides, co-group by bucket, and
   Arrow-join within each bucket. Kept for engines/versions without a
   native join.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env

__all__ = [
    "broadcast_join",
    "bucketed_hash_join",
    "bucketed_anti_join",
    "bucketed_semi_join",
]


def broadcast_join(
    ds,
    small: pa.Table | pd.DataFrame,
    on: str | Sequence[str],
    how: str = "left",
):
    """Broadcast hash join: ``ds`` (big, streams) × ``small`` (broadcast).

    The small side is ``ray.put`` once; every worker process fetches it
    once (module-level cache) and merges per batch with pandas.
    """
    import ray

    if how not in ("left", "inner"):
        raise ValueError(
            "broadcast_join supports how='left'/'inner' only: the merge runs "
            "per batch, so right/outer would emit the small side's unmatched "
            "rows once per block"
        )
    if isinstance(small, pa.Table):
        small = small.to_pandas()
    on_cols = [on] if isinstance(on, str) else list(on)
    small_ref = ray.put(small)

    from .enrich import _BROADCAST_CACHE

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        key = small_ref.hex()
        sm = _BROADCAST_CACHE.get(key)
        if sm is None:
            sm = ray.get(small_ref)
            _BROADCAST_CACHE[key] = sm
        return batch.merge(sm, on=on_cols, how=how)

    return ds.map_batches(merge, batch_format="pandas", **remote_env())


def bucketed_hash_join(
    left,
    right,
    on: str | Sequence[str],
    buckets: int | None = None,
    how: str = "inner",
):
    """Explicit partitioned hash join: both sides bucketed on
    ``hash(key) % buckets``, co-grouped, joined per bucket with Arrow.

    ``how`` ∈ {"inner", "left", "right", "outer"} with SQL semantics —
    including NULL keys: a null join key matches nothing (null-key rows
    stay out of the per-bucket join and come back unmatched on the
    side(s) the join form preserves). Unmatched rows carry the other
    side's columns as nulls; every column keeps its input type.

    Partitioning assumption (documented per SURVEY.md): rows join only
    within their bucket — correct because both sides use the same hash
    (nulls share a sentinel hash, harmless since they never merge).
    ``buckets=None`` takes the count from ``resolve_buckets`` (one per
    CPU, more past 250k rows a bucket, at most 4 per CPU); more buckets
    do not help a hot key, which concentrates its bucket at any count —
    salt upstream if one key dominates.
    """
    if how not in ("inner", "left", "right", "outer"):
        raise ValueError(
            f"how must be inner/left/right/outer, got {how!r}"
        )
    on_cols = [on] if isinstance(on, str) else list(on)
    # the Arrow per-bucket join rejects mismatched key dtypes (int64 vs
    # float64) — require equal dtypes up front for a clear error
    lt = dict(zip(left.schema().names, left.schema().types))
    rt = dict(zip(right.schema().names, right.schema().types))
    for c in on_cols:
        if str(lt.get(c)) != str(rt.get(c)):
            raise ValueError(
                f"join key {c!r} dtype mismatch: {lt.get(c)} vs {rt.get(c)} "
                "— cast one side before joining"
            )

    from ._bucket import co_group, resolve_buckets

    buckets = resolve_buckets(buckets, left, right)
    l_only = [c for c in lt if c not in on_cols]
    r_only = [c for c in rt if c not in on_cols]
    if set(l_only) & set(r_only):
        raise ValueError(
            f"overlapping non-key columns {set(l_only) & set(r_only)}: "
            "rename before joining"
        )

    join_type = {
        "inner": "inner",
        "left": "left outer",
        "right": "right outer",
        "outer": "full outer",
    }[how]

    def merge(lg: pa.Table, rg: pa.Table) -> pa.Table:
        # Arrow joins only the keys and row numbers (its hash join takes
        # no list payload), and each side's rows are taken by number:
        # every column keeps its type, and a null row number gives the
        # unmatched side's nulls
        def numbered(t: pa.Table, name: str):
            # SQL null semantics: a NULL join key matches NOTHING
            valid = np.ones(len(t), dtype=bool)
            for c in on_cols:
                valid &= np.asarray(pc.is_valid(t[c]), dtype=bool)
            keys = t.select(on_cols).append_column(name, pa.array(np.arange(len(t))))
            return keys.filter(pa.array(valid)), pa.array(np.flatnonzero(~valid))

        lk, l_null = numbered(lg, "__l")
        rk, r_null = numbered(rg, "__r")
        pairs = lk.join(rk, keys=on_cols, join_type=join_type)
        li, ri = [pairs["__l"].combine_chunks()], [pairs["__r"].combine_chunks()]
        # null-key rows come back unmatched on a side the join preserves
        if how in ("left", "outer"):
            li.append(l_null)
            ri.append(pa.nulls(len(l_null), pa.int64()))
        if how in ("right", "outer"):
            li.append(pa.nulls(len(r_null), pa.int64()))
            ri.append(r_null)
        lrows = lg.take(pa.concat_arrays(li))
        rrows = rg.take(pa.concat_arrays(ri))
        cols = {c: pc.coalesce(lrows[c], rrows[c]) for c in on_cols}
        cols.update({c: lrows[c] for c in l_only})
        cols.update({c: rrows[c] for c in r_only})
        return pa.table(cols)

    return co_group([left, right], on_cols, merge, buckets)


def _bucketed_membership_join(
    left,
    right,
    on: str,
    right_on: str | None,
    buckets: int | None,
    keep_matched: bool,
    null_matches_null: bool,
):
    """Shared core of the semi/anti joins: co-group both sides by
    ``hash(key) % buckets`` (only the right side's key column ships —
    a fixed-width exchange), then one vectorized ``pc.is_in`` per
    bucket decides membership. ``keep_matched`` selects semi (True) vs
    anti (False); ``null_matches_null`` controls whether a null left
    key counts as present when the right side holds a null key."""
    from ._bucket import arrow_type_of, co_group, resolve_buckets

    buckets = resolve_buckets(buckets, left, right)
    rkey = right_on or on
    lt = dict(zip(left.schema().names, left.schema().types))
    rt = dict(zip(right.schema().names, right.schema().types))
    if str(lt.get(on)) != str(rt.get(rkey)):
        raise ValueError(
            f"anti-join key dtype mismatch: {on}={lt.get(on)} vs "
            f"{rkey}={rt.get(rkey)} — cast one side first"
        )
    # only the right side's key column ships
    keys = right.select_columns([rkey]).rename_columns({rkey: on})
    keys_schema = pa.schema([(on, arrow_type_of(rt[rkey]))])

    def member(lg: pa.Table, rg: pa.Table) -> pa.Table:
        rvals = rg[on].combine_chunks().cast(lg[on].type)
        # membership rule, explicit (pc.is_in's null handling varies by
        # version): a null left key only matches when the caller opted
        # into containment semantics AND the right side has a null key
        in_right = pc.fill_null(
            pc.is_in(lg[on], value_set=rvals.drop_null()), False
        )
        if null_matches_null and rvals.null_count > 0:
            in_right = pc.or_(in_right, pc.is_null(lg[on]))
        mask = in_right if keep_matched else pc.invert(in_right)
        return lg.filter(mask)

    return co_group([left, (keys, keys_schema)], [on], member, buckets)


def bucketed_anti_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    buckets: int | None = None,
):
    """Anti join: ``left`` rows whose ``on`` value does NOT appear in
    ``right[right_on]``. Both sides co-grouped by ``hash(key) % buckets``
    (fixed-width exchange on the exclusion side — only its key column
    ships), in-bucket membership via one vectorized ``pc.is_in`` per
    bucket.

    This is the scale-safe replacement for a driver-side id set +
    broadcast filter: the exclusion set may be O(corpus) (heavily
    duplicated crawls), so it stays a Dataset end-to-end. Null semantics:
    a null left key is dropped iff the right side contains a null key
    (containment, pandas-style — not SQL ``NOT IN``'s three-valued
    logic, which would drop every row once any null appears on the
    right)."""
    return _bucketed_membership_join(
        left, right, on, right_on, buckets,
        keep_matched=False, null_matches_null=True,
    )


def bucketed_semi_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    buckets: int | None = None,
):
    """Semi join: ``left`` rows whose ``on`` value appears in
    ``right[right_on]`` — the SQL ``WHERE EXISTS (SELECT 1 FROM right
    WHERE right.key = left.key)`` shape: no right columns, no row
    duplication however many right matches exist, and a null left key
    never matches (NULL = NULL is unknown in SQL).

    Same co-group contract and cost shape as the anti join: only the
    right side's key column ships."""
    return _bucketed_membership_join(
        left, right, on, right_on, buckets,
        keep_matched=True, null_matches_null=False,
    )
