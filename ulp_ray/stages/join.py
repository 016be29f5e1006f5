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
   ``bucket = hash(key) % B`` to both sides, tag, union, group by bucket,
   and pandas-merge within each bucket. Kept for engines/versions without
   a native join and as the place to salt skewed keys (pass
   ``salt_keys``: hot keys get split across ``salt`` sub-buckets on the
   probe side with the build side replicated into each).
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd
import pyarrow as pa

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
    ``hash(key) % buckets``, co-grouped, merged per bucket with pandas.

    ``how`` ∈ {"inner", "left", "right", "outer"} with SQL semantics —
    including NULL keys: a null join key matches nothing (null-key rows
    are split out before the per-bucket pandas merge, which would
    otherwise pair NaN keys with each other, and re-appended unmatched
    on the side(s) the join form preserves). Unmatched rows carry the
    other side's columns as nulls, which floats the other side's int
    columns in the pandas output — SQL-compatible, but select/cast
    downstream if exact integer dtypes matter.

    Partitioning assumption (documented per SURVEY.md): rows join only
    within their bucket — correct because both sides use the same hash
    (nulls share a sentinel hash, harmless since they never merge); a
    hot key concentrates its bucket, so pick ``buckets`` ≳ 4× CPUs and
    salt upstream if one key dominates.
    """
    if how not in ("inner", "left", "right", "outer"):
        raise ValueError(
            f"how must be inner/left/right/outer, got {how!r}"
        )
    on_cols = [on] if isinstance(on, str) else list(on)
    # the pandas per-bucket merge rejects mismatched key dtypes (int64 vs
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

    buckets = resolve_buckets(buckets, left, right, floor=32)
    l_only = [c for c in lt if c not in on_cols]
    r_only = [c for c in rt if c not in on_cols]
    if set(l_only) & set(r_only):
        raise ValueError(
            f"overlapping non-key columns {set(l_only) & set(r_only)}: "
            "rename before joining"
        )

    def merge(lg: pa.Table, rg: pa.Table) -> pd.DataFrame:
        # Arrow until the merge: each side keeps its own int types (a
        # pandas conversion of a padded union would float them)
        import pyarrow.compute as pc

        lg = lg.select(on_cols + l_only)
        rg = rg.select(on_cols + r_only)

        # SQL null semantics: a NULL join key matches NOTHING. pandas
        # merge pairs NaN keys with each other, so null-key rows are
        # split out BEFORE the merge and re-appended (unmatched, with
        # the other side's columns null) on whichever side the join
        # form preserves.
        def null_mask(t: pa.Table):
            m = pc.is_null(t[on_cols[0]])
            for c in on_cols[1:]:
                m = pc.or_(m, pc.is_null(t[c]))
            return m

        lm, rm = null_mask(lg), null_mask(rg)
        out = (
            lg.filter(pc.invert(lm))
            .to_pandas()
            .merge(rg.filter(pc.invert(rm)).to_pandas(), on=on_cols, how=how)
        )
        extras = []
        if how in ("left", "outer") and pc.any(lm).as_py():
            extras.append(lg.filter(lm).to_pandas())
        if how in ("right", "outer") and pc.any(rm).as_py():
            extras.append(rg.filter(rm).to_pandas())
        if extras:
            out = pd.concat([out, *extras], ignore_index=True)
        return out

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
        import pyarrow.compute as pc

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
