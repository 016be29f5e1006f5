"""Mergeable sketches: per-batch partial sketch → tiny merge (the guide's
"sketches are designed to be mergeable" pattern; the reference has no
approximate aggregates, SURVEY.md §2.5).

:func:`approx_distinct` — HyperLogLog: each batch emits one serialized
register array (2^p bytes); registers max-merge associatively on the
driver. Standard bias-corrected estimator with small/large range
corrections. Error ≈ 1.04/√(2^p) (~1.6% at p=12).

:func:`heavy_hitters` / :func:`grouped_heavy_hitters` — mergeable
Misra–Gries approximate top-k (global and per-group): each block
reduces its exact value counts to ≤ capacity counters (per group in
the grouped form, via one lexsort — no per-group Python), the counters
sum per value, and a sort+limit / grouped_topk reads off the top-k
with the deterministic underestimate bound
est ∈ [true − N/(capacity+1), true] (N per group in the grouped form).

:func:`grouped_quantile_sketch` — mergeable grouped quantile: the
huge-key-space companion to the exact
:func:`ulp_ray.stages.aggregate.grouped_quantile` (which must co-locate
each group's values). Two mergeable folds: (key → min/max) then a
fixed-bin histogram per key; the quantile interpolates inside its bin,
so the absolute error is bounded by one bin width ((max−min)/bins per
key). Every stage is a per-block partial + Sum — raw values never
shuffle, only O(keys × bins) count rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .._env import remote_env

__all__ = [
    "approx_distinct",
    "approx_distinct_grouped",
    "hll_partial",
    "hll_estimate",
    "grouped_quantile_sketch",
    "heavy_hitters",
    "grouped_heavy_hitters",
]


def _hash_u64(arr: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(arr, hash_key="ulp_ray_sketch16").astype(np.uint64)


def _reg_rank(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-value HLL (register index, rank): top ``p`` hash bits pick the
    register, rank = leading zeros of the remaining bits + 1. Shared by
    the global (dense register array) and grouped (sparse rows) paths so
    their estimates are bit-identical on the same column."""
    h = _hash_u64(np.asarray(values, dtype=object))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad low bits
    # rank = leading zeros of the remaining 64-p bits + 1
    lz = np.zeros(len(h), dtype=np.uint8)
    nz = rest != 0
    lz[nz] = (
        63 - np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64)
    ).astype(np.uint8)
    return idx, lz + 1


def hll_partial(values: np.ndarray, p: int = 12) -> np.ndarray:
    """One HLL register array (uint8[2^p]) from a value array."""
    m = 1 << p
    idx, rank = _reg_rank(values, p)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL cardinality estimate from a register array."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** (-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    elif est > (1 << 32) / 30.0:
        est = -(1 << 32) * np.log(1 - est / (1 << 32))
    return float(est)


def _merge_key(tbl: pa.Table, key_list: list[str]) -> pa.Array:
    """Sentinel-encoded string merge key over the key columns, built
    from the ARROW representation on both sides so null keys survive
    the pandas merge (NaN never equi-joins) and int-with-null key
    columns can't desync between a null-free batch (int64) and a
    broadcast side (float64 after to_pandas). Each part is
    LENGTH-PREFIXED ("<len>:<value>", null → "N") so key values
    containing the field separator — or a value literally equal to
    a null sentinel — cannot make two distinct key tuples collide."""
    import pyarrow.compute as pc

    parts = []
    for k in key_list:
        col = tbl[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        sv = pc.cast(col, pa.string())
        enc = pc.binary_join_element_wise(
            pc.cast(pc.utf8_length(sv), pa.string()), sv, ":"
        )
        parts.append(pc.fill_null(enc, "N"))
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "\x1f")


def approx_distinct(ds, col: str, p: int = 12) -> int:
    """Approximate COUNT(DISTINCT col): per-batch HLL partials, max-merged
    on the driver (one 4 KiB register array per batch crosses the wire)."""
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch[col].to_numpy(zero_copy_only=False)
        regs = hll_partial(vals, p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    merged = np.zeros(m, dtype=np.uint8)
    for row in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None, **remote_env()
    ).take_all():
        merged = np.maximum(merged, np.frombuffer(row["regs"], dtype=np.uint8))
    return round(hll_estimate(merged))


def approx_distinct_grouped(
    ds,
    keys: list[str],
    col: str,
    p: int = 12,
    out_col: str = "approx_distinct",
    buckets: int | None = None,
):
    """Per-key approximate COUNT(DISTINCT col) — the grouped HLL
    (VERDICT r3 item 5; SQL semantics: null values don't count, null
    keys form their own group).

    Sketch rows are SPARSE: each block emits one ``(key, register,
    max rank)`` row per distinct (key, register) pair it saw — a key
    with 10 values ships ≤10 fixed-width rows, never a dense 2^p
    register block, so the exchange is O(Σ min(group_rows, 2^p)) per
    block, the same class as the vocab/DF folds. A per-key sentinel row
    keeps all-null-value groups alive (estimate 0). Registers max-merge
    in a bucketed co-group (one vectorized pandas body per bucket, no
    per-key Python loop) and the estimator there is bit-identical to
    :func:`hll_estimate` — same hash, same bias/range corrections.
    Error ≈ 1.04/√(2^p) (~1.6 % at the default p=12).

    Returns a Dataset ``keys + [out_col]`` (int64)."""
    import pyarrow.compute as pc

    from ._bucket import co_group

    key_list = list(keys)
    m = 1 << p
    reg_t = pa.int32()

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.select(key_list + [col])
        batch = batch.append_column("__mk", _merge_key(batch, key_list))
        schema_cols = ["__mk"] + key_list
        # sentinel row per key group present in the block: groups whose
        # values are ALL null still reach the estimator (→ 0)
        sent = batch.select(schema_cols).group_by(schema_cols).aggregate([])
        sent = sent.append_column("__reg", pa.array([-1] * len(sent), reg_t))
        sent = sent.append_column("__rank", pa.array([0] * len(sent), reg_t))
        nn = batch.filter(pc.is_valid(batch[col]))
        if len(nn):
            idx, rank = _reg_rank(nn[col].to_numpy(zero_copy_only=False), p)
            t = pa.table(
                {
                    **{c: nn[c] for c in schema_cols},
                    "__reg": pa.array(idx.astype(np.int32), reg_t),
                    "__rank": pa.array(rank.astype(np.int32), reg_t),
                }
            )
            # C-level in-block dedup: one row per (key, register), max rank
            t = (
                t.group_by(schema_cols + ["__reg"])
                .aggregate([("__rank", "max")])
                .rename_columns(schema_cols + ["__reg", "__rank"])
            )
            sent = pa.concat_tables([sent.select(t.column_names), t])
        return sent

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None, **remote_env()
    )

    alpha = 0.7213 / (1 + 1.079 / m)

    def estimate(t: pa.Table) -> pd.DataFrame:
        # one vectorized body per bucket: max-merge registers, then the
        # HLL estimator with small/large-range corrections (identical
        # math to hll_estimate, applied column-wise)
        g = t.to_pandas()
        keys_df = g.drop_duplicates("__mk").set_index("__mk")[key_list]
        real = g[g["__reg"] >= 0]
        merged = (
            real.groupby(["__mk", "__reg"], sort=False)["__rank"]
            .max()
            .reset_index()
        )
        merged["pw"] = np.power(2.0, -merged["__rank"].to_numpy(np.float64))
        per = merged.groupby("__mk", sort=True).agg(
            nnz=("__reg", "size"), spow=("pw", "sum")
        )
        per = per.reindex(keys_df.index.sort_values(), fill_value=0)
        nnz = per["nnz"].to_numpy(np.int64)
        S = per["spow"].to_numpy(np.float64) + (m - nnz)  # empty regs → 2^0
        est = alpha * m * m / S
        zeros = m - nnz
        small = (est <= 2.5 * m) & (zeros > 0)
        with np.errstate(divide="ignore"):
            est = np.where(small, m * np.log(m / np.maximum(zeros, 1)), est)
        large = ~small & (est > (1 << 32) / 30.0)
        est = np.where(large, -(1 << 32) * np.log(1 - est / (1 << 32)), est)
        out = keys_df.loc[per.index].reset_index(drop=True)
        out[out_col] = np.round(est).astype(np.int64)
        return out

    return co_group([partials], ["__mk"], estimate, buckets)


def grouped_quantile_sketch(
    ds,
    keys: list[str],
    value_col: str,
    q: float,
    bins: int = 256,
    out_col: str | None = None,
):
    """Approximate grouped quantile via a per-key fixed-bin histogram.

    Pass 1 folds per-key (min, max) — a mergeable per-block partial.
    Pass 2 folds per-key bin counts (rows ``keys + [__bin, n]``, one per
    key×bin per block at most). The quantile is read off the cumulative
    histogram with linear interpolation inside the target bin; absolute
    error ≤ (max−min)/bins per key. Both exchanges move pre-combined
    fixed-width rows — this is the 100 TB-safe quantile shape (the exact
    ``grouped_quantile`` ships each group's raw values to one bucket).
    Returns a Dataset ``keys + [out_col]``.
    """
    import ray
    import pyarrow.compute as pc

    from .aggregate import fold_partials, sum_fold

    key_list = list(keys)
    name = out_col or f"q{q}"

    def _mk_arrow(tbl: pa.Table) -> pa.Array:
        return _merge_key(tbl, key_list)

    def minmax_partial(batch: pa.Table) -> pa.Table:
        batch = batch.select(key_list + [value_col])
        batch = batch.append_column("__mk", _mk_arrow(batch))
        # pyarrow group_by keeps null keys as their own group
        g = batch.group_by(["__mk"] + key_list).aggregate(
            [(value_col, "min"), (value_col, "max")]
        )
        cols = {"__mk": g["__mk"], **{k: g[k] for k in key_list}}
        cols["lo"] = g[f"{value_col}_min"]
        cols["hi"] = g[f"{value_col}_max"]
        return pa.table(cols)

    mm_partials = ds.map_batches(
        minmax_partial, batch_format="pyarrow", batch_size=None, **remote_env()
    ).to_pandas()  # tiny: O(keys × blocks) fixed-width rows
    bounds = (
        mm_partials.groupby("__mk", sort=True)
        .agg(
            **{k: (k, "first") for k in key_list},
            __lo=("lo", "min"),
            __hi=("hi", "max"),
        )
        .reset_index()
    )
    bounds_ref = ray.put(bounds[["__mk", "__lo", "__hi"]])  # broadcast once
    # pre-indexed copy for the final read-off (avoids re-building the
    # index in every bucket callback); the bounds side is an O(keys)
    # broadcast — the same footprint class as a broadcast-join small side
    bounds_idx_ref = ray.put(bounds.set_index("__mk"))

    def hist_partial(batch: pa.Table) -> pa.Table:
        # no empty-df special case: merge/clip/groupby on an empty frame
        # preserve the dtypes (a hand-built empty frame would be
        # all-float64 and break the Arrow concat of the fold)
        bdf = ray.get(bounds_ref)
        batch = batch.select(key_list + [value_col])
        batch = batch.append_column("__mk", _mk_arrow(batch))
        df = batch.select(["__mk", value_col]).to_pandas()
        df = df.dropna(subset=[value_col])
        df = df.merge(bdf, on="__mk")  # string key: null groups survive
        lo_arr = df["__lo"].to_numpy(dtype=np.float64)
        width = np.maximum(
            df["__hi"].to_numpy(dtype=np.float64) - lo_arr, 1e-300
        )
        v = df[value_col].to_numpy(dtype=np.float64)
        b = np.clip(((v - lo_arr) / width * bins).astype(np.int64), 0, bins - 1)
        out = df[["__mk"]].copy()
        out["__bin"] = b
        out = out.groupby(["__mk", "__bin"], sort=False).size().reset_index(
            name="n"
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    hist_keys = ["__mk", "__bin"]
    hist = fold_partials(ds, hist_keys, hist_partial, sum_fold(hist_keys, ["n"]))

    def quantiles(t: pa.Table) -> pd.DataFrame:
        # per-key loop over the already-reduced histogram only (≤ bins
        # rows per key; O(bins) numpy per iteration)
        bdf = ray.get(bounds_idx_ref)
        mks, ests = [], []
        for mk, grp in t.to_pandas().groupby("__mk", sort=True):
            counts = np.zeros(bins, dtype=np.int64)
            counts[grp["__bin"].to_numpy()] = grp["n"].to_numpy()
            total = counts.sum()
            cum = np.cumsum(counts)
            target = q * total
            bi = int(np.searchsorted(cum, target, side="left"))
            bi = min(bi, bins - 1)
            prev = cum[bi - 1] if bi > 0 else 0
            in_bin = counts[bi]
            frac = (target - prev) / in_bin if in_bin else 0.0
            b_lo, b_hi = bdf.loc[mk, "__lo"], bdf.loc[mk, "__hi"]
            mks.append(mk)
            ests.append(b_lo + (bi + frac) * ((b_hi - b_lo) / bins))
        # slice the broadcast frame so key-column dtypes are identical in
        # every bucket's output (a hand-built frame would re-infer them)
        out = bdf.loc[mks, key_list].reset_index(drop=True)
        out[name] = np.asarray(ests, dtype=np.float64)
        return out

    # final read-off: the histogram is tiny (≤ keys × bins rows) — co-group
    # by key hash bucket, vectorized within. The row bound is free on the
    # driver (the bounds frame IS the key set), so the bucket count goes
    # through the standard rows-aware resolution instead of a literal.
    from ._bucket import co_group, default_buckets

    return co_group(
        [hist], ["__mk"], quantiles, default_buckets(est_rows=len(bounds) * bins)
    )


def heavy_hitters(
    ds,
    col: str | None = None,
    k: int = 20,
    capacity: int | None = None,
    values_fn=None,
):
    """Approximate top-``k`` most frequent values — mergeable
    Misra–Gries summaries (Agarwal et al., "Mergeable Summaries",
    PODS'12), the bounded-memory alternative when the exact
    ``vocabulary`` → top-k fold would carry billions of distinct
    (value, count) partial rows per block.

    Per block: one Arrow ``value_counts`` (exact within the block),
    then the MG reduction to ``capacity`` counters — subtract the
    (capacity+1)-th largest count from all, keep positives. Only
    ≤ capacity fixed-width rows per block cross the exchange. The
    per-value estimates then SUM (pure addition merges MG summaries),
    and the global top-k reads off with a sort+limit.

    Guarantee: for every value, ``true − N/(capacity+1) ≤ est ≤ true``
    (N = total value count); any value with frequency above
    ``N/(capacity+1)`` is guaranteed to surface in the summed summary.
    Default ``capacity = 8k`` keeps the bound well under the top-k
    gaps of Zipf-shaped data.

    ``values_fn(batch) → pa.Array`` overrides column extraction so
    callers can expand values INSIDE the block (e.g. tokenize a text
    column) without an explode ever shuffling; otherwise ``col`` is
    read directly. Nulls are ignored. Ties at the k boundary break
    deterministically (ascending value).

    Returns a Dataset ``(value, est)``, est descending, ≤ k rows.
    """
    if (col is None) == (values_fn is None):
        raise ValueError("pass exactly one of col= or values_fn=")
    cap = 8 * k if capacity is None else capacity
    if cap < 1:
        raise ValueError(f"capacity must be >= 1, got {cap}")

    def partial(batch: pa.Table) -> pa.Table:
        vals = values_fn(batch) if values_fn else batch[col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = vals.drop_null()
        vc = vals.value_counts()
        items = vc.field("values")
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        if len(counts) > cap:
            order = np.argsort(counts)[::-1]
            t = counts[order[cap]]
            keep = order[:cap][counts[order[:cap]] > t]
            items = items.take(pa.array(keep))
            est = counts[keep] - t
        else:
            est = counts
        return pa.table({"value": items, "est": pa.array(est, pa.int64())})

    from .aggregate import fold_partials, sum_fold

    summed = fold_partials(ds, ["value"], partial, sum_fold(["value"], ["est"]))
    return summed.sort(["est", "value"], descending=[True, False]).limit(k)


def grouped_heavy_hitters(
    ds,
    group_col: str,
    col: str | None = None,
    k: int = 10,
    capacity: int | None = None,
    values_fn=None,
):
    """Per-group approximate top-``k`` — the grouped form of
    :func:`heavy_hitters`, completing the sketch family's symmetry
    (HLL and Misra–Gries each in global + grouped form).

    Per block: exact (group, value) counts, then an independent MG
    reduction to ``capacity`` counters WITHIN each group — one
    ``np.lexsort`` over the block's rows, no per-group Python. The
    pruned partials sum per (group, value) through ``fold_partials`` and a
    ``grouped_topk`` reads off the per-group top-k. Per-group bound:
    ``true − N_g/(capacity+1) ≤ est ≤ true`` (``N_g`` = the group's
    value count), independent of how the group's rows spread over
    blocks.

    ``values_fn(batch) → (values: pa.Array, parents: np.ndarray)``
    expands values inside the block WITH row alignment — exactly the
    ``_tokens.flat_tokens`` contract, so per-group token top-k composes
    directly; otherwise ``col`` is read row-aligned. Null values are
    ignored; null GROUPS are kept (SQL GROUP BY semantics). Returns a
    Dataset ``(group_col, value, est)``.
    """
    if (col is None) == (values_fn is None):
        raise ValueError("pass exactly one of col= or values_fn=")
    cap = 8 * k if capacity is None else capacity
    if cap < 1:
        raise ValueError(f"capacity must be >= 1, got {cap}")

    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        if values_fn:
            expanded = values_fn(batch)
            if not (isinstance(expanded, tuple) and len(expanded) == 2):
                raise TypeError(
                    "grouped_heavy_hitters values_fn must return "
                    "(values: pa.Array, parents: np.ndarray) — the "
                    "flat_tokens contract; the GLOBAL heavy_hitters "
                    "takes a bare values array instead"
                )
            vals, par = expanded
            groups = batch[group_col].take(pa.array(par))
        else:
            vals = batch[col]
            groups = batch[group_col]
        t = pa.table({group_col: groups, "value": vals})
        t = t.filter(pc.is_valid(t["value"]))
        g = t.group_by([group_col, "value"]).aggregate([([], "count_all")])
        cnt = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(cnt):
            return pa.table(
                {
                    group_col: g[group_col],
                    "value": g["value"],
                    "est": pa.array([], pa.int64()),
                }
            )
        # segment by the ACTUAL group value via dictionary encoding —
        # indices are unique per distinct value within the block, so two
        # distinct groups can never merge their MG reductions (a raw
        # 64-bit hash admits a 2^-64 collision that would under-estimate)
        gh = (
            g[group_col]
            .combine_chunks()
            .dictionary_encode()
            .indices.fill_null(-1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        # group-major, count-descending order; one C-level pass
        order = np.lexsort((-cnt, gh))
        gh_s, cnt_s = gh[order], cnt[order]
        starts = np.flatnonzero(np.r_[True, gh_s[1:] != gh_s[:-1]])
        sizes = np.diff(np.r_[starts, len(gh_s)])
        rank = np.arange(len(gh_s)) - np.repeat(starts, sizes)
        # per-group MG threshold: the (cap+1)-th largest count (0 when
        # the group has <= cap distinct values)
        thr_per_group = np.where(
            sizes > cap, cnt_s[np.minimum(starts + cap, len(cnt_s) - 1)], 0
        )
        thr = np.repeat(thr_per_group, sizes)
        est = cnt_s - thr
        keep = (rank < cap) & (est > 0)
        kept = order[keep]
        return pa.table(
            {
                group_col: g[group_col].take(pa.array(kept)),
                "value": g["value"].take(pa.array(kept)),
                "est": pa.array(est[keep], pa.int64()),
            }
        )

    from .aggregate import fold_partials, grouped_topk, sum_fold

    keys = [group_col, "value"]
    summed = fold_partials(ds, keys, partial, sum_fold(keys, ["est"]))
    return grouped_topk(summed, [group_col], "est", k, tie_cols=["value"])
