"""Aggregation: partial-per-batch (combiner) + small final groupby.

The reference folds every record into one mutex-guarded job-global
``Mapping`` (``/root/reference/src/type_map.rs:156-173`` under
``src/job.rs:16``'s ``Arc<Mutex<_>>``) — its scalability ceiling. Here the
same rollups are monoid folds done partial-per-batch inside ``map_batches``
(one row per key per batch) followed by a ``groupby().aggregate(Sum)`` over
the tiny partials — the all-to-all shuffle only ever moves pre-aggregated
key rows, so dominant-rule / hot-conv_id skew cannot concentrate raw rows
on one reducer (this pre-combine is the salted-repartition equivalent: the
"salt" is the batch id, dropped at the final fold).

Also provides the grouped schema rollup (per-route dynamic schema — the
analog of ``Mapping.index_pattern_mappings``) as a mergeable per-batch
partial using the §P3 lattice.
"""

from __future__ import annotations

import json
from typing import Sequence

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.schema_merge import (
    TypeNode,
    merge_types,
    infer_type,
)

__all__ = [
    "count_rollup",
    "partial_counts_fn",
    "sum_rollup",
    "salted_sum",
    "schema_rollup_partials",
    "grouped_topk",
    "grouped_quantile",
    "quantile_filter",
    "pivot_counts",
    "grouped_moments",
    "grouped_corr",
    "grouped_collect",
    "rollup_counts",
    "cube_counts",
    "grouping_sets_counts",
]


def partial_counts_fn(keys: Sequence[str]):
    """Batch fn: collapse a batch to one row per distinct key tuple with a
    partial count column ``n`` (Arrow hash-aggregate, vectorized)."""

    key_list = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(key_list).aggregate([([], "count_all")])
        cols = {k: g[k] for k in key_list}
        cols["n"] = g["count_all"]
        return pa.table(cols)

    return partial


def count_rollup(ds, keys: Sequence[str], driver_fold_max_rows: int = 2_000_000):
    """Two-phase distributed count rollup. Returns a Dataset with
    ``keys + [n]``.

    Phase 1 collapses every block to one row per key inside ``map_batches``
    (the combiner — so skew in the raw rows never reaches a shuffle) and
    materializes the partials (tiny: O(keys × blocks)). Phase 2 folds:

    - partials ≤ ``driver_fold_max_rows``: a single pyarrow ``group_by``
      on the driver — measured ~2× faster end-to-end than chaining Ray's
      all-to-all Aggregate into the streaming pipeline, which stalls the
      map stage (see BASELINE.md);
    - larger (huge key spaces at 100 TB: ~#blocks × #keys rows): the
      distributed ``groupby().aggregate(Sum)`` over the already-combined
      partials.
    """
    import ray

    from .._env import remote_env

    key_list = list(keys)
    partials = ds.map_batches(
        partial_counts_fn(key_list),
        batch_format="pyarrow",
        batch_size=None,
        **remote_env(),
    ).materialize()
    if partials.count() > driver_fold_max_rows:
        return salted_sum(partials, key_list, "n")
    batches = [b for b in partials.iter_batches(batch_format="pyarrow", batch_size=None)]
    if not batches:
        return partials
    tbl = pa.concat_tables(batches)
    g = tbl.group_by(key_list).aggregate([("n", "sum")])
    cols = {k: g[k] for k in key_list}
    cols["n"] = g["n_sum"]
    return ray.data.from_arrow(pa.table(cols))


def sum_rollup(
    ds,
    keys: Sequence[str],
    sum_cols: Sequence[str],
    count_col: str | None = "n",
    driver_fold_max_rows: int = 2_000_000,
):
    """Grouped Sum(+Count) with the same partial-per-block + small-fold
    shape as :func:`count_rollup`: each block collapses to one row per key
    (Arrow hash-aggregate) carrying partial sums, and the tiny partials
    fold on the driver (distributed salted fallback above the threshold).
    Output columns: ``keys + sum_cols (+ count_col)`` — sums keep their
    input column names."""
    import ray

    from .._env import remote_env

    key_list = list(keys)
    sum_list = list(sum_cols)

    def partial(batch: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_list]
        if count_col:
            aggs.append(([], "count_all"))
        g = batch.group_by(key_list).aggregate(aggs)
        cols = {k: g[k] for k in key_list}
        for c in sum_list:
            cols[c] = g[f"{c}_sum"]
        if count_col:
            cols[count_col] = g["count_all"]
        return pa.table(cols)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None, **remote_env()
    ).materialize()
    if partials.count() > driver_fold_max_rows:
        from ray.data.aggregate import Sum

        agg_cols = sum_list + ([count_col] if count_col else [])
        return partials.groupby(key_list).aggregate(
            *[Sum(c, alias_name=c) for c in agg_cols]
        )
    batches = list(partials.iter_batches(batch_format="pyarrow", batch_size=None))
    if not batches:
        return partials
    tbl = pa.concat_tables(batches)
    agg_cols = sum_list + ([count_col] if count_col else [])
    g = tbl.group_by(key_list).aggregate([(c, "sum") for c in agg_cols])
    cols = {k: g[k] for k in key_list}
    for c in agg_cols:
        cols[c] = g[f"{c}_sum"]
    return ray.data.from_arrow(pa.table(cols))


def salted_sum(ds, keys: Sequence[str], value_col: str, salt: int = 64):
    """Explicit salted two-phase distributed Sum (the north-rule skew
    handler for the huge-key-space path): phase 1 groups by
    ``keys + [__salt]`` — a dominant key's rows split across ``salt``
    reducers — phase 2 drops the salt and folds the ≤``salt`` rows per
    key. Use when per-block pre-combining can't bound the partial count
    (e.g. millions of distinct keys per block)."""
    import numpy as np
    from ray.data.aggregate import Sum

    from .._env import remote_env

    key_list = list(keys)

    def add_salt(batch: pa.Table) -> pa.Table:
        # deterministic-per-batch pseudo-salt: row index modulo salt —
        # rows of one hot key in one batch spread across salt buckets
        return batch.append_column(
            "__salt", pa.array(np.arange(len(batch), dtype=np.int64) % salt)
        )

    phase1 = (
        ds.map_batches(add_salt, batch_format="pyarrow", **remote_env())
        .groupby(key_list + ["__salt"])
        .aggregate(Sum(value_col, alias_name=value_col))
    )
    return phase1.groupby(key_list).aggregate(Sum(value_col, alias_name=value_col))


def grouped_topk(
    ds,
    keys: Sequence[str],
    value_col: str,
    k: int,
    tie_cols: Sequence[str] = (),
    descending: bool = True,
    driver_fold_max_rows: int = 2_000_000,
):
    """Top-k rows per key group (e.g. "3 highest-value events per type").

    Same partial-combine shape as :func:`count_rollup`: every block
    reduces to ≤ k rows per key (one C-level sort + ``groupby.head``, no
    per-key Python), the O(keys × k × blocks) partials materialize, and
    the identical fold runs once more over them (driver below the
    threshold, per-key ``map_groups`` over the already-reduced partials
    above it). Ties break by ``tie_cols`` ascending — pass enough for a
    deterministic result.
    """
    import pandas as pd
    import ray

    from .._env import remote_env

    key_list = list(keys)
    sort_cols = key_list + [value_col] + list(tie_cols)
    ascending = [True] * len(key_list) + [not descending] + [True] * len(tie_cols)

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.sort_values(sort_cols, ascending=ascending, kind="stable")
            .groupby(key_list, sort=False, dropna=False)
            .head(k)
        )
        return out

    partials = ds.map_batches(
        local_topk, batch_format="pandas", batch_size=None, **remote_env()
    ).materialize()
    if partials.count() > driver_fold_max_rows:
        # co-group partials by key-hash bucket: the in-bucket fold is the
        # same C-level sort+head over all of the bucket's keys at once
        from ._bucket import with_bucket

        return (
            with_bucket(partials, key_list, 256)
            .groupby("__bucket")
            .map_groups(
                lambda g: local_topk(g).drop(columns="__bucket"),
                batch_format="pandas",
                **remote_env(),
            )
        )
    tbl = partials.to_pandas()
    return ray.data.from_pandas(local_topk(tbl).reset_index(drop=True))


def pivot_counts(
    ds,
    index_cols: Sequence[str],
    pivot_col: str,
    values: Sequence[str],
    suffix: str = "_n",
):
    """Pivot (wide) counts: one row per ``index_cols`` tuple with one
    ``<value><suffix>`` int64 column per pivot value (the conditional-
    aggregation feature-engineering shape).

    ``values`` is explicit — the scale-sane form (an auto-discovery pass
    over 100 TB to learn the column set is its own query; and an
    unbounded pivot width is a schema hazard). Rows whose ``pivot_col``
    is not in ``values`` count toward no column. Same partial-combine
    shape as :func:`count_rollup`: each block collapses to one wide row
    per index tuple, then the tiny partials Sum."""
    idx = list(index_cols)
    vals = list(values)
    out_names = [f"{v}{suffix}" for v in vals]

    def partial(batch: pa.Table) -> pa.Table:
        cols = {k: batch[k] for k in idx}
        for v, name in zip(vals, out_names):
            # null pivot values count toward no column — fill the null
            # comparison with 0 so an all-null key yields 0s, not nulls
            # (matching SQL's SUM(CASE ... ELSE 0))
            cols[name] = pa.compute.fill_null(
                pa.compute.cast(
                    pa.compute.equal(batch[pivot_col], v), pa.int64()
                ),
                0,
            )
        wide = pa.table(cols)
        g = wide.group_by(idx).aggregate([(n, "sum") for n in out_names])
        out = {k: g[k] for k in idx}
        for n in out_names:
            out[n] = g[f"{n}_sum"]
        return pa.table(out)

    from .._env import remote_env

    pre = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None, **remote_env()
    )
    return sum_rollup(pre, idx, out_names, count_col=None)


def grouped_quantile(
    ds,
    keys: Sequence[str],
    value_col: str,
    q: float,
    out_col: str | None = None,
):
    """Exact grouped continuous quantile (``quantile_cont`` semantics:
    linear interpolation at ``pos = q·(n−1)`` over the sorted non-null
    values).

    Shuffles the (keys, value) pairs — column-pruned, so the exchange
    moves two columns, not whole rows — co-grouped by key-hash bucket;
    each bucket computes ALL of its groups' quantiles with one C-level
    ``pandas.groupby().quantile`` (linear interpolation — the same
    formula as DuckDB's, verified equal). Exactness requires each
    group's values together (quantiles don't decompose into mergeable
    partials) — a single giant group still concentrates its bucket; use
    a mergeable sketch for that shape (see ``stages/sketch.py``).
    """
    import pandas as pd

    from .._env import remote_env
    from ._bucket import bucket_column

    key_list = list(keys)
    name = out_col or f"q{q}"

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = batch.select(key_list + [value_col])
        return batch.append_column("__bucket", bucket_column(batch, key_list, 256))

    def bucket_quantiles(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(key_list, sort=True, dropna=False)[value_col]
            .quantile(q, interpolation="linear")
            .reset_index()
            .rename(columns={value_col: name})
        )
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", **remote_env())
        .groupby("__bucket")
        .map_groups(bucket_quantiles, batch_format="pandas", **remote_env())
    )


def quantile_filter(
    ds,
    group_col: str,
    value_col: str,
    q: float,
    keep: str = "above",
    broadcast_max_groups: int = 1_000_000,
):
    """Per-group percentile filter: keep each group's rows whose
    ``value_col`` is strictly above (``keep="above"``) or at-or-below
    (``keep="below"``) the group's exact q-quantile — the
    quality-filtering composition (drop the bottom decile per language,
    keep short docs per source, ...). Join semantics throughout: rows
    with a NULL group or NULL value never pass (SQL ``JOIN ... WHERE v >
    thr``), and all-null groups keep nothing.

    Scale shape: the threshold table is one row per group (the exact
    :func:`grouped_quantile` co-group); when it fits
    ``broadcast_max_groups`` it ships ONCE via ``ray.put`` and the
    filter is a vectorized per-batch lookup — no shuffle of ``ds``
    at all. Above that, a group-keyed ``bucketed_hash_join`` takes
    over (one exchange of ``ds``, still never materialized).
    """
    import ray

    from .._env import remote_env

    if keep not in ("above", "below"):
        raise ValueError(f"keep must be above/below, got {keep!r}")

    # materialize: consumed twice (count + broadcast/join) — without it
    # the threshold co-group's shuffle would execute twice
    thr = grouped_quantile(
        ds, [group_col], value_col, q, out_col="__thr"
    ).materialize()

    n_groups = thr.count()
    if n_groups > broadcast_max_groups:
        from .join import bucketed_hash_join

        # grouped_quantile emits pandas blocks (object-dtype strings);
        # round-trip to Arrow so the join's dtype check sees real types
        thr_arrow = thr.map_batches(
            lambda b: b, batch_format="pyarrow", **remote_env()
        )
        joined = bucketed_hash_join(ds, thr_arrow, on=group_col)

        def jfilter(batch: pa.Table) -> pa.Table:
            v = batch[value_col]
            t = batch["__thr"]
            m = pc.greater(v, t) if keep == "above" else pc.less_equal(v, t)
            return batch.filter(pc.fill_null(m, False)).drop_columns(["__thr"])

        return joined.map_batches(jfilter, batch_format="pyarrow", **remote_env())

    import numpy as np
    import pandas as pd

    tdf = thr.to_pandas()
    # JOIN semantics: a NULL group matches nothing
    tdf = tdf[pd.notna(tdf[group_col])]
    thr_ref = ray.put(dict(zip(tdf[group_col], tdf["__thr"])))

    def bfilter(batch: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        lookup = ray.get(thr_ref)
        g = pd.Series(batch[group_col].to_numpy(zero_copy_only=False))
        t = g.map(lookup).to_numpy(dtype=np.float64, na_value=np.nan)
        v = pd.Series(batch[value_col].to_numpy(zero_copy_only=False)).to_numpy(
            dtype=np.float64, na_value=np.nan
        )
        m = (v > t) if keep == "above" else (v <= t)  # NaN compares False
        return batch.filter(pa.array(m))

    return ds.map_batches(bfilter, batch_format="pyarrow", **remote_env())


def grouped_corr(
    ds,
    keys: Sequence[str],
    x_col: str,
    y_col: str,
    decimals: int = 4,
):
    """Grouped Pearson correlation — SQL ``CORR(x, y) GROUP BY keys``
    semantics (pairs where EITHER side is null are excluded; groups with
    fewer than 2 complete pairs or zero variance yield null). Dataset
    ``keys + [n, corr]``.

    Mergeable-partials shape: each block folds to one row per key
    carrying ``(n, Σx, Σy, Σx², Σy², Σxy)`` (Arrow hash-aggregate), the
    fixed-width partials sum through :func:`sum_rollup`, and the
    correlation is one final map — raw rows never shuffle. With integer
    inputs the six sums are EXACT, so the final float formula is
    bit-deterministic on both engines — feed scaled ints (cents,
    epoch seconds) and write the oracle as the explicit formula over
    ``CAST(SUM(...) AS BIGINT)``s rather than ``CORR()`` for an exact
    4dp contract; float inputs work but carry the usual
    summation-order last-digit hazard.
    """
    import numpy as np
    import ray

    from .._env import remote_env

    key_list = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[x_col]
        y = batch[y_col]
        ok = pc.and_(pc.is_valid(x), pc.is_valid(y))
        t = batch.filter(ok).select(key_list + [x_col, y_col])
        # integer inputs keep EXACT int64 sums (the grouped_moments
        # fixed-point convention — multiply_checked fails loudly if a
        # product would wrap); floats fall back to float64 partials
        int_mode = pa.types.is_integer(x.type) and pa.types.is_integer(y.type)
        tgt = pa.int64() if int_mode else pa.float64()
        mul = pc.multiply_checked if int_mode else pc.multiply
        xf = pc.cast(t[x_col], tgt)
        yf = pc.cast(t[y_col], tgt)
        t2 = pa.table(
            {
                **{k: t[k] for k in key_list},
                "sx": xf,
                "sy": yf,
                "sxx": mul(xf, xf),
                "syy": mul(yf, yf),
                "sxy": mul(xf, yf),
            }
        )
        g = t2.group_by(key_list).aggregate(
            [(c, "sum") for c in ("sx", "sy", "sxx", "syy", "sxy")]
            + [([], "count_all")]
        )
        cols = {k: g[k] for k in key_list}
        for c in ("sx", "sy", "sxx", "syy", "sxy"):
            cols[c] = g[f"{c}_sum"]
        cols["n"] = pc.cast(g["count_all"], pa.int64())
        return pa.table(cols)

    folded = sum_rollup(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, **remote_env()),
        key_list,
        ["sx", "sy", "sxx", "syy", "sxy", "n"],
        count_col=None,
    )

    def finish(batch: pa.Table) -> pa.Table:
        # all-float64 formula arithmetic (int64 sx*sx could wrap in
        # numpy); the SQL twin casts its exact BIGINT sums to DOUBLE
        # before the same formula, so both engines run identical IEEE
        # ops on identical inputs
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = batch["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
        sy = batch["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = batch["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
        syy = batch["syy"].to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = batch["sxy"].to_numpy(zero_copy_only=False).astype(np.float64)
        num = n * sxy - sx * sy
        den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where((n >= 2) & (den2 > 0), num / np.sqrt(den2), np.nan)
        cols = {k: batch[k] for k in key_list}
        cols["n"] = pc.cast(batch["n"], pa.int64())
        cols["corr"] = pc.round(
            pa.array(corr, pa.float64(), from_pandas=True),  # NaN -> null
            ndigits=decimals,
            round_mode="half_towards_infinity",
        )
        return pa.table(cols)

    return folded.map_batches(finish, batch_format="pyarrow", **remote_env())


def grouped_moments(
    ds,
    keys: Sequence[str],
    value_col: str,
    scale: int = 100,
):
    """Mergeable first/second moments per group, as EXACT integers:
    ``keys + [n, sum_scaled, sumsq_scaled]`` where values are first
    scaled by ``scale`` and rounded to int64 (cents-style fixed point).
    Mean/variance/stddev derive downstream as ``sum/(scale·n)`` and the
    usual ``E[x²]−E[x]²`` — keeping the distributed fold integral makes
    it associative AND float-free (a float sum's result depends on
    reduction order; an int sum's doesn't), so the oracle comparison is
    exact. Null values are skipped; n counts non-null rows (SQL
    COUNT(col))."""
    from .._env import remote_env

    key_list = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        v = pc.cast(
            # half-away ties like DuckDB/SQL ROUND (Arrow defaults to
            # half-even; real doubles almost never tie, but pin it).
            # Widen to float64 FIRST: scaling a float32 column in
            # float32 rounds differently than SQL's double promotion
            pc.round(
                pc.multiply(pc.cast(batch[value_col], pa.float64()), float(scale)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                **{k: batch[k] for k in key_list},
                "sum_scaled": v,
                "sumsq_scaled": pc.multiply(v, v),
                "__nn": pc.cast(pc.is_valid(v), pa.int64()),
            }
        )
        g = t.group_by(key_list).aggregate(
            [("sum_scaled", "sum"), ("sumsq_scaled", "sum"), ("__nn", "sum")]
        )
        return pa.table(
            {
                **{k: g[k] for k in key_list},
                "n": g["__nn_sum"],
                "sum_scaled": g["sum_scaled_sum"],
                "sumsq_scaled": g["sumsq_scaled_sum"],
            }
        )

    return sum_rollup(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, **remote_env()),
        key_list,
        ["n", "sum_scaled", "sumsq_scaled"],
        count_col=None,
    )


def grouped_collect(
    ds,
    keys: Sequence[str],
    value_col: str,
    distinct: bool = True,
    sep: str = "|",
    buckets: int | None = None,
):
    """Per-group collected values as a SORTED list column plus a joined
    string — the SQL ``list_sort(list(DISTINCT x))`` /
    ``string_agg(... ORDER BY ...)`` shape. Output: ``keys + [values:
    list<string>, values_joined: string]``; null values are skipped
    (SQL aggregate semantics), and sorting pins a deterministic,
    oracle-comparable order.

    Bucketed co-group like the other grouped ops: one Arrow multi-key
    sort per bucket, run-boundary offsets → ``ListArray`` slices +
    one vectorized ``binary_join`` — no Python per group. A single
    giant group still concentrates its bucket (same caveat as
    ``grouped_quantile``)."""
    import numpy as np

    from .._env import remote_env
    from ._bucket import with_bucket

    key_list = list(keys)

    def collect(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__bucket"])
        out_schema = pa.schema(
            [(k, g.schema.field(k).type) for k in key_list]
            + [
                ("values", pa.list_(pa.string())),
                ("values_joined", pa.string()),
            ]
        )
        g = g.filter(pc.is_valid(g[value_col]))
        if len(g) == 0:
            return out_schema.empty_table()
        vals = pc.cast(g[value_col], pa.string())
        g = g.set_column(
            g.column_names.index(value_col), value_col, vals
        )
        order = pc.sort_indices(
            g, sort_keys=[(c, "ascending") for c in key_list + [value_col]]
        )
        g = g.take(order)
        n = len(g)
        key_change = np.zeros(n, dtype=bool)
        key_change[0] = True
        for k in key_list:
            arr = g[k].to_numpy(zero_copy_only=False)
            neq = arr[1:] != arr[:-1]
            # NaN != NaN would fragment the null-key group (numeric and
            # temporal keys promote nulls to NaN/NaT) — SQL GROUP BY has
            # ONE null group, so two adjacent nulls are NOT a boundary
            import pandas as _pd

            nulls = _pd.isna(arr)
            neq &= ~(nulls[1:] & nulls[:-1])
            key_change[1:] |= neq
        if distinct:
            v_np = g[value_col].to_numpy(zero_copy_only=False)
            keep = key_change.copy()
            keep[1:] |= v_np[1:] != v_np[:-1]
            idx = np.flatnonzero(keep)
            g = g.take(pa.array(idx, pa.int64()))
            key_change = key_change[idx]
            n = len(g)
        starts = np.flatnonzero(key_change)
        bounds = np.concatenate([starts, [n]]).astype(np.int64)
        values_col = g[value_col].combine_chunks()
        lists = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), values_col
        )
        joined = pc.cast(pc.binary_join(lists, sep), pa.string())
        firsts = pa.array(starts, pa.int64())
        return pa.table(
            {
                **{k: g[k].take(firsts) for k in key_list},
                "values": lists,
                "values_joined": joined,
            },
            schema=out_schema,
        )

    return (
        with_bucket(ds, key_list, buckets)
        .groupby("__bucket")
        .map_groups(collect, batch_format="pyarrow", **remote_env())
    )


def schema_rollup_partials(ds, route_col: str = "route", sample_per_batch: int = 64):
    """Per-route dynamic-schema rollup (``index_pattern_mappings`` analog).

    Each batch contributes one (route, serialized TypeNode) partial inferred
    from a bounded sample of rows; partials merge associatively on the
    driver via the §P3 lattice. Returns ``dict[route, TypeNode]``.

    The sample bound keeps this metadata fold O(routes) not O(rows) — the
    physical Arrow schema is exact regardless; the dynamic tree only feeds
    the per-sink ``_schema.json`` sidecar.
    """

    def partial(batch: pa.Table) -> pa.Table:
        routes: list[str] = []
        nodes: list[str] = []
        for route_val in batch[route_col].unique().to_pylist():
            mask = pa.compute.equal(batch[route_col], route_val)
            sub = batch.filter(mask).slice(0, sample_per_batch)
            node: TypeNode | None = None
            for row in sub.to_pylist():
                t = infer_type(row)
                node = t if node is None else merge_types(node, t)
            routes.append(route_val)
            nodes.append(_dump_node(node))
        return pa.table({"route": pa.array(routes, pa.string()),
                         "node": pa.array(nodes, pa.string())})

    from .._env import remote_env

    partials = ds.map_batches(partial, batch_format="pyarrow", **remote_env())
    merged: dict[str, TypeNode] = {}
    for row in partials.take_all():  # tiny: one row per (route, batch)
        node = _load_node(row["node"])
        r = row["route"]
        merged[r] = merge_types(merged[r], node) if r in merged else node
    return merged


def _dump_node(node) -> str:
    from ..functions.casts import SemType
    from ..functions.schema_merge import ListNode, ObjectNode

    def enc(n):
        if isinstance(n, SemType):
            return n.value
        if isinstance(n, ListNode):
            return {"__list__": {str(k): enc(v) for k, v in n.items()}}
        if isinstance(n, ObjectNode):
            return {"__obj__": {k: enc(v) for k, v in n.items()}}
        raise TypeError(n)

    return json.dumps(enc(node))


def _load_node(s: str):
    from ..functions.casts import SemType
    from ..functions.schema_merge import ListNode, ObjectNode

    def dec(n):
        if isinstance(n, str):
            return SemType(n)
        if "__list__" in n:
            return ListNode({int(k): dec(v) for k, v in n["__list__"].items()})
        return ObjectNode({k: dec(v) for k, v in n["__obj__"].items()})

    return dec(json.loads(s))


def cube_counts(ds, keys: Sequence[str]):
    """SQL ``GROUP BY CUBE(keys)`` counts: one row group per SUBSET of
    the key set — ``2^k`` levels, dropped key columns padded as typed
    nulls, unioned into one Dataset ``keys + [n]``.

    Cost shape: only the finest level (all keys) touches the raw rows
    (one :func:`count_rollup`); every other subset folds from that
    already-tiny table with :func:`sum_rollup` — ``2^k − 1`` folds of
    O(distinct-key-tuples) rows, so keep ``k`` small (CUBE is
    combinatorial by definition). Same padded-null ambiguity note as
    :func:`rollup_counts` (SQL's GROUPING() is not reproduced)."""
    from itertools import combinations

    import ray

    from .._env import remote_env
    from ._bucket import arrow_type_of

    key_list = list(keys)
    if not key_list:
        raise ValueError("cube_counts needs at least one key")
    types = {
        n: t
        for n, t in zip(ds.schema().names, ds.schema().types)
        if n in key_list
    }

    finest = count_rollup(ds, key_list)

    def pad_level(level_keys: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for c in key_list:
                if c in level_keys:
                    cols[c] = batch[c]
                else:
                    cols[c] = pa.nulls(len(batch), arrow_type_of(types[c]))
            cols["n"] = pc.cast(batch["n"], pa.int64())
            return pa.table(cols)

        return fn

    out = finest.map_batches(
        pad_level(key_list), batch_format="pyarrow", **remote_env()
    )
    for r in range(len(key_list) - 1, 0, -1):
        for sub in combinations(key_list, r):
            kept = list(sub)
            lvl = sum_rollup(
                finest.select_columns(kept + ["n"]), kept, ["n"], count_col=None
            )
            out = out.union(
                lvl.map_batches(pad_level(kept), batch_format="pyarrow", **remote_env())
            )
    # grand total: fold the finest level directly on the driver (it is
    # already the smallest materialized table containing every row)
    grand = sum(
        int(pc.sum(b["n"], min_count=0).as_py() or 0)
        for b in finest.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    total = ray.data.from_arrow(pa.table({"n": pa.array([grand], pa.int64())}))
    return out.union(
        total.map_batches(pad_level([]), batch_format="pyarrow", **remote_env())
    )


def grouping_sets_counts(ds, keys: Sequence[str], sets: Sequence[Sequence[str]]):
    """SQL ``GROUP BY GROUPING SETS ((...), ...)`` counts: one row group
    per caller-listed key subset — the generalization
    :func:`rollup_counts` and :func:`cube_counts` are special cases of.
    Dropped key columns pad as typed nulls; output ``keys + [n]``.

    Cost shape: the finest requested level is computed once from the
    raw rows; every OTHER set folds from it when it is a subset of the
    finest (the cascade), and pays its own :func:`count_rollup` over the
    raw rows only when it is not (e.g. sets ``[(a,b),(c)]`` share no
    finest superset)."""
    import ray

    from .._env import remote_env
    from ._bucket import arrow_type_of

    key_list = list(keys)
    if not key_list:
        raise ValueError("grouping_sets_counts needs at least one key")
    set_lists = [list(g) for g in sets]
    if not set_lists:
        raise ValueError("grouping_sets_counts needs at least one set")
    for g in set_lists:
        unknown = [c for c in g if c not in key_list]
        if unknown:
            raise ValueError(f"grouping set column(s) {unknown} not in keys")
    types = {
        n: t
        for n, t in zip(ds.schema().names, ds.schema().types)
        if n in key_list
    }

    # the finest level: the widest requested set (ties: first)
    finest_keys = max(set_lists, key=len)
    finest = (
        count_rollup(ds, finest_keys)
        if finest_keys
        else None  # () alone: handled below
    )

    def pad_level(level_keys: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for c in key_list:
                if c in level_keys:
                    cols[c] = batch[c]
                else:
                    cols[c] = pa.nulls(len(batch), arrow_type_of(types[c]))
            cols["n"] = pc.cast(batch["n"], pa.int64())
            return pa.table(cols)

        return fn

    out = None
    for g in set_lists:
        if g and set(g) <= set(finest_keys):
            lvl = (
                finest
                if g == finest_keys
                else sum_rollup(
                    finest.select_columns(g + ["n"]), g, ["n"], count_col=None
                )
            )
        elif g:
            lvl = count_rollup(ds, g)  # disjoint set: own pass over raw rows
        else:
            # grand total () — fold the finest (or a 1-key rollup) on
            # the driver
            base = finest if finest is not None else count_rollup(ds, key_list[:1])
            grand = sum(
                int(pc.sum(b["n"], min_count=0).as_py() or 0)
                for b in base.iter_batches(batch_format="pyarrow", batch_size=None)
            )
            lvl = ray.data.from_arrow(
                pa.table({"n": pa.array([grand], pa.int64())})
            )
        padded = lvl.map_batches(
            pad_level(g), batch_format="pyarrow", **remote_env()
        )
        out = padded if out is None else out.union(padded)
    return out


def rollup_counts(ds, keys: Sequence[str], total_row: bool = True):
    """SQL ``GROUP BY ROLLUP(keys)`` counts: one :func:`count_rollup`
    per key PREFIX — ``(k1..kn), (k1..kn-1), …, ()`` — with the dropped
    key columns padded as typed nulls, unioned into one Dataset
    ``keys + [n]``.

    Cost shape: the finest level pays the normal partial-per-block
    fold; every coarser level folds over the PREVIOUS level's (already
    tiny) output, not the raw rows — the classic rollup cascade, so the
    raw data is read exactly once. ``total_row=False`` drops the grand
    total (plain ROLLUP keeps it). NULL data values group like SQL
    (count_rollup's Arrow hash-aggregate keeps null groups), which
    matches DuckDB's ROLLUP output where real-null groups and padded
    rollup nulls coincide — identical to SQL's own ambiguity (GROUPING()
    exists there for the same reason; not reproduced here)."""
    import ray

    from .._env import remote_env

    key_list = list(keys)
    if not key_list:
        raise ValueError("rollup_counts needs at least one key")
    types = {
        n: t
        for n, t in zip(ds.schema().names, ds.schema().types)
        if n in key_list
    }
    from ._bucket import arrow_type_of

    levels = []
    finest = count_rollup(ds, key_list)
    levels.append(finest)
    prev = finest
    for cut in range(len(key_list) - 1, 0, -1):
        kept = key_list[:cut]
        prev = sum_rollup(prev.select_columns(kept + ["n"]), kept, ["n"], count_col=None)
        levels.append(prev)
    if total_row:
        # grand total: the coarsest level is already a tiny folded
        # dataset (one row per first-key value) — sum it on the driver
        # directly, no extra Ray stage
        grand = sum(
            int(pc.sum(b["n"], min_count=0).as_py() or 0)
            for b in prev.iter_batches(batch_format="pyarrow", batch_size=None)
        )
        levels.append(
            ray.data.from_arrow(pa.table({"n": pa.array([grand], pa.int64())}))
        )

    def pad_level(level_keys: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for c in key_list:
                if c in level_keys:
                    cols[c] = batch[c]
                else:
                    cols[c] = pa.nulls(len(batch), arrow_type_of(types[c]))
            cols["n"] = pc.cast(batch["n"], pa.int64())
            return pa.table(cols)

        return fn

    out = None
    n_levels = len(key_list)
    for i, lvl in enumerate(levels):
        kept = key_list[: n_levels - i]
        padded = lvl.map_batches(
            pad_level(kept), batch_format="pyarrow", **remote_env()
        )
        out = padded if out is None else out.union(padded)
    return out
