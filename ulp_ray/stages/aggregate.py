"""Aggregation: partial-per-batch (combiner) + one small fold.

The reference folds every record into one mutex-guarded job-global
``Mapping`` (``/root/reference/src/type_map.rs:156-173`` under
``src/job.rs:16``'s ``Arc<Mutex<_>>``) — its scalability ceiling. Here the
same rollups are monoid folds through one primitive, :func:`fold_partials`:
a partial per block inside ``map_batches`` (one row per key per block),
then one fold over those tiny partials — on the driver, or once per
``co_group`` bucket when there are too many of them. Only pre-aggregated
key rows ever reach an exchange, so dominant-rule / hot-conv_id skew
cannot concentrate raw rows on one reducer (this pre-combine is the
salted-repartition equivalent: the "salt" is the block, dropped at the
fold; :func:`salted_sum` is the explicit form for inputs whose blocks
cannot pre-combine).

Also provides the grouped schema rollup (per-route dynamic schema — the
analog of ``Mapping.index_pattern_mappings``) as a mergeable per-batch
partial using the §P3 lattice.
"""

from __future__ import annotations

import json
from typing import Sequence

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.schema_merge import TypeNode, infer_table_node, merge_types

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


#: At most this many partial rows fold on the driver; above it the fold
#: runs once per ``co_group`` bucket. Read at call time.
DRIVER_FOLD_MAX_ROWS = 2_000_000


def fold_partials(ds, keys: Sequence[str], partial, fold):
    """The combiner rollup every partial-per-block aggregate runs
    through. ``partial(batch: pa.Table)`` maps each block to one row per
    key (Arrow or pandas out) and the partials materialize once — tiny:
    O(keys × blocks). ``fold(t: pa.Table)`` turns partial rows into one
    final row per key, finishing columns included (Arrow or pandas out).

    - At most :data:`DRIVER_FOLD_MAX_ROWS` partial rows: ``fold`` runs once
      on the driver over all of them — measured ~2× faster end-to-end
      than chaining Ray's all-to-all Aggregate into the streaming
      pipeline, which stalls the map stage (see BASELINE.md).
    - More (huge key spaces at 100 TB: ~#blocks × #keys rows): ``fold``
      runs once per bucket of ``co_group([partials], keys, fold)``, which
      holds every partial row of its keys (null keys included).

    No partial rows (an empty input runs no partial) gives back the
    empty, schema-less ``partials``."""
    import ray

    from .._env import remote_env

    key_list = list(keys)
    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None, **remote_env()
    ).materialize()
    if partials.count() > DRIVER_FOLD_MAX_ROWS:
        from ._bucket import co_group

        return co_group([partials], key_list, fold)
    batches = list(partials.iter_batches(batch_format="pyarrow", batch_size=None))
    if not batches:
        return partials
    # permissive, as a pandas concat: pandas partials type a column per
    # block (all-null → null, int with nulls → double)
    out = fold(pa.concat_tables(batches, promote_options="permissive"))
    if isinstance(out, pa.Table):
        return ray.data.from_arrow(out)
    return ray.data.from_pandas(out)


def sum_fold(keys: Sequence[str], cols: Sequence[str]):
    """The fold of every Sum rollup: one row per key with the Sum of each
    of ``cols`` under its own name (``keys + cols``)."""
    key_list = list(keys)
    col_list = list(cols)

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(key_list).aggregate([(c, "sum") for c in col_list])
        out = {k: g[k] for k in key_list}
        for c in col_list:
            out[c] = g[f"{c}_sum"]
        return pa.table(out)

    return fold


def count_rollup(ds, keys: Sequence[str]):
    """Two-phase distributed count rollup. Returns a Dataset with
    ``keys + [n]``: every block collapses to one row per key
    (:func:`partial_counts_fn` — the combiner, so skew in the raw rows
    never reaches a shuffle) and the partial counts Sum through
    :func:`fold_partials`."""
    key_list = list(keys)
    return fold_partials(
        ds, key_list, partial_counts_fn(key_list), sum_fold(key_list, ["n"])
    )


def sum_rollup(
    ds,
    keys: Sequence[str],
    sum_cols: Sequence[str],
    count_col: str | None = "n",
):
    """Grouped Sum(+Count) with the shape of :func:`count_rollup`: each
    block collapses to one row per key (Arrow hash-aggregate) carrying
    partial sums, and the partials Sum through :func:`fold_partials`.
    Output columns: ``keys + sum_cols (+ count_col)`` — sums keep their
    input column names. An input that already holds one row per key per
    block goes to :func:`fold_partials` with :func:`sum_fold` directly."""
    key_list = list(keys)
    sum_list = list(sum_cols)
    agg_cols = sum_list + ([count_col] if count_col else [])

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

    return fold_partials(ds, key_list, partial, sum_fold(key_list, agg_cols))


def salted_sum(ds, keys: Sequence[str], value_col: str, salt: int = 64):
    """Explicit salted two-phase distributed Sum (the north-rule skew
    handler for inputs whose blocks cannot pre-combine, e.g. millions of
    distinct keys per block): phase 1 co-groups by ``keys + [__salt]`` —
    a dominant key's rows split across ``salt`` buckets — phase 2
    co-groups by ``keys`` and folds the ≤``salt`` rows per key. Both
    phases are ``co_group`` calls with :func:`sum_fold`, so null keys
    group like SQL. Returns ``keys + [value_col]``."""
    import numpy as np

    from .._env import remote_env
    from ._bucket import co_group

    key_list = list(keys)
    salted_keys = key_list + ["__salt"]

    def add_salt(batch: pa.Table) -> pa.Table:
        # deterministic-per-batch pseudo-salt: row index modulo salt —
        # rows of one hot key in one batch spread across salt buckets
        return batch.append_column(
            "__salt", pa.array(np.arange(len(batch), dtype=np.int64) % salt)
        )

    salted = ds.map_batches(add_salt, batch_format="pyarrow", **remote_env())
    phase1 = co_group([salted], salted_keys, sum_fold(salted_keys, [value_col]))
    return co_group([phase1], key_list, sum_fold(key_list, [value_col]))


def grouped_topk(
    ds,
    keys: Sequence[str],
    value_col: str,
    k: int,
    tie_cols: Sequence[str] = (),
    descending: bool = True,
):
    """Top-k rows per key group (e.g. "3 highest-value events per type").

    A :func:`fold_partials` rollup whose partial and fold are the same
    step: every block reduces to ≤ k rows per key (one Arrow sort + a
    rank within each key run, no per-key Python), and the O(keys × k ×
    blocks) partials reduce once more the same way. Rows keep the input's
    column types. Null and NaN values sort last; ties break by
    ``tie_cols`` ascending — pass enough for a deterministic result.
    """
    import numpy as np

    from ._bucket import run_starts

    key_list = list(keys)
    order = (
        [(c, "ascending") for c in key_list]
        + [(value_col, "descending" if descending else "ascending")]
        + [(c, "ascending") for c in tie_cols]
    )

    def local_topk(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=order, null_placement="at_end"))
        starts = np.flatnonzero(run_starts(t, key_list))
        runs = np.diff(np.append(starts, len(t)))
        rank = np.arange(len(t)) - np.repeat(starts, runs)
        return t.filter(pa.array(rank < k))

    return fold_partials(ds, key_list, local_topk, local_topk)


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
    is not in ``values`` count toward no column. A :func:`fold_partials`
    rollup: each block collapses to one wide row per index tuple, then
    the tiny partials Sum."""
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

    return fold_partials(ds, idx, partial, sum_fold(idx, out_names))


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

    from ._bucket import co_group

    key_list = list(keys)
    name = out_col or f"q{q}"

    def bucket_quantiles(t: pa.Table) -> pd.DataFrame:
        out = (
            t.to_pandas()
            .groupby(key_list, sort=True, dropna=False)[value_col]
            .quantile(q, interpolation="linear")
            .reset_index()
            .rename(columns={value_col: name})
        )
        return out

    return co_group(
        [ds.select_columns(key_list + [value_col])], key_list, bucket_quantiles
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
    fixed-width partials Sum through :func:`fold_partials`, whose fold
    also computes the correlation — raw rows never shuffle. With integer
    inputs the six sums are EXACT (summed in decimal128, then a checked
    cast to int64: a product or a sum past int64 raises rather than
    wrapping), so the final float formula is bit-deterministic on both
    engines — feed scaled ints (cents,
    epoch seconds) and write the oracle as the explicit formula over
    ``CAST(SUM(...) AS BIGINT)``s rather than ``CORR()`` for an exact
    4dp contract; float inputs work but carry the usual
    summation-order last-digit hazard.
    """
    import numpy as np

    key_list = list(keys)
    sums = sum_fold(key_list, ["sx", "sy", "sxx", "syy", "sxy", "n"])

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[x_col]
        y = batch[y_col]
        ok = pc.and_(pc.is_valid(x), pc.is_valid(y))
        t = batch.filter(ok).select(key_list + [x_col, y_col])
        # integer inputs keep EXACT sums (the grouped_moments fixed-point
        # convention — multiply_checked fails loudly if a product would
        # wrap, and the sums run in decimal128, where an int64 sum would
        # wrap silently); floats fall back to float64 partials
        int_mode = pa.types.is_integer(x.type) and pa.types.is_integer(y.type)
        tgt = pa.int64() if int_mode else pa.float64()
        mul = pc.multiply_checked if int_mode else pc.multiply
        xf = pc.cast(t[x_col], tgt)
        yf = pc.cast(t[y_col], tgt)
        terms = {
            "sx": xf,
            "sy": yf,
            "sxx": mul(xf, xf),
            "syy": mul(yf, yf),
            "sxy": mul(xf, yf),
        }
        if int_mode:
            terms = {c: pc.cast(v, pa.decimal128(38, 0)) for c, v in terms.items()}
        t2 = pa.table({**{k: t[k] for k in key_list}, **terms})
        g = t2.group_by(key_list).aggregate(
            [(c, "sum") for c in ("sx", "sy", "sxx", "syy", "sxy")]
            + [([], "count_all")]
        )
        cols = {k: g[k] for k in key_list}
        for c in ("sx", "sy", "sxx", "syy", "sxy"):
            cols[c] = g[f"{c}_sum"]
        cols["n"] = pc.cast(g["count_all"], pa.int64())
        return pa.table(cols)

    def fold(t: pa.Table) -> pa.Table:
        batch = sums(t)
        # all-float64 formula arithmetic (int64 sx*sx could wrap in
        # numpy); the SQL twin casts its exact BIGINT sums to DOUBLE
        # before the same formula, so both engines run identical IEEE
        # ops on identical inputs
        def f64(c: str):
            col = batch[c]
            if pa.types.is_decimal(col.type):
                col = pc.cast(col, pa.int64())  # checked: a Σ past int64 raises
            return col.to_numpy(zero_copy_only=False).astype(np.float64)

        n, sx, sy, sxx, syy, sxy = map(f64, ("n", "sx", "sy", "sxx", "syy", "sxy"))
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

    return fold_partials(ds, key_list, partial, fold)


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

    return fold_partials(
        ds, key_list, partial, sum_fold(key_list, ["n", "sum_scaled", "sumsq_scaled"])
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

    from ._bucket import co_group, run_starts

    key_list = list(keys)

    def collect(g: pa.Table) -> pa.Table:
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
        key_change = run_starts(g, key_list)
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

    return co_group([ds], key_list, collect, buckets)


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
        col = batch[route_col]
        for route_val in col.unique().to_pylist():
            # a null route is its own group (equal() to null selects nothing)
            mask = pc.is_null(col) if route_val is None else pc.equal(col, route_val)
            sub = batch.filter(mask).slice(0, sample_per_batch)
            routes.append(route_val)
            nodes.append(_dump_node(infer_table_node(sub)))
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


def grouping_sets_counts(ds, keys: Sequence[str], sets: Sequence[Sequence[str]]):
    """SQL ``GROUP BY GROUPING SETS ((...), ...)`` counts: one row group
    per listed key subset, dropped key columns padded as typed nulls,
    unioned in ``sets`` order into one Dataset ``keys + [n]``.
    :func:`rollup_counts` and :func:`cube_counts` are thin calls to it.

    Cost shape: sets are computed widest first, and each one folds
    (:func:`sum_rollup`) from the smallest already-computed superset, so
    only a set with no computed superset pays a :func:`count_rollup`
    over the raw rows — for ROLLUP and CUBE that is the finest level
    alone, and the raw rows are read once. The grand total ``()`` sums
    its superset's ``n`` on the driver (over a 1-key rollup when ``()``
    is the only set). NULL data values group like SQL; a padded null
    and a real null group look alike, as in SQL without GROUPING()."""
    import ray

    from .._env import remote_env
    from ._bucket import arrow_type_of

    key_list = list(keys)
    if not key_list:
        raise ValueError("grouping sets need at least one key")
    set_lists = [list(g) for g in sets]
    if not set_lists:
        raise ValueError("grouping sets need at least one set")
    for g in set_lists:
        unknown = [c for c in g if c not in key_list]
        if unknown:
            raise ValueError(f"grouping set column(s) {unknown} not in keys")
    schema = ds.schema()
    types = {
        n: arrow_type_of(t) for n, t in zip(schema.names, schema.types) if n in key_list
    }

    levels: dict[frozenset, object] = {}
    for g in sorted(set_lists, key=len, reverse=True):
        s = frozenset(g)
        if s in levels:
            continue
        supers = [k for k in levels if s <= k]
        src = levels[min(supers, key=len)] if supers else None
        if g and src is not None:
            levels[s] = sum_rollup(
                src.select_columns(g + ["n"]), g, ["n"], count_col=None
            )
        elif g:
            levels[s] = count_rollup(ds, g)
        else:
            src = src if src is not None else count_rollup(ds, key_list[:1])
            grand = sum(
                int(pc.sum(b["n"], min_count=0).as_py() or 0)
                for b in src.iter_batches(batch_format="pyarrow", batch_size=None)
            )
            levels[s] = ray.data.from_arrow(
                pa.table({"n": pa.array([grand], pa.int64())})
            )

    def pad_level(level_keys: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {
                c: batch[c] if c in level_keys else pa.nulls(len(batch), types[c])
                for c in key_list
            }
            cols["n"] = pc.cast(batch["n"], pa.int64())
            return pa.table(cols)

        return fn

    padded = [
        levels[frozenset(g)].map_batches(
            pad_level(g), batch_format="pyarrow", **remote_env()
        )
        for g in set_lists
    ]
    return padded[0].union(*padded[1:]) if len(padded) > 1 else padded[0]


def rollup_counts(ds, keys: Sequence[str], total_row: bool = True):
    """SQL ``GROUP BY ROLLUP(keys)`` counts: the grouping sets of every
    key prefix — ``(k1..kn), (k1..kn-1), …, (k1)`` plus the grand total
    ``()`` unless ``total_row=False`` — padded and unioned by
    :func:`grouping_sets_counts`, whose smallest-superset fold is the
    classic rollup cascade (each level folds the previous one)."""
    key_list = list(keys)
    prefixes = [key_list[:cut] for cut in range(len(key_list), 0, -1)]
    return grouping_sets_counts(ds, key_list, prefixes + ([[]] if total_row else []))


def cube_counts(ds, keys: Sequence[str]):
    """SQL ``GROUP BY CUBE(keys)`` counts: the grouping sets of every
    SUBSET of the key set — ``2^k`` levels, widest first, grand total
    last — padded and unioned by :func:`grouping_sets_counts`. Only the
    finest level reads the raw rows; every other subset folds from an
    already-tiny superset, so keep ``k`` small (CUBE is combinatorial by
    definition)."""
    from itertools import combinations

    key_list = list(keys)
    subsets = [
        list(sub)
        for r in range(len(key_list), -1, -1)
        for sub in combinations(key_list, r)
    ]
    return grouping_sets_counts(ds, key_list, subsets)
