"""The one co-group shape of the bucketed stages, and its hashing.

The per-key ``groupby(key).map_groups(fn)`` shape costs one Python
callback per distinct key — fine for hundreds of keys, fatal for 10⁶+.
Stages that only need *co-location* (joins, as-of and interval joins,
windows, sessionization, conversation gaps/assembly, dedup, grouped
collect/quantile/top-k, sketches, graph propagation) instead go
through :func:`co_group`: every input is tagged with its position,
padded to one union schema, bucketed by ``hash(key) % buckets``
(:func:`with_bucket`), unioned and grouped by the bucket — ~buckets
Python callbacks total, with the per-bucket body vectorized over all of
the bucket's keys at once. A stage keeps only its own null-key
filters, key renames, dtype checks and in-bucket body.

``key_hash_u64`` canonicalizes the column representation BEFORE hashing
so the same logical key always lands in the same bucket regardless of
which side / batch it came from (an Arrow int64 column converts to
float64-with-NaN when it has nulls but stays int64 when it doesn't —
hashing those raw representations would split a key across buckets).
Collisions only co-locate extra keys in a bucket, never lose matches.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "default_buckets",
    "resolve_buckets",
    "hash_u64",
    "key_hash_u64",
    "combine_hash",
    "bucket_column",
    "with_bucket",
    "arrow_type_of",
    "co_group",
]

_HASH_KEY = "ulp_ray_bucket16"  # pd.util.hash_array key (exactly 16 bytes)
_FNV = np.uint64(1099511628211)
_NULL_SENTINEL = "\x00\x00null"
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)  # fixed hash for null (and NaN) keys
_SEED = 0x5CA1AB1E  # polars hash seed (fixed: cross-process deterministic)

import os as _os

# one polars thread per Ray worker: the speedup is algorithmic (measured
# ~18× on strings single-threaded, BASELINE.md), and N workers × a
# full-size rayon pool each would oversubscribe the node. Must be set
# BEFORE the first polars import in the process.
_os.environ.setdefault("POLARS_MAX_THREADS", "1")

try:  # measured (BASELINE.md): polars' Rust hash is ~18× pd.util on
    import polars as _pl  # strings, ~10× on ints — this is the hot path of

    _HAS_POLARS = True  # every bucketed co-group stage
except ImportError:  # pragma: no cover - polars is baked into the env
    _HAS_POLARS = False


def hash_u64(values: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of a 1-d numpy array.

    Values are stable across processes and runs for a fixed polars
    version (polars does not promise cross-VERSION stability — pin
    polars if split/sample assignments must survive an upgrade; the
    pandas fallback has the same caveat in practice)."""
    if _HAS_POLARS:
        return _pl.Series(values).hash(seed=_SEED).to_numpy()
    return pd.util.hash_array(values, hash_key=_HASH_KEY).astype(np.uint64)


def _hash_arrow_strings(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Hash a null-free Arrow string column without the Arrow→numpy
    object-array detour (zero-copy into polars when available)."""
    if _HAS_POLARS:
        return _pl.from_arrow(col).hash(seed=_SEED).to_numpy()
    return hash_u64(col.to_numpy(zero_copy_only=False))


def _int_hash(col: pa.Array) -> np.ndarray:
    """Exact int64 hash path: full 64-bit key entropy (no float64
    precision collapse above 2^53 — snowflake-style IDs stay distinct),
    nulls mapped to a fixed sentinel hash. uint64 values ≥ 2^63 wrap to
    int64 deterministically."""
    if col.null_count == 0:
        vals = col.to_numpy(zero_copy_only=False)
        return hash_u64(vals.astype(np.int64, copy=False))
    null_mask = np.asarray(col.is_null())
    vals = col.fill_null(0).to_numpy(zero_copy_only=False)
    h = hash_u64(vals.astype(np.int64, copy=False))
    if not h.flags.writeable:
        h = h.copy()
    h[null_mask] = _NULL_HASH
    return h


def key_hash_u64(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row 64-bit hash of one Arrow column, canonicalized by type
    family so the same logical key hashes identically across physical
    representations: bool/int/temporal → exact int64; float64 rows that
    hold integral values in int64 range route through the SAME int64
    path (a pandas round-trip promotes int-with-nulls to float64-with-
    NaN — those keys must still co-locate with the int64 side); other
    floats hash as float64; everything else → string with a null
    sentinel. Nulls/NaN hash to a fixed sentinel."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_boolean(t):
        return _int_hash(col.cast(pa.int64()))
    if pa.types.is_integer(t):
        return _int_hash(col)
    if (
        pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
        or pa.types.is_duration(t)
    ):
        return _int_hash(col.cast(pa.int64()))
    if pa.types.is_floating(t):
        null_mask = np.asarray(col.is_null())
        v = np.asarray(
            col.cast(pa.float64()).to_numpy(zero_copy_only=False), dtype=np.float64
        )
        fin = np.isfinite(v)
        integral = fin & (np.floor(v) == v) & (np.abs(v) < 2.0**63)
        iv = np.where(integral, v, 0.0).astype(np.int64)
        h = np.where(integral, hash_u64(iv), hash_u64(v)).astype(np.uint64)
        bad = null_mask | np.isnan(v)
        if bad.any():
            h[bad] = _NULL_HASH
        return h
    s = pc.fill_null(pc.cast(col, pa.string()), _NULL_SENTINEL)
    return _hash_arrow_strings(s)


def combine_hash(h: np.ndarray, hc: np.ndarray) -> np.ndarray:
    """Order-sensitive combine of two hash streams (uint64 wraparound)."""
    return h * _FNV + hc


def default_buckets(
    floor: int = 64, per_cpu: int = 4, est_rows: int | None = None
) -> int:
    """Bucket count scaled to the cluster: ``max(floor, per_cpu ×
    cluster CPUs)``. A fixed 64 under-parallelizes the co-group reduce
    on a large cluster (64 tasks across thousands of cores); scaling
    with CPUs keeps every core fed while the floor keeps small runs from
    fragmenting into tiny groups. Bucket count never changes RESULTS —
    only the partitioning — so stages may resolve it lazily.

    ``est_rows`` (when the caller can know it cheaply, e.g. from parquet
    metadata) caps the count at ``ceil(rows / _TARGET_ROWS_PER_BUCKET)``
    so small inputs don't pay cluster-width shuffle fan-out: each bucket
    task has fixed scheduling + pandas-conversion overhead, and buckets
    beyond ~rows/250k just fragment a fixed input into more, smaller
    tasks (measured: see BASELINE.md optimization log, round 4).

    The ``ULP_RAY_BUCKETS`` env var, when set, overrides everything —
    a pin for benchmarks/A-B tests. Explicit ``buckets=`` at stage
    level always wins over this default entirely."""
    pinned = _os.environ.get("ULP_RAY_BUCKETS")
    if pinned:
        return int(pinned)
    try:
        import ray

        cpus = (
            int(ray.cluster_resources().get("CPU", 0))
            if ray.is_initialized()
            else 0
        )
    except Exception:  # pragma: no cover - ray import/cluster probe
        cpus = 0
    n = max(floor, cpus * per_cpu)
    if est_rows is not None and est_rows >= 0:
        cap = max(floor, -(-est_rows // _TARGET_ROWS_PER_BUCKET))
        n = min(n, cap)
    return n


_TARGET_ROWS_PER_BUCKET = 250_000


def resolve_buckets(buckets: int | None, *datasets, floor: int = 64) -> int:
    """Stage-side bucket resolution: explicit ``buckets`` always wins;
    otherwise :func:`default_buckets`, rows-capped when every input
    Dataset's row count is FREE to know (parquet metadata on an
    untransformed read — ``Dataset._meta_count()``; any transformed
    input returns None and the cap is skipped rather than paying an
    execution to count). The cap only ever LOWERS the count, so a
    256-core cluster still gets its fan-out on big inputs while a
    60k-row test table stops fragmenting into 128 near-empty tasks."""
    if buckets is not None:
        return buckets
    # no datasets → no row information, NOT "zero rows" (est=0 would
    # silently clamp every no-arg caller to the floor)
    est: int | None = 0 if datasets else None
    for ds in datasets:
        try:
            n = ds._meta_count()
        except Exception:  # pragma: no cover - internal-API drift guard
            n = None
        if n is None:
            est = None
            break
        est += n
    return default_buckets(floor=floor, est_rows=est)


def with_bucket(
    ds, on_cols: list[str], buckets: int | None, name: str = "__bucket"
):
    """The bucket step of :func:`co_group`: append ``hash(keys) %
    buckets`` as ``name`` via one map_batches pass and drop the schema
    metadata. ``buckets=None`` resolves to
    :func:`resolve_buckets` — cluster-scaled, rows-capped when the
    input's row count is free from metadata."""
    from .._env import remote_env

    if buckets is None:
        buckets = resolve_buckets(None, ds)
    cols = list(on_cols)

    def fn(batch: pa.Table) -> pa.Table:
        # no b'pandas' metadata into the shuffle: its dict makes Ray's
        # schema dedup fail to hash in every reduce task
        b = batch.append_column(name, bucket_column(batch, cols, buckets))
        return b.replace_schema_metadata(None)

    return ds.map_batches(fn, batch_format="pyarrow", **remote_env())


def arrow_type_of(t) -> pa.DataType:
    """Coerce a Dataset.schema() entry (Arrow type OR numpy dtype,
    depending on the upstream op) to an Arrow type — shared by the
    co-grouping joins that pad both sides to a union schema."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()


def bucket_column(
    batch: pa.Table, on_cols: list[str], buckets: int
) -> pa.Array:
    """``hash(key tuple) % buckets`` as an int64 Arrow array."""
    h = np.zeros(len(batch), dtype=np.uint64)
    for c in on_cols:
        h = combine_hash(h, key_hash_u64(batch[c]))
    return pa.array((h % np.uint64(buckets)).astype(np.int64))


def co_group(inputs, on: list[str], fn, buckets: int | None = None):
    """Co-group Datasets by ``hash(on) % buckets`` and run ``fn`` once per
    bucket: ``fn(t_0, …, t_n)`` gets one Arrow table per input, in input
    order, holding that input's rows of the bucket with its own columns
    and types (``__bucket`` and ``__side`` already dropped; an input with
    no rows there arrives as a typed empty table). ``fn`` may return
    Arrow or pandas; the output is Arrow with no schema metadata.

    ``on`` names the key columns in every input (rename first where they
    differ); equal keys of any physical type meet, since
    :func:`key_hash_u64` canonicalizes them. ``buckets=None`` resolves
    with :func:`resolve_buckets` over the inputs.

    With several inputs, each is tagged with its position and padded to
    one union schema (input ``i``'s column ``c`` travels as ``__i.c``, so
    the same name may carry different types in different inputs). The
    padding needs every schema up front: an entry of ``inputs`` may be a
    ``(Dataset, pa.Schema)`` pair where the caller knows it, because
    ``Dataset.schema()`` runs an unmaterialized plan (a shuffle output in
    full). An input whose schema is None holds no rows and reaches ``fn``
    as a table without columns."""
    from .._env import remote_env

    pairs = [x if isinstance(x, tuple) else (x, None) for x in inputs]
    on = list(on)
    if buckets is None:
        buckets = resolve_buckets(None, *(ds for ds, _ in pairs))

    def finish(out, parts: list[pa.Table]) -> pa.Table:
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
            # pandas gives a column without values a guessed dtype (a
            # null-only string key reads as double): type it like the
            # input column of that name, or as null, so the buckets that
            # hold values set the column's type
            types = {f.name: f.type for t in reversed(parts) for f in t.schema}
            for i, f in enumerate(out.schema):
                if len(out) and out.column(i).null_count == len(out):
                    typ = types.get(f.name, pa.null())
                    out = out.set_column(i, f.name, pa.nulls(len(out), typ))
        return out.replace_schema_metadata(None)

    if len(pairs) == 1:
        union = with_bucket(pairs[0][0], on, buckets)

        def run(g: pa.Table) -> pa.Table:
            t = g.drop_columns(["__bucket"])
            return finish(fn(t), [t])

    else:
        layout = []
        for ds, schema in pairs:
            schema = schema if schema is not None else ds.schema()
            fields = [] if schema is None else zip(schema.names, schema.types)
            layout.append([(n, arrow_type_of(t)) for n, t in fields])

        def tag(i: int):
            def pad(batch: pa.Table) -> pa.Table:
                n = len(batch)
                cols = {
                    f"__{j}.{c}": batch[c] if j == i else pa.nulls(n, t)
                    for j, fields in enumerate(layout)
                    for c, t in fields
                }
                cols["__side"] = pa.array(np.full(n, i, np.int8))
                cols["__bucket"] = batch["__bucket"]
                return pa.table(cols)

            return pad

        tagged = [
            with_bucket(ds, on, buckets).map_batches(
                tag(i), batch_format="pyarrow", **remote_env()
            )
            for i, (ds, _) in enumerate(pairs)
        ]
        union = tagged[0].union(*tagged[1:])

        def run(g: pa.Table) -> pa.Table:
            parts = []
            for i, fields in enumerate(layout):
                t = g.filter(pc.equal(g["__side"], i))
                t = t.select([f"__{i}.{c}" for c, _ in fields])
                t = t.rename_columns([c for c, _ in fields])
                # cast back to the input's types: Ray passes an empty
                # pandas block through a map untouched, and a shuffle
                # holding one goes through pandas, which re-infers them
                # (a null type declares nothing, so it is left as found)
                want = pa.schema(
                    [(c, t.field(c).type if u == pa.null() else u) for c, u in fields]
                )
                parts.append(t.cast(want))
            return finish(fn(*parts), parts)

    return union.groupby("__bucket").map_groups(
        run, batch_format="pyarrow", **remote_env()
    )
