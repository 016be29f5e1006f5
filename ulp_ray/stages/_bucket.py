"""The one co-group shape of the bucketed stages, and its hashing.

The per-key ``groupby(key).map_groups(fn)`` shape costs one Python
callback per distinct key — fine for hundreds of keys, fatal for 10⁶+.
Stages that only need *co-location* (joins, as-of and interval joins,
windows, sessionization, conversation gaps/assembly, dedup, grouped
collect/quantile/top-k, sketches, graph propagation) instead go
through :func:`co_group`: every input is tagged with its position,
padded to one union schema, bucketed by ``hash(key) % buckets``
(:func:`with_bucket`), unioned and sorted into one partition per bucket
— one Python callback per bucket, with the per-bucket body vectorized
over all of the bucket's keys at once. A stage keeps only its own
null-key filters, key renames, dtype checks and in-bucket body. The
bucket count comes from one policy, :func:`resolve_buckets` (the
cluster's CPUs and the free row count), unless the caller passes it.

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
    "resolve_buckets",
    "hash_u64",
    "key_hash_u64",
    "combine_hash",
    "bucket_column",
    "with_bucket",
    "arrow_type_of",
    "co_group",
    "run_starts",
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


#: Rows one bucket holds at most when the input's row count is known
#: (BASELINE.md, "100 TB design notes").
_TARGET_ROWS_PER_BUCKET = 250_000


def resolve_buckets(buckets: int | None, *inputs) -> int:
    """The one bucket-count policy of every co-group stage. An explicit
    ``buckets`` wins; otherwise, with ``C`` the cluster's CPUs, it is
    ``min(4 × C, max(C, ceil(rows / 250k)))``:

    - one bucket per CPU at least, which keeps every core fed;
    - past 250k rows a bucket splits, which bounds a bucket task's
      memory (a bucket task holds its whole bucket);
    - at most ``4 × C``: every bucket is also a sort partition that
      splits every input block and runs a reduce task, so the count
      cannot grow with the input; past ``4 × C × 250k`` rows a bucket
      grows again.

    ``rows`` is free when every input's count is: an ``int`` entry of
    ``inputs`` is a count the caller already holds, a Dataset's comes
    from metadata (``_meta_count()``: parquet footers on an untransformed
    read, a materialized or in-memory input). When any count is unknown
    (a transformed Dataset, or no input at all) it is taken as large,
    ``4 × C``, without paying an execution to count it. The measured
    basis is in BASELINE.md, "100 TB design notes". Bucket count never
    changes RESULTS, only the partitioning."""
    if buckets is not None:
        return buckets
    import ray

    if ray.is_initialized():
        cpus = max(1, int(ray.cluster_resources().get("CPU", 0)))
    else:  # the first Dataset execution starts Ray on this process' CPUs
        cpus = len(_os.sched_getaffinity(0))
    counts = [x if isinstance(x, int) else x._meta_count() for x in inputs]
    if not counts or None in counts:
        return 4 * cpus
    return min(4 * cpus, max(cpus, -(-sum(counts) // _TARGET_ROWS_PER_BUCKET)))


def with_bucket(
    ds, on_cols: list[str], buckets: int | None, name: str = "__bucket"
):
    """The bucket step of :func:`co_group`: append ``hash(keys) %
    buckets`` as ``name`` via one map_batches pass and drop the schema
    metadata. ``buckets=None`` resolves with :func:`resolve_buckets`."""
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


def run_starts(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Bool mask of the rows of a key-sorted table that start a new key
    run. Null and NaN keys form one run: SQL GROUP BY has ONE null group
    (numeric and temporal keys with nulls convert to NaN/NaT, and NaN !=
    NaN would split it)."""
    change = np.zeros(len(t), dtype=bool)
    change[:1] = True
    for k in keys:
        arr = t[k].to_numpy(zero_copy_only=False)
        nulls = pd.isna(arr)
        change[1:] |= (arr[1:] != arr[:-1]) & ~(nulls[1:] & nulls[:-1])
    return change


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
    with :func:`resolve_buckets` over the inputs. The exchange is a sort
    at fixed boundaries, one partition per bucket (a single bucket is a
    plain merge into one block), so a partition is empty only where its
    bucket holds no key.

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

    # one partition per bucket, cut at fixed boundaries: no sampling
    # round, and no partition left empty by repeated sampled boundaries
    # (a sampled sort cuts as many partitions as input blocks, however
    # few bucket values there are)
    if buckets > 1:
        partitioned = union.sort("__bucket", boundaries=list(range(1, buckets)))
    else:
        partitioned = union.repartition(1)

    def per_bucket(block: pa.Table):
        if len(block):  # an empty bucket runs nothing
            yield run(block)

    return partitioned.map_batches(
        per_bucket, batch_size=None, batch_format="pyarrow", **remote_env()
    )
