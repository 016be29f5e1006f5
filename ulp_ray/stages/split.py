"""Deterministic, group-aware dataset splitting and sampling — the
train/val/test machinery a training-data pipeline needs (the reference
has nothing like it; `random_shuffle`/`random_sample` are
non-deterministic across runs, which breaks resume and reproducibility).

Both operators key on a HASH of a group column, so (a) re-runs produce
byte-identical splits, and (b) all rows of one group (conversation,
user, document) land in the same split — no train/test leakage through
a group straddling the boundary.
"""

from __future__ import annotations

import glob as globmod

import numpy as np
import pyarrow as pa

from .._env import remote_env
from ._bucket import co_group, key_hash_u64

__all__ = [
    "hash_split",
    "deterministic_sample",
    "stratified_sample",
    "grouped_sample",
    "token_budget_sample",
]

_SCALE = float(1 << 64)


def _unit_interval(batch: pa.Table, key: str, salt: int) -> np.ndarray:
    """Per-row deterministic position in [0, 1) from hash(key)."""
    h = key_hash_u64(batch[key])
    if salt:
        h = h * np.uint64(0x9E3779B97F4A7C15) + np.uint64(salt)
    return h.astype(np.float64) / _SCALE


def _split_bounds(fractions: dict[str, float]) -> list[tuple[str, float, float]]:
    total = sum(fractions.values())
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"fractions sum to {total}, expected 1")
    bounds = []
    acc = 0.0
    for name, f in fractions.items():
        bounds.append((name, acc, acc + f))
        acc += f
    bounds[-1] = (bounds[-1][0], bounds[-1][1], 1.0 + 1e-12)  # cover rounding
    return bounds


def hash_split(ds, key: str, fractions: dict[str, float], salt: int = 0) -> dict:
    """Split into named datasets by hash(key): ``{"train": 0.9,
    "val": 0.05, "test": 0.05}``. Fractions must sum to ~1. Each split is
    an independent lazy filter of the input — splits are disjoint, cover
    every row, and are group-atomic on ``key``.

    Cost note: materializing all N splits executes N filter passes over
    the INPUT — fine when the input is already materialized (object-store
    re-scan) or when only one split is consumed; for a disk-backed input
    where every split is needed durably, :func:`hash_split_write` labels
    and writes all splits in ONE pass."""
    bounds = _split_bounds(fractions)

    def make_filter(lo: float, hi: float):
        def fn(batch: pa.Table) -> pa.Table:
            u = _unit_interval(batch, key, salt)
            return batch.filter(pa.array((u >= lo) & (u < hi)))

        return fn

    return {
        name: ds.map_batches(make_filter(lo, hi), batch_format="pyarrow", **remote_env())
        for name, lo, hi in bounds
    }


def hash_split_write(
    ds, key: str, fractions: dict[str, float], out_dir: str, salt: int = 0
) -> dict:
    """One-pass durable split: label every row with its split name and
    write all splits with a single partitioned ``write_parquet``
    (``out_dir/__split=<name>/``). Returns ``{name: path}``. The 100 TB
    shape — the source is read exactly once.

    Re-run discipline matches the flagship sinks: stale ``__split=*``
    dirs are removed first and the write uses deterministic filenames +
    OVERWRITE, so re-running the same split into the same ``out_dir``
    replaces files in place (byte-identical for an identical input)
    instead of appending a second copy of every row."""
    import os
    import shutil

    from ..sources.io import overwrite_sink_args

    bounds = _split_bounds(fractions)
    names = [b[0] for b in bounds]

    def add_label(batch: pa.Table) -> pa.Table:
        u = _unit_interval(batch, key, salt)
        label = np.select(
            [(u >= lo) & (u < hi) for _, lo, hi in bounds],
            [name for name, _, _ in bounds],
            default=names[-1],
        )
        return batch.append_column("__split", pa.array(label, pa.string()))

    # stale split dirs (previous run, or a changed split layout) must not
    # survive — same rationale as the flagship's per-partition rmtree
    for d in globmod.glob(os.path.join(out_dir, "__split=*")):
        if os.path.isdir(d):
            shutil.rmtree(d)
    ds.map_batches(add_label, batch_format="pyarrow", **remote_env()).write_parquet(
        out_dir,
        partition_cols=["__split"],
        ray_remote_args=remote_env(),
        **overwrite_sink_args(),
    )
    return {name: os.path.join(out_dir, f"__split={name}") for name in names}


def deterministic_sample(ds, key: str, fraction: float, salt: int = 0):
    """Keep a deterministic, group-atomic ``fraction`` of the data:
    rows whose hash(key) lands below the threshold. Unlike
    ``Dataset.random_sample`` this is stable across runs/retries (resume
    safety) and never splits a group."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")

    def fn(batch: pa.Table) -> pa.Table:
        u = _unit_interval(batch, key, salt)
        return batch.filter(pa.array(u < fraction))

    return ds.map_batches(fn, batch_format="pyarrow", **remote_env())


def stratified_sample(
    ds,
    strata_col: str,
    fractions: dict | float,
    key: str,
    salt: int = 0,
):
    """Deterministic per-stratum sampling: keep ``fractions[stratum]``
    (or a single fraction for every stratum) of each stratum, chosen by
    hash(key) — group-atomic on ``key`` like :func:`deterministic_sample`
    (all rows of one key share a fate), stable across runs/retries, and
    fully streaming (the per-stratum thresholds are a tiny dict shipped
    in the task closure — no shuffle, no per-stratum pass).

    Strata absent from a ``fractions`` dict are DROPPED (explicit
    opt-in per stratum — the downsample-overrepresented-sources use
    case); pass a float to keep the same share of every stratum."""
    import pyarrow.compute as pc

    if isinstance(fractions, dict):
        for k, f in fractions.items():
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fraction {f} for stratum {k!r} outside [0, 1]")
        frac_map = {str(k): float(f) for k, f in fractions.items()}
        default = 0.0
    else:
        if not 0.0 <= fractions <= 1.0:
            raise ValueError(f"fraction {fractions} outside [0, 1]")
        frac_map = {}
        default = float(fractions)

    def fn(batch: pa.Table) -> pa.Table:
        u = _unit_interval(batch, key, salt)
        if frac_map:
            strata = pc.cast(batch[strata_col], pa.string()).to_pandas()
            thresh = strata.map(frac_map).fillna(default).to_numpy(dtype=np.float64)
        else:
            thresh = default
        return batch.filter(pa.array(u < thresh))

    return ds.map_batches(fn, batch_format="pyarrow", **remote_env())


def grouped_sample(
    ds,
    group_col: str,
    id_col: str,
    k: int,
    buckets: int | None = None,
):
    """Deterministic fixed-size per-group sample: the ``k`` rows of each
    group with the smallest Knuth multiplicative hash of ``id_col``
    (``(id · 2654435761) mod 2³²``, ties broken by id) — per-source /
    per-language downsampling with an exact SQL twin (the hash is plain
    integer arithmetic both engines compute identically, unlike the
    64-bit engine hash the split operators use).

    Scale shape: the existing :func:`~.window.grouped_rank` co-group —
    one ``hash(group) % B`` exchange, a vectorized row_number per
    bucket, then a filter. Groups smaller than ``k`` pass through
    whole. ``id_col`` must be a unique NON-NEGATIVE integer (validated:
    negatives diverge from DuckDB's sign-keeping ``%``); the SQL twin
    additionally needs ``id·2654435761 < 2⁶³`` (ids ≲ 3.4e9) or DuckDB's
    BIGINT multiply overflows — the engine itself wraps deterministically
    at any magnitude.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    from .window import grouped_rank

    def add_hkey(batch: pa.Table) -> pa.Table:
        raw = batch[id_col].to_numpy(zero_copy_only=False)
        # negative ids silently diverge from the SQL twin (DuckDB %
        # keeps the dividend's sign; the uint64 wrap here doesn't)
        if len(raw) and raw.min() < 0:
            raise ValueError(f"grouped_sample: {id_col} must be non-negative")
        ids = raw.astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        return batch.append_column("__hkey", pa.array(h.astype(np.int64)))

    keyed = ds.map_batches(add_hkey, batch_format="pyarrow", **remote_env())
    ranked = grouped_rank(
        keyed,
        [group_col],
        ["__hkey", id_col],
        method="row_number",
        out_col="__rn",
        buckets=buckets,
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = batch.filter(pc.less_equal(batch["__rn"], k))
        return out.drop_columns(["__hkey", "__rn"])

    return ranked.map_batches(finish, batch_format="pyarrow", **remote_env())


def token_budget_sample(
    ds,
    group_col: str,
    id_col: str,
    count_col: str,
    budget: int,
    buckets: int | None = None,
):
    """Deterministic per-group budgeted selection — the data-MIXING
    primitive: within each group (source, language, domain), keep rows
    in Knuth-hash-of-``id_col`` order (ties by id) while the group's
    running sum of ``count_col`` INCLUDING the current row stays
    ``<= budget``. With ``count_col`` = token counts this caps each
    source at a token budget, the standard way training mixtures pin
    per-domain proportions; any non-negative cost column works.

    Exact SQL twin: ``SUM(c) OVER (PARTITION BY g ORDER BY
    (id*2654435761)%2^32, id) <= budget`` — the hash is plain integer
    arithmetic both engines compute identically for non-negative ids
    (validated; same contract and twin ceiling as
    :func:`grouped_sample`). Null costs count as 0.

    Scale shape: one ``hash(group) % B`` co-group (same contract as
    :func:`~.window.running_aggregate`: a group's rows land in one
    bucket); in-bucket one vectorized sort + segmented cumsum. Greedy
    prefix selection is inherently sequential PER GROUP, so a single
    group's rows must fit a bucket worker — true for per-source /
    per-language mixing where groups number dozens; salt/pre-aggregate
    upstream if a group's ROW COUNT itself is extreme.
    """
    import pandas as pd

    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    def run(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        raw = g[id_col].to_numpy()
        if len(raw) and raw.min() < 0:  # SQL-twin parity: see grouped_sample
            raise ValueError(f"token_budget_sample: {id_col} must be non-negative")
        ids = raw.astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        g = g.assign(__hkey=h.astype(np.int64))
        g = g.sort_values([group_col, "__hkey", id_col], kind="stable")
        cum = (
            g[count_col]
            .fillna(0)
            .groupby(g[group_col], sort=False, dropna=False)
            .cumsum()
        )
        return g[cum <= budget].drop(columns="__hkey")

    return co_group([ds], [group_col], run, buckets)
