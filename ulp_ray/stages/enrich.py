"""Enrich stage: broadcast-dictionary lookup on a stateful actor pool.

The reference has no enrichment yet (``/root/reference/README.md:42``
"Enrichment options: No"); per the north star this engine adds a role/tool
taxonomy lookup: a small side table is built on the driver, shipped to the
object store ONCE via ``ray.put``, and every actor in the pool pulls it once
in ``__init__`` — a broadcast join of turns × taxonomy on ``(role, tool)``
with no shuffle (SURVEY.md §2.4 J-graft).

Usage::

    ref = put_taxonomy()                    # driver, once
    ds = ds.map_batches(Enricher,
                        fn_constructor_kwargs={"taxonomy_ref": ref},
                        batch_format="pyarrow", batch_size=8192,
                        concurrency=(1, n_cpus))

The flagship pipelines call :class:`Enricher` directly inside their
per-file tasks, which read the file themselves, so a pool may span the
whole cluster: there is no separate read stage for it to starve.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "DEFAULT_TAXONOMY",
    "put_taxonomy",
    "Enricher",
    "enrich_batch",
    "make_enrich_fn",
]

# FIXTURES.md §2: role/tool taxonomy, full cross product, deterministic.
_ROLE_CLASS = {"user": "human", "assistant": "model", "system": "infra", "tool": "infra"}
_TOOL_CLASS = {
    "": "none",
    "bash": "exec",
    "read": "retrieval",
    "search": "retrieval",
    "edit": "mutation",
    "browser": "retrieval",
}

DEFAULT_TAXONOMY: dict[tuple[str, str], tuple[str, str]] = {
    (role, tool): (rc, tc)
    for role, rc in _ROLE_CLASS.items()
    for tool, tc in _TOOL_CLASS.items()
}


def put_taxonomy(taxonomy: dict | None = None):
    """``ray.put`` the taxonomy once on the driver; returns the object ref."""
    import ray

    return ray.put(taxonomy or DEFAULT_TAXONOMY)


def enrich_batch(batch: pa.Table, taxonomy: dict) -> pa.Table:
    """Vectorized (role, tool) → (role_class, tool_class) lookup.

    Uses dictionary-encoding so the lookup runs once per DISTINCT
    (role, tool) pair per batch, not per row; unknown pairs map to
    ``"unknown"`` (never drop rows — the route/aggregate must still see
    them)."""
    # null role/tool → sentinel so the pair looks up as unknown rather than
    # propagating null group keys into the rollup
    role = pc.fill_null(pc.cast(batch["role"], pa.string()), "\x01null")
    tool = pc.fill_null(pc.cast(batch["tool"], pa.string()), "\x01null")
    key = pc.binary_join_element_wise(role, tool, "\x00")
    dict_arr = pc.dictionary_encode(key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key)
    uniques = dict_arr.dictionary.to_pylist()
    rc_vals = []
    tc_vals = []
    for u in uniques:
        r, _, t = u.partition("\x00")
        rc, tc = taxonomy.get((r, t), ("unknown", "unknown"))
        rc_vals.append(rc)
        tc_vals.append(tc)
    indices = dict_arr.indices
    role_class = pc.take(pa.array(rc_vals, type=pa.string()), indices)
    tool_class = pc.take(pa.array(tc_vals, type=pa.string()), indices)
    return batch.append_column("role_class", role_class).append_column(
        "tool_class", tool_class
    )


# per-worker-process broadcast cache: each Ray worker process ray.get()s the
# taxonomy once, exactly like an actor's __init__ — but the stage stays a
# stateless task, so it fuses with its neighbours and scales elastically to
# every CPU instead of being held to an actor-pool size.
_BROADCAST_CACHE: dict[str, dict] = {}


def make_enrich_fn(taxonomy_ref):
    """Stateless-task enrich: broadcast dict via ``ray.put`` ref, fetched
    once per worker process (module-level cache keyed by object ref)."""

    def enrich(batch: pa.Table) -> pa.Table:
        key = taxonomy_ref.hex()
        taxonomy = _BROADCAST_CACHE.get(key)
        if taxonomy is None:
            import ray

            taxonomy = ray.get(taxonomy_ref)
            _BROADCAST_CACHE[key] = taxonomy
        return enrich_batch(batch, taxonomy)

    return enrich


class Enricher:
    """Actor-pool stage: pulls the broadcast taxonomy once per actor.

    Use this form for genuinely heavy per-actor state (models, indices);
    for a dict lookup the task form (:func:`make_enrich_fn`) is cheaper.
    No pipeline here runs a separate read stage beside the pool, so size
    ``concurrency`` to the work, up to the cluster's CPUs."""

    def __init__(self, taxonomy_ref=None, taxonomy: dict | None = None) -> None:
        if taxonomy is not None:
            self.taxonomy = taxonomy
        elif taxonomy_ref is not None:
            import ray

            self.taxonomy = ray.get(taxonomy_ref)
        else:
            self.taxonomy = DEFAULT_TAXONOMY

    def __call__(self, batch: pa.Table) -> pa.Table:
        return enrich_batch(batch, self.taxonomy)
