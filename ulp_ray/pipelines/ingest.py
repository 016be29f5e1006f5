"""Two-phase NDJSON ingest — the ulp-artifact interop pipeline.

Reproduces the reference's entry C composition
(``/root/reference/src/workerpool.rs:81-127`` →
``src/elastic.rs:76-99``): phase 1 left per-task NDJSON ``.data`` files
plus a type map; phase 2 re-reads the NDJSON, re-derives each record's
route key, casts every record to the merged dynamic schema
("normalisation") and ships it to per-route sinks, creating each sink's
schema mapping first.

Ray-Data shape (all streaming, two passes over the NDJSON files):

    read_ndjson(glob)
      → map_batches(add sanitized route from an IndexPattern template)
      → schema_rollup_partials(route)      # per-route TypeNode fold (§P3)
      → [driver] merge → target Arrow schema + per-route sidecars
      → normalize_to_schema(target)        # §P4 cast matrix, vectorized
      → write_parquet(partition_cols=["route"])  # per-route sinks

String sniffing happens in the schema fold (``infer_type`` →
``sniff_str``): a column whose strings are all ``"0x1f"``-style hex or
decimal digits folds to INT and the normalize stage casts it to int64
(hex via the ``str_int`` fallback) — the reference's phase-2 semantics,
not a passthrough. Normalization targets the GLOBAL merged schema (the
union; per-route sidecars still record each route's own tree) — a
deviation from the reference's per-route cast, safe because the global
lattice only widens.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa

from .._env import remote_env
from ..functions.routing import IndexPattern, sanitise_routes
from ..functions.schema_merge import type_node_to_arrow
from ..sources.io import read_ndjson
from ..stages.aggregate import schema_rollup_partials
from ..stages.normalize import normalize_to_schema
from .flagship import _write_merged_schemas

__all__ = ["ingest_ndjson"]


def ingest_ndjson(
    ndjson_glob: str,
    out_dir: str,
    route_template: str,
    sample_per_batch: int = 64,
):
    """Phase-2 ingest of ulp-style NDJSON artifacts. Returns the
    normalized, routed Dataset re-read from the durable sinks (so the
    return doubles as write verification, like the flagship rollup).

    ``route_template`` is an index-pattern string over the JSON fields
    (``{{dotted.path}}`` parts allowed — nested structs traverse
    vectorized)."""
    import ray

    pattern = IndexPattern.parse(route_template)

    def add_route(batch: pa.Table) -> pa.Table:
        route = sanitise_routes(pattern.evaluate_columns(batch))
        return batch.append_column("route", route)

    ds = read_ndjson(ndjson_glob).map_batches(
        add_route, batch_format="pyarrow", **remote_env()
    )

    # per-route dynamic schema fold (index_pattern_mappings analog);
    # pass 1 over the files — partials are O(routes × batches)
    route_nodes = schema_rollup_partials(ds, "route", sample_per_batch)
    if not route_nodes:
        raise FileNotFoundError(f"no NDJSON records under {ndjson_glob!r}")
    # deterministic overwrite: a re-run replaces, never appends — the
    # reference's re-ingest duplicates every document (elastic.rs:108);
    # stale sidecars from a previous route set are pruned the same way
    global_node = _write_merged_schemas(out_dir, [route_nodes])
    target = pa.schema(list(type_node_to_arrow(global_node)))

    # pass 2: cast every record to the merged schema and fan out
    from ..stages.route import write_routed

    sink_dir = os.path.join(out_dir, "sinks")
    shutil.rmtree(sink_dir, ignore_errors=True)
    normed = normalize_to_schema(ds, target)
    write_routed(normed, sink_dir)
    return ray.data.read_parquet(sink_dir)
