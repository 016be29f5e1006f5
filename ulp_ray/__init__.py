"""ulp_ray — a Ray-Data-native parse → enrich → route → aggregate engine.

A brand-new engine (NOT a port) with the query / data-processing
capabilities of the reference ``dolly-parseton/ulp`` (a Rust forensic log
parser: parse artifacts → infer/merge dynamic schemas → route by pattern
template → cast/normalize → bulk-ship to per-route sinks with lineage),
re-expressed as idiomatic ``ray.data.Dataset`` pipelines over Parquet
tables of multi-turn conversation/agent transcripts
``(conv_id, turn_idx, role, text, tool, ts)``.

Layout
------
- ``functions/`` — pure, vectorizable scalar libraries: the sniff/cast
  matrix (reference ``type_casting/src/types.rs``), the schema-widening
  merge lattice (``type_casting/src/lib.rs:14-166``), routing templates +
  dotted-path lookup + route sanitization (``src/type_map.rs``,
  ``src/elastic.rs:156-182``), text analysis.
- ``rules.py`` — the compiled regex rule registry (the analog of the
  reference's pattern-matching core, ``src/lib.rs:35-93``).
- ``stages/`` — Ray Data stages: parse (map_batches over zero-copy
  Arrow), enrich (broadcast-taxonomy actor pool), route fan-out,
  salted/partial aggregation (+ grouped top-k / quantile / pivot),
  dedup family, similarity search (brute-force + IVF), as-of and
  interval joins, windows (tumbling/sliding/session/running/rolling +
  ranking), deterministic splits/sampling (incl. stratified), sketches
  (HLL + Misra–Gries heavy hitters, each global + grouped),
  connected components over near-dup pair graphs (cluster dedup),
  Bloom-prefiltered semi joins, BM25 lexical retrieval,
  vocabulary/doc-frequency/TF-IDF folds, benchmark decontamination,
  token chunking + sequence packing, sink compaction — per-key
  co-grouping always goes through ``_bucket.py`` hash buckets
  (polars-hashed), never one Python callback per key.
- ``pipelines/`` — end-to-end flagship pipeline with per-partition
  lineage manifests and resume-from-checkpoint; two-phase NDJSON
  ingest (ulp-artifact interop); corpus curation.
- ``state/`` — run manifest / lineage records.
- ``fixtures.py`` — deterministic synthetic transcript generator with
  golden counts (oracle by construction).

No module in this package calls ``ray.init()`` / ``ray.shutdown()``;
sessions are owned by the driver, ``bench.py``, and the test fixture.
"""

__version__ = "0.1.0"
