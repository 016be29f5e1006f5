"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship parse→enrich→route→aggregate smoke on sf0.001.
``queries()`` — one callable per implemented operator (SURVEY.md §2).
``oracle_sql()`` — DuckDB-equivalent SQL per query (same column names!).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in ulp_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

_SF_TURNS = {  # synthetic transcript sizing per testdata scale factor
    "sf0.001": 10_000,
    "sf0.01": 100_000,
    "sf0.1": 1_000_000,
}


def _transcripts_for(sf_dir: str) -> str:
    """Deterministic synthetic transcript table sized to the sf dir
    (FIXTURES.md §1 — the transcript contract table is generated by this
    repo, not the driver). Cached under /tmp by parameters."""
    from ulp_ray.fixtures import ensure_transcripts

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    return ensure_transcripts(_SF_TURNS.get(sf_name, 10_000))


def _events_registry():
    from ulp_ray.rules import Capture, Rule, RuleRegistry

    return RuleRegistry(
        [
            Rule(
                "kv",
                r'"k": (?P<k>\d+)',
                (Capture("k", "int"),),
            )
        ]
    )


def _events_registry_grok():
    """Same rule written in grok alias syntax (the declarative form
    log-pipeline users write); expands to the identical typed-capture
    regex — both must pass the same oracle."""
    from ulp_ray.rules import RuleRegistry, grok_rule

    return RuleRegistry([grok_rule("kv", r'"k": %{POSINT:k}')])


def _flagship_transcripts(sf_dir: str):
    """Full flagship (parse→enrich→route→aggregate with lineage) over the
    synthetic transcript table; returns the rollup. Used by ``entry()``;
    the oracle-checked twin over a driver view is ``flagship_events``."""
    from ulp_ray.pipelines.flagship import run_pipeline

    data = _transcripts_for(sf_dir)
    out = os.path.join("/tmp/ulp_ray_runs", os.path.basename(data) + "_flagship")
    res = run_pipeline(data, out, partitions=4, resume=False)
    return res.counts


# --------------------------------------------------------------------------
# driver contract
# --------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline (parse→enrich→route→aggregate with lineage) on the
    sf0.001-scale synthetic transcript table; returns the rollup table."""
    return _flagship_transcripts("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from ulp_ray._env import remote_env

    _env = remote_env()

    from ulp_ray.pipelines.flagship import run_pipeline
    from ulp_ray.stages.enrich import Enricher
    from ulp_ray.stages.parse import make_parse_fn

    def flagship_events(sf_dir: str):
        """The REAL flagship ``run_pipeline`` (checkpoints, routed sinks,
        per-route schema sidecars, manifests and all) over the driver's
        events view: parse ``props`` with the kv registry, role/tool
        derived pre-parse, returns the (rule, tool, role) rollup — fully
        oracle-checkable."""
        out = os.path.join(
            "/tmp/ulp_ray_runs",
            "flagship_events_" + os.path.basename(os.path.normpath(sf_dir)),
        )

        def add_role_tool(batch: pa.Table) -> pa.Table:
            batch = batch.append_column(
                "role", pc.cast(batch["event_type"], pa.string())
            )
            return batch.append_column(
                "tool", pa.array([""] * len(batch), pa.string())
            )

        res = run_pipeline(
            os.path.join(sf_dir, "events.parquet"),
            out,
            registry=_events_registry(),
            partitions=2,
            resume=False,
            text_col="props",
            pre_fn=add_role_tool,
        )
        return res.counts

    def conversation_stats_events(sf_dir: str):
        """Per-conversation rollup via associative per-block partials —
        over the events view (user = conversation, purchase = tool turn)
        so the driver oracle checks values, not just rows."""
        from ulp_ray.stages.conversation import conversation_stats

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_type", "ts"],
        )

        def adapt(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "conv_id": pc.cast(batch["user_id"], pa.string()),
                    "role": pc.if_else(
                        pc.equal(batch["event_type"], "purchase"),
                        "tool",
                        batch["event_type"],
                    ),
                    "ts": batch["ts"],
                }
            )

        return conversation_stats(ds.map_batches(adapt, batch_format="pyarrow", **_env))

    def turn_gaps_events(sf_dir: str):
        """Per-turn latency (ts delta to the previous turn under
        (conv, turn) order) — bucketed co-grouping, vectorized in-bucket
        diff; oracle = SQL LAG window."""
        from ulp_ray.stages.conversation import turn_gaps

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "ts"],
        )

        def adapt(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "conv_id": pc.cast(batch["user_id"], pa.string()),
                    "turn_idx": batch["event_id"],
                    "ts": batch["ts"],
                }
            )

        return turn_gaps(ds.map_batches(adapt, batch_format="pyarrow", **_env))

    def assemble_conversations_events(sf_dir: str):
        """Conversation reassembly (sorted list<struct> per conversation)
        over the events view; the nested turns column projects to
        ``roles_joined`` so the oracle checks ASSEMBLY ORDER, not just
        counts (SQL twin: string_agg ORDER BY)."""
        from ulp_ray.stages.conversation import assemble_conversations

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "event_type", "ts"],
        )

        def adapt(batch: pa.Table) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "conv_id": pc.cast(batch["user_id"], pa.string()),
                    "turn_idx": batch["event_id"],
                    "role": batch["event_type"],
                    "text": pa.nulls(n, pa.string()),
                    "tool": pa.nulls(n, pa.string()),
                }
            )

        assembled = assemble_conversations(
            ds.map_batches(adapt, batch_format="pyarrow", **_env)
        )

        def project(batch: pa.Table) -> pa.Table:
            joined = [
                "|".join(t["role"] for t in conv)
                for conv in batch["turns"].to_pylist()
            ]
            return pa.table(
                {
                    "conv_id": batch["conv_id"],
                    "n_turns": batch["n_turns"],
                    "roles_joined": pa.array(joined, pa.string()),
                }
            )

        return assembled.map_batches(project, batch_format="pyarrow", **_env)

    def parse_route_events(sf_dir: str):
        """Regex rule-registry parse of events.props (typed int capture)
        with the route column (rule-name route, sanitized)."""
        fn = make_parse_fn(_events_registry(), text_col="props")
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "props"],
        )
        ds = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, **_env)
        return ds.select_columns(["event_id", "event_type", "k", "rule", "route"])

    def parse_route_events_grok(sf_dir: str):
        """Same parse as ``parse_route_events`` but with the registry
        written in grok alias syntax (%{POSINT:k}) — the user-facing rule
        dialect; must match the identical oracle."""
        fn = make_parse_fn(_events_registry_grok(), text_col="props")
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "props"],
        )
        ds = ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, **_env)
        return ds.select_columns(["event_id", "event_type", "k", "rule", "route"])

    def ingest_ndjson_events(sf_dir: str):
        """Two-phase ulp-artifact interop (reference entry C,
        src/elastic.rs:76-99): phase 1 parses events and writes ulp-style
        NDJSON .data files (k re-encoded as 0x-hex for even event_ids —
        exercising the string sniffer); phase 2 re-reads them, folds the
        per-route dynamic schema, normalizes every record to the merged
        schema (hex→int64 via the cast matrix) and fans out routed
        Parquet sinks + sidecars. Returns the normalized rows."""
        import shutil as _sh

        from ulp_ray.pipelines.ingest import ingest_ndjson
        from ulp_ray.sources.io import write_ndjson

        base = os.path.join(
            "/tmp/ulp_ray_ingest", os.path.basename(os.path.normpath(sf_dir))
        )
        _sh.rmtree(base, ignore_errors=True)
        nd_dir = os.path.join(base, "job")
        out_dir = os.path.join(base, "out")

        fn = make_parse_fn(_events_registry(), text_col="props")
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "value", "props"],
        ).map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, **_env)

        def to_artifact(batch: pa.Table) -> pa.Table:
            eids = batch["event_id"].to_pylist()
            ks = batch["k"].to_pylist()
            k_hex = [
                None
                if v is None
                else (("0x%x" % v) if (i % 2 == 0) else str(v))
                for i, v in zip(eids, ks)
            ]
            cents = pc.cast(
                pc.round(
                    pc.multiply(batch["value"], 100.0),
                    round_mode="half_towards_infinity",
                ),
                pa.int64(),
            )
            return pa.table(
                {
                    "event_id": batch["event_id"],
                    "event_type": batch["event_type"],
                    "k_hex": pa.array(k_hex, pa.string()),
                    "value_cents": pc.cast(cents, pa.string()),
                }
            )

        write_ndjson(ds.map_batches(to_artifact, batch_format="pyarrow", **_env), nd_dir)
        out = ingest_ndjson(nd_dir, out_dir, route_template="evt_{{event_type}}")
        return out.select_columns(
            ["event_id", "event_type", "k_hex", "value_cents", "route"]
        )

    def read_evolved_events(sf_dir: str):
        """Schema-evolution read: two generations of files derived from
        events — gen A (even event_ids) has integer v, gen B (odd) has
        double v plus a later-added et column — read as ONE dataset under
        the widened schema (int→float, missing→null)."""
        import pyarrow.parquet as pq

        from ulp_ray.sources.io import read_parquet_evolved

        base = os.path.join(
            "/tmp/ulp_ray_evolved", os.path.basename(os.path.normpath(sf_dir))
        )
        import shutil as _sh

        _sh.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        ev = pq.read_table(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "value"],
        )
        even = pc.equal(pc.bit_wise_and(ev["event_id"], 1), 0)
        a = ev.filter(even)
        b = ev.filter(pc.invert(even))
        pq.write_table(
            pa.table(
                {
                    "event_id": a["event_id"],
                    "v": pc.cast(
                        pc.round(a["value"], round_mode="half_towards_infinity"),
                        pa.int64(),
                    ),
                }
            ),
            os.path.join(base, "gen-a.parquet"),
        )
        pq.write_table(
            pa.table(
                {"event_id": b["event_id"], "v": b["value"], "et": b["event_type"]}
            ),
            os.path.join(base, "gen-b.parquet"),
        )
        return read_parquet_evolved(base)

    def agg_rollup_events(sf_dir: str):
        """Two-phase (partial-per-batch + Sum) grouped rollup over events:
        count + exact integer-cents sum per event_type."""
        from ulp_ray.stages.aggregate import sum_rollup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "value"],
        )

        def cents(batch: pa.Table) -> pa.Table:
            return batch.set_column(
                1,
                "sum_cents",
                pc.cast(
                    pc.round(
                        pc.multiply(batch["value"], 100.0),
                        round_mode="half_towards_infinity",  # = DuckDB ROUND for the
                        # non-negative value domain (Arrow has no half-away mode)
                    ),
                    pa.int64(),
                ),
            )

        ds = ds.map_batches(cents, batch_format="pyarrow", **_env)
        return sum_rollup(ds, ["event_type"], ["sum_cents"], count_col="n")

    def enrich_events(sf_dir: str):
        """Broadcast-dictionary enrich on a stateful actor pool:
        event_type → event_class lookup (taxonomy held per actor)."""
        taxonomy = {
            ("purchase", ""): ("conversion", "none"),
            ("signup", ""): ("conversion", "none"),
            ("click", ""): ("engagement", "none"),
            ("view", ""): ("engagement", "none"),
            ("error", ""): ("fault", "none"),
        }
        tax_ref = ray.put(taxonomy)
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type"],
        )

        def add_tool(batch: pa.Table) -> pa.Table:
            batch = batch.append_column(
                "role", pc.cast(batch["event_type"], pa.string())
            )
            return batch.append_column(
                "tool", pa.array([""] * len(batch), pa.string())
            )

        ds = ds.map_batches(add_tool, batch_format="pyarrow", **_env)
        ds = ds.map_batches(
            Enricher,
            fn_constructor_kwargs={"taxonomy_ref": tax_ref},
            batch_format="pyarrow",
            concurrency=(1, 4),
            **_env,
        )

        def project(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "event_id": batch["event_id"],
                    "event_type": batch["event_type"],
                    "event_class": batch["role_class"],
                }
            )

        return ds.map_batches(project, batch_format="pyarrow", **_env)

    def route_counts_events(sf_dir: str):
        """Routed fan-out counts: sanitized route key per event, counted
        per route (the per-sink aggregate-count invariant)."""
        from ulp_ray.functions.routing import sanitise_routes
        from ulp_ray.stages.aggregate import count_rollup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["event_type"]
        )

        def add_route(batch: pa.Table) -> pa.Table:
            raw = pc.binary_join_element_wise(
                "EVT ", pc.cast(batch["event_type"], pa.string()), ""
            )
            return batch.append_column("route", sanitise_routes(raw))

        ds = ds.map_batches(add_route, batch_format="pyarrow", **_env)
        return count_rollup(ds, ["route"])

    def filter_events(sf_dir: str):
        """Vectorized predicate filter (value > 100) inside map_batches."""
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "value"],
        )
        return ds.map_batches(
            lambda t: t.filter(pc.greater(t["value"], 100.0)),
            batch_format="pyarrow",
            **_env,
        )

    def top_events(sf_dir: str):
        """sort(desc) + limit: top-100 events by value (ties broken by
        event_id for determinism)."""
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "value"],
        )
        return ds.sort(["value", "event_id"], descending=[True, True]).limit(100)

    def windowed_counts_events(sf_dir: str):
        """Tumbling 1-hour event-time window per event_type (floor ts to
        hour inside map_batches, then two-phase count rollup)."""
        from ulp_ray.stages.aggregate import count_rollup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "ts"],
        )

        def add_window(batch: pa.Table) -> pa.Table:
            w = pc.floor_temporal(batch["ts"], unit="hour")
            return batch.append_column("window_start", w).drop_columns(["ts"])

        ds = ds.map_batches(add_window, batch_format="pyarrow", **_env)
        return count_rollup(ds, ["event_type", "window_start"])

    def sliding_counts_events(sf_dir: str):
        """Sliding windows (1h size, 15min slide): each event explodes
        into its 4 containing windows (vectorized numpy), then the
        two-phase count rollup."""
        from ulp_ray.stages.window import sliding_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "ts"],
        )
        return sliding_counts(ds, ["event_type"], size_s=3600, slide_s=900)

    def running_total_events(sf_dir: str):
        """Running per-user total (integer cents) in event order — the
        SQL cumulative-window shape, bucketed co-group + one C-level
        cumulative kernel per bucket."""
        from ulp_ray.stages.window import running_aggregate

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "value"],
        )

        def cents(batch: pa.Table) -> pa.Table:
            c = pc.cast(
                pc.round(
                    pc.multiply(batch["value"], 100.0),
                    round_mode="half_towards_infinity",
                ),
                pa.int64(),
            )
            return pa.table(
                {
                    "event_id": batch["event_id"],
                    "user_id": batch["user_id"],
                    "value_cents": c,
                }
            )

        out = running_aggregate(
            ds.map_batches(cents, batch_format="pyarrow", **_env),
            key="user_id",
            order_col="event_id",
            value_col="value_cents",
            agg="cumsum",
            out_col="running_cents",
        )
        return out.select_columns(["event_id", "user_id", "running_cents"])

    def session_windows_events(sf_dir: str):
        """Gap-based session windows per user (30 min gap): groupby(user)
        + in-group sort by ts + gap split (documented ordering
        assumption: a user's history fits one group)."""
        from ulp_ray.stages.window import session_windows

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
        )
        return session_windows(ds, "user_id", gap_s=1800)

    def exact_dedup_docs(sf_dir: str):
        """Exact dedup on text: keep the min doc_id per distinct text.
        Uses the hash-bucket dedup stage — the shuffle key is
        hash(text) %% B (fixed width), never the raw text payload (a
        native groupby("text") would SORT the full text column)."""
        from ulp_ray.stages.dedup import exact_dedup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        return exact_dedup(ds, on="text", order_col="doc_id").select_columns(
            ["text", "doc_id"]
        )

    def ngram_jaccard_pairs_docs(sf_dir: str):
        """EXACT word-3-gram Jaccard near-dup pairs at t = 0.8 — the
        non-sketch dedup-family member (MinHash/SimHash estimate this
        set). Prefix-filtered all-pairs inverted index + bucketed verify;
        the integer (inter_n, union_n) sizes are the oracle contract —
        value-checked against a DuckDB gram self-join twin."""
        from ulp_ray.stages.dedup import ngram_jaccard_pairs

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        return ngram_jaccard_pairs(ds, n=3, threshold=0.8)

    def neardup_components_docs(sf_dir: str):
        """Transitive duplicate CLUSTERS: connected components of the
        exact n-gram-Jaccard pair graph (similarity isn't transitive,
        so cluster-level dedup needs the closure). Iterative hash-min
        label propagation over bucketed co-groups (stages/graph.py);
        oracle twin = a DuckDB recursive CTE over the same pair SQL."""
        from ulp_ray.stages.dedup import ngram_jaccard_pairs
        from ulp_ray.stages.graph import connected_components

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        pairs = ngram_jaccard_pairs(ds, n=3, threshold=0.8)
        return connected_components(pairs)

    def token_count_docs(sf_dir: str):
        """Whitespace token count per document, vectorized Arrow kernels
        (count = #spaces + 1, the same formula as the oracle SQL)."""
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )

        def toks(batch: pa.Table) -> pa.Table:
            text = batch["text"]
            n_space = pc.subtract(
                pc.utf8_length(text),
                pc.utf8_length(pc.replace_substring(text, " ", "")),
            )
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "n_tokens": pc.cast(pc.add(n_space, 1), pa.int64()),
                }
            )

        return ds.map_batches(toks, batch_format="pyarrow", **_env)

    def curate_documents_pipeline(sf_dir: str):
        """Corpus-curation pipeline over documents: analyze → quality
        filter → exact dedup → minhash near-dup removal; returns the
        curated rows. [non-SQL: sketch-based composition]"""
        from ulp_ray.pipelines.curation import curate_documents

        ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        curated, _report, _splits = curate_documents(ds, min_quality=0.2)
        return curated.select_columns(
            ["doc_id", "lang", "source", "n_chars", "quality_score", "lang_pred"]
        )

    def curate_documents_sql(sf_dir: str):
        """Curation composite with the (non-SQL) near-dup stage disabled:
        analyze → quality filter ≥ 0.2 → exact dedup. Pins the pipeline
        COMPOSITION against a DuckDB window query (the sketch stage keeps
        its planted-pair tests; here the glue itself is oracle-checked)."""
        from ulp_ray.pipelines.curation import curate_documents

        ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        curated, _report, _splits = curate_documents(
            ds, min_quality=0.2, near_dup=False
        )
        return curated.select_columns(
            ["doc_id", "lang", "source", "n_chars", "n_tokens", "quality_score"]
        )

    def dedup_full_docs(sf_dir: str):
        """Exact dedup via the hash-partition + per-group-first stage
        (full surviving rows, min doc_id wins per distinct text)."""
        from ulp_ray.stages.dedup import exact_dedup

        ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
        return exact_dedup(ds, on="text", order_col="doc_id")

    def minhash_dedup_docs(sf_dir: str):
        """MinHash + banded LSH near-dup pairs over documents.text with
        exact n-gram-Jaccard verification ≥ 0.8. [non-SQL: sketch-based]"""
        from ulp_ray.stages.dedup import minhash_dedup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        return minhash_dedup(ds, threshold=0.8)

    def simhash_docs(sf_dir: str):
        """64-bit SimHash signature per document. [non-SQL: sketch-based]"""
        from ulp_ray.stages.dedup import simhash_signatures

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        return simhash_signatures(ds)

    def embedding_neardup_pairs(sf_dir: str):
        """Embedding-cosine near-dup pairs (broadcast normalized matrix +
        blocked float64 matmul; auto-routes to LSH bucketing above the
        exact-path row bound). Pair identities are oracle-checked against
        a DuckDB cosine self-join."""
        from ulp_ray.stages.dedup import embedding_neardup

        ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        # the operator returns a Dataset (pair sets are unbounded at
        # corpus scale); this caller materializes the small benchmark
        # result with a pinned schema (an EMPTY Dataset's to_pandas drops
        # column names, which would fail the driver's schema compare)
        rows = embedding_neardup(ds, threshold=0.9).take_all()
        return pa.Table.from_pylist(
            rows, schema=pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
        )

    def ann_topk_embeddings(sf_dir: str):
        """Brute-force cosine top-k: first 4 corpus vectors as queries,
        broadcast query matrix, per-batch float64 matmul partial top-k,
        rank tie-broken by vec_id — the (query, rank, id) triple is
        oracle-checked against a DuckDB window ranking."""
        import numpy as np

        from ulp_ray.stages.similarity import ann_topk

        ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        qrows = (
            ds.map_batches(
                lambda t: t.filter(pc.less(t["vec_id"], 4)),
                batch_format="pyarrow",
                **_env,
            )
            .take_all()
        )
        queries = np.array(
            [r["embedding"] for r in sorted(qrows, key=lambda r: r["vec_id"])],
            dtype=np.float64,
        )
        return ann_topk(ds, queries, k=10).select(["query_id", "rank", "vec_id"])

    def ann_topk_ivf_embeddings(sf_dir: str):
        """The IVF scale path under the value gate: full-probe IVF
        (n_probe = n_lists) is EXACT by construction — every list is
        scanned, so the result must equal brute force — which makes the
        whole IVF machinery (corpus-spread codebook sample, k-means++
        init, per-batch assign + masked matmul, partial top-k merge)
        oracle-checkable against the same DuckDB window ranking. The
        approximate regime (n_probe < n_lists) is recall-bound-tested
        in tests/test_similarity.py instead."""
        import numpy as np

        from ulp_ray.stages.similarity import ann_topk_ivf

        ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        qrows = (
            ds.map_batches(
                lambda t: t.filter(pc.less(t["vec_id"], 4)),
                batch_format="pyarrow",
                **_env,
            )
            .take_all()
        )
        queries = np.array(
            [r["embedding"] for r in sorted(qrows, key=lambda r: r["vec_id"])],
            dtype=np.float64,
        )
        return ann_topk_ivf(ds, queries, k=10, n_lists=8, n_probe=8).select(
            ["query_id", "rank", "vec_id"]
        )

    def lang_quality_docs(sf_dir: str):
        """Text analysis: language-ID heuristic + quality features +
        fingerprint per document (lang_pred column is heuristic —
        [non-SQL]); n_chars/n_tokens/stopword_ratio are oracle-checked via
        lang_quality_docs_sql."""
        from ulp_ray.functions.text import (
            fingerprint_batch,
            lang_id_batch,
            quality_features,
        )

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

        def analyze(batch: pa.Table) -> pa.Table:
            q = quality_features(batch["text"])
            out = {"doc_id": batch["doc_id"]}
            for name in q.column_names:
                out[name] = q[name]
            out["lang_pred"] = lang_id_batch(batch["text"])
            out["fingerprint"] = fingerprint_batch(batch["text"])
            return pa.table(out)

        return ds.map_batches(analyze, batch_format="pyarrow", **_env)

    def normalize_events(sf_dir: str):
        """Normalize-to-schema stage (phase-2 cast analog): cast value
        (double) to int64 with the reference matrix's half-away-from-zero
        rounding."""
        import pyarrow as pa2

        from ulp_ray.stages.normalize import normalize_to_schema

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "value"],
        )
        target = pa2.schema([("event_id", pa2.int64()), ("value_int", pa2.int64())])

        def rename(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["event_id", "value_int"])

        ds = ds.map_batches(rename, batch_format="pyarrow", **_env)
        return normalize_to_schema(ds, target)

    def join_orders_customer(sf_dir: str):
        """Broadcast hash join: orders (streams) x customer (ray.put once,
        merged per batch) - no shuffle."""
        import pyarrow.parquet as pq

        from ulp_ray.stages.join import broadcast_join

        cust = pq.read_table(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_mktsegment"],
        ).rename_columns(["o_custkey", "c_name", "c_mktsegment"])
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey"],
        )
        return broadcast_join(orders, cust, on="o_custkey", how="inner")

    def join_orders_customer_shuffle(sf_dir: str):
        """Hash-partitioned large-large join (native Dataset.join): both
        sides shuffle on the key."""
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_mktsegment"],
        )
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey"],
        )
        joined = orders.join(
            cust,
            join_type="inner",
            num_partitions=8,
            on=("o_custkey",),
            right_on=("c_custkey",),
        )
        return joined.select_columns(
            ["o_orderkey", "o_custkey", "c_name", "c_mktsegment"]
        )

    def join_orders_customer_bucketed(sf_dir: str):
        """Explicit bucketed hash join (hash(key) %% B co-grouping with a
        per-bucket merge) - the portable/salt-able join form."""
        from ulp_ray.stages.join import bucketed_hash_join

        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_mktsegment"],
        ).map_batches(
            lambda t: t.rename_columns(["o_custkey", "c_name", "c_mktsegment"]),
            batch_format="pyarrow",
            **_env,
        )
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey"],
        )
        return bucketed_hash_join(orders, cust, on="o_custkey", buckets=16)

    def asof_purchase_signup(sf_dir: str):
        """As-of join (custom operator: bucket-by-key + merge_asof per
        group): each purchase event joined to the user's latest prior-or-
        equal signup event."""
        from ulp_ray.stages.asof import asof_join

        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "event_type", "ts"],
        )
        left = ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "purchase")).drop_columns(
                ["event_type"]
            ),
            batch_format="pyarrow",
            **_env,
        )
        def mk_right(t: pa.Table) -> pa.Table:
            s = t.filter(pc.equal(t["event_type"], "signup")).drop_columns(
                ["event_type", "event_id"]
            )
            return s.append_column("signup_ts", s["ts"])

        right = ev.map_batches(mk_right, batch_format="pyarrow", **_env)
        return asof_join(left, right, on="user_id", ts_col="ts")

    def interval_join_events(sf_dir: str):
        """Interval (range) join: each purchase paired with every signup
        window [signup_ts, signup_ts + 1 h] of the same user containing
        it — a many-to-many inequality join (bucket co-group + one
        vectorized between-mask per bucket)."""
        from ulp_ray.stages.interval import interval_join

        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "event_type", "ts"],
        )
        left = ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "purchase")).drop_columns(
                ["event_type"]
            ),
            batch_format="pyarrow",
            **_env,
        )

        def mk_right(t: pa.Table) -> pa.Table:
            s = t.filter(pc.equal(t["event_type"], "signup"))
            start = s["ts"]
            end = pc.add(start, pa.scalar(3_600_000_000, pa.duration("us")))
            return pa.table(
                {"user_id": s["user_id"], "iv_start": start, "iv_end": end}
            )

        right = ev.map_batches(mk_right, batch_format="pyarrow", **_env)
        return interval_join(
            left, right, on="user_id", ts_col="ts",
            start_col="iv_start", end_col="iv_end",
        )

    def topk_events_per_type(sf_dir: str):
        """Grouped top-k: the 3 highest-value events per event_type
        (per-block partial top-k → tiny fold; ties by event_id)."""
        from ulp_ray.stages.aggregate import grouped_topk

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "event_id", "value"],
        )
        return grouped_topk(
            ds, ["event_type"], "value", k=3, tie_cols=["event_id"]
        ).select_columns(["event_type", "event_id", "value"])

    def pivot_event_counts(sf_dir: str):
        """Pivot (wide) counts per user: one int64 column per event type
        (conditional aggregation; explicit pivot values, partial-combined
        per block)."""
        from ulp_ray.stages.aggregate import pivot_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_type"],
        )
        return pivot_counts(
            ds,
            ["user_id"],
            "event_type",
            values=["click", "view", "purchase", "signup", "error"],
        )

    def quantile_value_per_type(sf_dir: str):
        """Exact grouped median (quantile_cont semantics) of value per
        event_type — the column-pruned bounded-key-count exchange."""
        from ulp_ray.stages.aggregate import grouped_quantile

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "value"],
        )
        return grouped_quantile(ds, ["event_type"], "value", 0.5, out_col="q0_5")

    def bm25_topk_docs(sf_dir: str):
        """BM25 top-10 for a fixed lexical query — the sparse-retrieval
        companion to ann_topk (stages/retrieval.py): stats fold (N,
        avgdl, query-term df) + per-block vectorized scoring with O(k)
        top-k partials. Rank and 4-decimal score are the oracle
        contract vs a DuckDB twin computing the identical formula."""
        from ulp_ray.stages.retrieval import bm25_topk

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        return bm25_topk(ds, "hash join merge", k=10)

    def heavy_hitters_tokens_docs(sf_dir: str):
        """Approximate top-20 tokens via mergeable Misra–Gries
        summaries: per-block exact counts reduce to ≤ capacity
        counters, counters sum, sort+limit reads off the top-k with
        est ∈ [true − N/(capacity+1), true]. The bounded-memory sketch
        twin of the exact vocabulary_docs → top-k fold.
        [non-SQL: approximate]"""
        from ulp_ray.stages._tokens import flat_tokens
        from ulp_ray.stages.sketch import heavy_hitters

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )
        return heavy_hitters(
            ds, values_fn=lambda b: flat_tokens(b["text"])[0], k=20
        )

    def heavy_hitters_tokens_per_lang(sf_dir: str):
        """Per-language approximate top-10 tokens — grouped Misra–Gries
        (per-block per-group MG reduction → summed counters →
        grouped_topk), the sketch twin of the exact
        top_tokens_per_lang fold. [non-SQL: approximate]"""
        from ulp_ray.stages._tokens import flat_tokens
        from ulp_ray.stages.sketch import grouped_heavy_hitters

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]
        )
        return grouped_heavy_hitters(
            ds, "lang", values_fn=lambda b: flat_tokens(b["text"]), k=10
        )

    def approx_distinct_users(sf_dir: str):
        """HyperLogLog approximate COUNT(DISTINCT user_id): one mergeable
        4KiB register sketch per batch, max-merged on the driver.
        [non-SQL: approximate]"""
        import pyarrow as pa2

        from ulp_ray.stages.sketch import approx_distinct

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
        )
        est = approx_distinct(ds, "user_id")
        return pa2.table({"approx_distinct_users": pa2.array([est], pa2.int64())})

    def distinct_users_events(sf_dir: str):
        """Distinct values (set op): unique user_id via grouped count."""
        from ray.data.aggregate import Count

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
        )
        return ds.groupby("user_id").aggregate(Count(alias_name="n")).select_columns(
            ["user_id"]
        )

    def approx_distinct_users_per_type(sf_dir: str):
        """Grouped HyperLogLog: approximate COUNT(DISTINCT user_id) per
        event_type — sparse per-block (key, register, max-rank) partials
        max-merged in a bucketed co-group; error ~1.6% at p=12.
        [non-SQL: approximate]"""
        from ulp_ray.stages.sketch import approx_distinct_grouped

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        )
        return approx_distinct_grouped(
            ds, ["event_type"], "user_id", out_col="approx_distinct_users"
        )

    def distinct_users_per_type(sf_dir: str):
        """Exact oracle twin of the grouped HLL: COUNT(DISTINCT user_id)
        per event_type. Per-block C-level pair dedup first, so only
        distinct (type, user) rows from each block reach the exchange;
        the global pair groupby finishes the dedup, then a tiny count
        per type."""
        import pyarrow as pa2

        from ray.data.aggregate import Count

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        )

        def block_dedup(b: "pa2.Table") -> "pa2.Table":
            return b.group_by(["event_type", "user_id"]).aggregate([])

        pairs = (
            ds.map_batches(block_dedup, batch_format="pyarrow", **remote_env())
            .groupby(["event_type", "user_id"])
            .aggregate(Count(alias_name="__n"))
            .select_columns(["event_type"])
        )
        return pairs.groupby("event_type").aggregate(
            Count(alias_name="distinct_users")
        )

    def quality_docs_sql(sf_dir: str):
        """SQL-checkable slice of the text-analysis stage: n_chars,
        n_tokens, stopword_ratio per doc (same formulas as the oracle)."""
        from ulp_ray.functions.text import quality_features

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

        def analyze(batch: pa.Table) -> pa.Table:
            q = quality_features(batch["text"])
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "n_chars": q["n_chars"],
                    "n_tokens": q["n_tokens"],
                    "stopword_ratio": q["stopword_ratio"],
                }
            )

        return ds.map_batches(analyze, batch_format="pyarrow", **_env)

    def q1_lineitem(sf_dir: str):
        """TPC-H-Q1-style rollup: exact Sum/Count per (returnflag,
        linestatus) with partial pre-aggregation before the shuffle."""
        from ulp_ray.stages.aggregate import sum_rollup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_linestatus", "l_quantity"],
        )

        def qty_int(batch: pa.Table) -> pa.Table:
            return batch.set_column(
                2, "sum_qty", pc.cast(batch["l_quantity"], pa.int64())
            )

        ds = ds.map_batches(qty_int, batch_format="pyarrow", **_env)
        return sum_rollup(
            ds, ["l_returnflag", "l_linestatus"], ["sum_qty"], count_col="n"
        )

    def rolling_sum_events(sf_dir: str):
        """Per-user rolling row-frame SUM over the last 5 rows ordered by
        (ts, event_id) — the SQL ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
        frame. Summing an int column keeps the oracle comparison exact
        (float frames are pinned numerically in pytest instead)."""
        from ulp_ray.stages.window import rolling_aggregate

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts"],
        )
        out = rolling_aggregate(
            ds, "user_id", ["ts", "event_id"], "event_id",
            window_rows=5, agg="sum", out_col="rolling_sum",
        )

        def fin(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "user_id": batch["user_id"],
                    "event_id": batch["event_id"],
                    "rolling_sum": pc.cast(batch["rolling_sum"], pa.int64()),
                }
            )

        return out.map_batches(fin, batch_format="pyarrow", **_env)

    def rank_events_per_user(sf_dir: str):
        """ROW_NUMBER per user ordered by (ts, event_id) — bucketed
        co-group, one C-level cumcount per bucket."""
        from ulp_ray.stages.window import grouped_rank

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts"],
        )
        out = grouped_rank(
            ds, ["user_id"], ["ts", "event_id"], method="row_number", out_col="rn"
        )
        return out.select_columns(["user_id", "event_id", "rn"])

    def custkeys_intersect(sf_dir: str):
        """SQL INTERSECT by composition: distinct customer keys that
        also placed orders — count_rollup (distinct) → bucketed semi
        join. No new stage code."""
        from ulp_ray.stages.aggregate import count_rollup
        from ulp_ray.stages.join import bucketed_semi_join

        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
        )
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
        )
        distinct = count_rollup(cust, ["c_custkey"]).select_columns(["c_custkey"])
        return bucketed_semi_join(
            distinct, orders, on="c_custkey", right_on="o_custkey"
        )

    def custkeys_except(sf_dir: str):
        """SQL EXCEPT by composition: distinct ordering customer keys
        minus the high-balance customers — count_rollup (distinct) →
        bucketed anti join. (Defined over a non-empty complement: the
        naive customers-without-orders set is empty at these SFs, and
        an empty Dataset's to_pandas loses its columns, which would
        trip the driver's schema compare on a correct result.)"""
        from ulp_ray.stages.aggregate import count_rollup
        from ulp_ray.stages.join import bucketed_anti_join

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"]
        )
        rich = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_acctbal"],
        ).filter(expr="c_acctbal > 5000")
        distinct = count_rollup(orders, ["o_custkey"]).select_columns(["o_custkey"])
        return bucketed_anti_join(
            distinct, rich, on="o_custkey", right_on="c_custkey"
        )

    def rollup_counts_events(sf_dir: str):
        """GROUP BY ROLLUP(event_type, user_id) counts — the rollup
        cascade: finest level pays the per-block partial fold, coarser
        levels fold the previous level's tiny output, raw rows read
        once (stages/aggregate.rollup_counts)."""
        from ulp_ray.stages.aggregate import rollup_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        )
        return rollup_counts(ds, ["event_type", "user_id"])

    def mode_event_type_per_user(sf_dir: str):
        """Grouped MODE by composition — count_rollup (per-block
        partial combine) → grouped_topk k=1 (ties break by ascending
        event_type, matching the SQL ROW_NUMBER twin). No new stage
        code: the operator algebra composes."""
        from ulp_ray.stages.aggregate import count_rollup, grouped_topk

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_type"],
        )
        counts = count_rollup(ds, ["user_id", "event_type"])
        return grouped_topk(
            counts, ["user_id"], "n", 1, tie_cols=["event_type"]
        )

    def first_value_per_user(sf_dir: str):
        """FIRST_VALUE over the full partition — each event annotated
        with its user's first event_type by (ts, event_id); positional
        edge semantics (a NULL edge row stays NULL, unlike pandas'
        NA-skipping first)."""
        from ulp_ray.stages.window import edge_value_column

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts", "event_type"],
        )
        out = edge_value_column(
            ds, "user_id", ["ts", "event_id"], "event_type",
            edge="first", out_col="first_type",
        )
        return out.select_columns(["user_id", "event_id", "first_type"])

    def ntile_events_per_type(sf_dir: str):
        """NTILE(4) per event_type ordered by (value, event_id) — the
        SQL size rule (first count%n tiles get the extra row),
        vectorized per bucket."""
        from ulp_ray.stages.window import grouped_rank

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "event_id", "value"],
        )
        out = grouped_rank(
            ds,
            ["event_type"],
            ["value", "event_id"],
            method="ntile",
            ntile_n=4,
            out_col="tile",
        )
        return out.select_columns(["event_type", "event_id", "tile"])

    def percent_rank_value_per_type(sf_dir: str):
        """PERCENT_RANK per event_type over value — ties share a value,
        (rank-1)/(count-1) float64 contract."""
        from ulp_ray.stages.window import grouped_rank

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "event_id", "value"],
        )
        out = grouped_rank(
            ds, ["event_type"], ["value"], method="percent_rank", out_col="pr"
        )
        return out.select_columns(["event_type", "event_id", "pr"])

    def cume_dist_value_per_type(sf_dir: str):
        """CUME_DIST per event_type over value — rank(method='max')/count,
        ties share a value; completes the window-distribution family
        (ntile / percent_rank / cume_dist) under the value oracle."""
        from ulp_ray.stages.window import grouped_rank

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "event_id", "value"],
        )
        out = grouped_rank(
            ds, ["event_type"], ["value"], method="cume_dist", out_col="cd"
        )
        return out.select_columns(["event_type", "event_id", "cd"])

    def heavy_hitters_exact_docs(sf_dir: str):
        """Misra–Gries in EXACT mode: with capacity ≥ the corpus'
        distinct-value count the per-block reduction never triggers, so
        the summed summary IS the exact count table and the top-k is
        value-checkable against the SQL twin — the bridge between the
        approximate heavy_hitters_tokens_docs row and the oracle gate
        (capacity=1M here vs a 31-token fixture vocabulary; the bound
        est ∈ [true − N/(cap+1), true] collapses to est = true)."""
        from ulp_ray.stages._tokens import flat_tokens
        from ulp_ray.stages.sketch import heavy_hitters

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )
        return heavy_hitters(
            ds,
            values_fn=lambda b: flat_tokens(b["text"])[0],
            k=20,
            capacity=1_000_000,
        )

    def minhash_planted_pairs_docs(sf_dir: str):
        """Planted-duplicate MinHash invariant under the VALUE oracle:
        byte-identical docs share every band bucket, so banded LSH
        recalls them with probability 1 and exact verification scores
        them jaccard = 1.0 — the planted pair set is therefore an exact,
        SQL-expressible contract (unlike the probabilistic recall of
        organic near-dups, pinned rows-only in minhash_dedup_docs).
        Plants a copy of every doc_id %% 20 == 3 at doc_id + 1_000_000,
        runs the full minhash pipeline over the augmented corpus, and
        restricts the emitted pairs to identical texts via two bucketed
        hash joins — the SQL twin is a text self-join on the same
        augmented table."""
        from ulp_ray.stages.dedup import minhash_dedup
        from ulp_ray.stages.join import bucketed_hash_join

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )

        def plant(batch: pa.Table) -> pa.Table:
            import numpy as np

            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            extra = batch.filter(pa.array(ids % 20 == 3))
            extra = extra.set_column(
                extra.schema.get_field_index("doc_id"),
                "doc_id",
                pc.add(extra["doc_id"], 1_000_000),
            )
            return pa.concat_tables([batch, extra])

        aug = ds.map_batches(plant, batch_format="pyarrow", **_env)
        pairs = minhash_dedup(aug, threshold=0.8)

        def texts_as(tag: str):
            def fn(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {f"id_{tag}": batch["doc_id"], f"__text_{tag}": batch["text"]}
                )

            return fn

        t_a = aug.map_batches(texts_as("a"), batch_format="pyarrow", **_env)
        t_b = aug.map_batches(texts_as("b"), batch_format="pyarrow", **_env)
        j = bucketed_hash_join(pairs, t_a, on="id_a", how="inner")
        j = bucketed_hash_join(j, t_b, on="id_b", how="inner")

        def identical(batch: pa.Table) -> pa.Table:
            keep = pc.equal(batch["__text_a"], batch["__text_b"])
            return batch.filter(keep).select(["id_a", "id_b"])

        return j.map_batches(identical, batch_format="pyarrow", **_env)

    def semi_join_orders_rich(sf_dir: str):
        """Orders placed by customers with acctbal > 5000 — bucketed semi
        join (EXISTS): no right columns, no duplication."""
        from ulp_ray.stages.join import bucketed_semi_join

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        rich = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_acctbal"],
        ).filter(expr="c_acctbal > 5000")
        return bucketed_semi_join(orders, rich, on="o_custkey", right_on="c_custkey")

    def semi_join_orders_rich_bloom(sf_dir: str):
        """Same semi join through bloom_semi_join under PRODUCTION
        defaults: the r5 auto-skip heuristic sees the left side's free
        parquet row count below the bloom break-even (min_left_rows)
        and routes straight to the exact bucketed semi join — the build
        + broadcast + probe passes were pure overhead at this scale
        (measured 4.96 s vs ~3 s at sf0.1, BASELINE.md). Results are
        identical either way; the bloom machinery itself is pinned by
        the _forced twin below and its pytest suite. Shares the EXISTS
        oracle with semi_join_orders_rich."""
        from ulp_ray.stages.bloom import bloom_semi_join

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        rich = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_acctbal"],
        ).filter(expr="c_acctbal > 5000")
        return bloom_semi_join(
            orders, rich, on="o_custkey", right_on="c_custkey", exact=True
        )

    def semi_join_orders_rich_bloom_forced(sf_dir: str):
        """The Bloom pre-filter path PINNED past the auto-skip
        (min_left_rows=0): the right side's keys fold into a broadcast
        bitmap, non-matching orders drop inside map_batches BEFORE the
        exchange, and the exact bucketed semi join verifies survivors —
        identical results, ~selectivity × left rows shuffled. This row
        keeps the bloom machinery itself under the value oracle."""
        from ulp_ray.stages.bloom import bloom_semi_join

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        rich = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_acctbal"],
        ).filter(expr="c_acctbal > 5000")
        return bloom_semi_join(
            orders,
            rich,
            on="o_custkey",
            right_on="c_custkey",
            exact=True,
            min_left_rows=0,
        )

    def anti_join_orders_rich(sf_dir: str):
        """Complement of the semi join: orders from customers at or below
        the balance bar (NOT EXISTS; key sets here are null-free so the
        containment semantics coincide with SQL)."""
        from ulp_ray.stages.join import bucketed_anti_join

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        rich = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_acctbal"],
        ).filter(expr="c_acctbal > 5000")
        return bucketed_anti_join(orders, rich, on="o_custkey", right_on="c_custkey")

    def vocabulary_docs(sf_dir: str):
        """Corpus term-frequency table (whitespace tokens, min_count=5):
        per-block Arrow value_counts partials + Sum — raw text never
        shuffles."""
        from ulp_ray.stages.vocab import vocabulary

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )
        return vocabulary(ds, "text", min_count=5)

    def doc_frequency_docs(sf_dir: str):
        """Document-frequency table: tokens counted once per containing
        document (per-block C-level pair dedup before the Sum)."""
        from ulp_ray.stages.vocab import doc_frequency

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )
        return doc_frequency(ds, "text")

    def redact_pii_docs(sf_dir: str):
        """PII masking over the documents text: one RE2 pass per pattern
        (emails, IPs, phone shapes), byte-identical to the DuckDB
        regexp_replace chain with the same patterns."""
        from ulp_ray.functions.text import redact_pii

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

        def red(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_id": batch["doc_id"], "text": redact_pii(batch["text"])}
            )

        return ds.map_batches(red, batch_format="pyarrow", **_env)

    def contamination_docs(sf_dir: str):
        """Benchmark-contamination flags: broadcast probe set, one
        compiled RE2 alternation per worker, corpus streams."""
        from ulp_ray.stages.contamination import flag_contaminated

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        out = flag_contaminated(
            ds, ["batch batch batch", "window window"], text_col="text"
        )
        return out.select_columns(["doc_id", "contaminated"])

    def full_outer_join_orders_customer(sf_dir: str):
        """FULL OUTER join (r5 — completes the join family): unmatched
        rows on EITHER side survive with the other side's columns null.
        The fixture is fully connected (every customer has orders), so
        the two sides are filtered to overlapping-but-distinct key
        ranges (custkey %% 7: left < 4, right > 2) — the oracle then
        checks all three row classes: matched, left-only, right-only.
        SQL null-key semantics are enforced inside the bucketed merge
        (a null key matches nothing)."""
        from ulp_ray.stages.join import bucketed_hash_join

        def mod_filter(col: str, keep):
            def fn(batch: pa.Table) -> pa.Table:
                import numpy as np

                m = batch[col].to_numpy(zero_copy_only=False) % 7
                return batch.filter(pa.array(keep(m)))

            return fn

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        ).map_batches(
            mod_filter("o_custkey", lambda m: m < 4),
            batch_format="pyarrow",
            **_env,
        )
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name"],
        ).map_batches(
            mod_filter("c_custkey", lambda m: m > 2),
            batch_format="pyarrow",
            **_env,
        )

        def adapt(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"o_custkey": batch["c_custkey"], "c_name": batch["c_name"]}
            )

        right = cust.map_batches(adapt, batch_format="pyarrow", **_env)
        return bucketed_hash_join(orders, right, on="o_custkey", how="outer")

    def rolling_time_sum_events(sf_dir: str):
        """Event-time RANGE-frame rolling sum (r5): per user, the sum of
        value (integer cents) over the trailing 1 hour INCLUDING
        timestamp peers — ``SUM(v) OVER (PARTITION BY user ORDER BY ts
        RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)``.
        Deterministic without a tiebreaker (peers share a value), unlike
        the row-frame rolling_sum_events."""
        from ulp_ray.stages.window import rolling_time_aggregate

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "value", "ts"],
        )

        def cents(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "user_id": batch["user_id"],
                    "event_id": batch["event_id"],
                    "ts": batch["ts"],
                    "value_cents": pc.cast(
                        pc.round(
                            pc.multiply(batch["value"], 100),
                            round_mode="half_towards_infinity",
                        ),
                        pa.int64(),
                    ),
                }
            )

        out = rolling_time_aggregate(
            ds.map_batches(cents, batch_format="pyarrow", **_env),
            "user_id",
            "ts",
            "value_cents",
            window_s=3600,
            agg="sum",
            out_col="rts",
        )

        def finish(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "user_id": batch["user_id"],
                    "event_id": batch["event_id"],
                    "rts": pc.cast(pc.round(batch["rts"]), pa.int64()),
                }
            )

        return out.map_batches(finish, batch_format="pyarrow", **_env)

    def grouped_sample_events(sf_dir: str):
        """Deterministic per-group sample (r5): the 50 events per
        event_type with the smallest Knuth hash of event_id — exact SQL
        twin because the hash is plain integer arithmetic. The
        per-source downsampling primitive."""
        from ulp_ray.stages.split import grouped_sample

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "event_id"],
        )
        return grouped_sample(ds, "event_type", "event_id", k=50)

    def bigram_logprob_docs(sf_dir: str):
        """Per-document average bigram log-probability under an add-one
        smoothed corpus bigram LM (r5) — the perplexity-filter quality
        signal. Exact-formula DuckDB twin; scores rounded half-away to
        4 decimals (the BM25 FP contract)."""
        from ulp_ray.stages.vocab import bigram_logprob

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        return bigram_logprob(ds, text_col="text", id_col="doc_id")

    def duplicated_windows_docs(sf_dir: str):
        """Per-doc corpus-duplicated 5-token-window counts (r5) — the
        Lee et al. exact-substring duplication signal at word-window
        granularity. All-integer contract, exact DuckDB twin."""
        from ulp_ray.stages.vocab import duplicated_window_stats

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        return duplicated_window_stats(ds, "text", "doc_id", n=5, min_dup=2)

    def token_budget_docs(sf_dir: str):
        """Per-language token-budget selection (r5) — the data-mixing
        primitive: keep docs per lang in Knuth-hash order while the
        running token total stays <= 2000. Exact SQL twin (integer
        hash + window SUM)."""
        import numpy as np

        from ulp_ray.stages.split import token_budget_sample

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang", "text"],
        )

        def ntok(batch: pa.Table) -> pa.Table:
            from ulp_ray.stages._tokens import flat_tokens

            _, par = flat_tokens(batch["text"])
            counts = np.bincount(par, minlength=batch.num_rows)
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "lang": batch["lang"],
                    "ntok": pa.array(counts[: batch.num_rows], pa.int64()),
                }
            )

        return token_budget_sample(
            ds.map_batches(ntok, batch_format="pyarrow", **_env),
            "lang",
            "doc_id",
            "ntok",
            budget=2000,
        )

    def corr_value_tod_per_type(sf_dir: str):
        """Grouped Pearson correlation (r5): per event_type, CORR of
        value (cents) vs time-of-day seconds — exact int64 sums through
        the mergeable-partials fold, identical float64 formula on both
        engines (the SQL twin is the explicit formula over exact BIGINT
        sums cast to DOUBLE, not CORR())."""
        from ulp_ray.stages.aggregate import grouped_corr

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "value", "ts"],
        )

        def prep(batch: pa.Table) -> pa.Table:
            import numpy as np

            ts_us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            tod = (ts_us // 1_000_000) % 86_400
            return pa.table(
                {
                    "event_type": batch["event_type"],
                    "vc": pc.cast(
                        pc.round(
                            pc.multiply(batch["value"], 100),
                            round_mode="half_towards_infinity",
                        ),
                        pa.int64(),
                    ),
                    "tod": pa.array(tod, pa.int64()),
                }
            )

        return grouped_corr(
            ds.map_batches(prep, batch_format="pyarrow", **_env),
            ["event_type"],
            "vc",
            "tod",
        )

    def token_entropy_docs(sf_dir: str):
        """Per-doc Shannon token entropy (r5) — the gibberish/repetition
        quality signal; one streaming map, 4dp half-away float contract
        with an exact-formula DuckDB twin."""
        from ulp_ray.functions.text import token_entropy

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )

        def fn(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "entropy": token_entropy(batch["text"]),
                }
            )

        return ds.map_batches(fn, batch_format="pyarrow", **_env)

    def dense_windowed_counts_events(sf_dir: str):
        """Zero-filled per-type hourly counts (r5): tumbling counts then
        gap filling between each type's min and max hour — the dense
        time series feature pipelines want (sparse GROUP BY output has
        no rows for empty windows)."""
        from ulp_ray.stages.window import fill_time_gaps, tumbling_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "ts"],
        )
        sparse = tumbling_counts(ds, ["event_type"], "ts", unit="hour")
        return fill_time_gaps(sparse, ["event_type"], "window_start", step_s=3600)

    def cross_jaccard_docs(sf_dir: str):
        """Cross-corpus exact n-gram Jaccard pairs (r5): documents vs a
        probe subset (doc_id % 50 == 0) — the eval-set near-dup
        decontamination primitive. Probe inverted index broadcasts
        once; the corpus streams (no shuffle). Integer contract
        inter_n >= 0.8 * union_n, exact DuckDB twin."""
        from ulp_ray.stages.dedup import cross_jaccard_pairs

        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )

        def probe_filter(batch: pa.Table) -> pa.Table:
            import numpy as np

            m = batch["doc_id"].to_numpy(zero_copy_only=False) % 50 == 0
            return batch.filter(pa.array(m))

        probes = docs.map_batches(probe_filter, batch_format="pyarrow", **_env)
        return cross_jaccard_pairs(docs, probes, n=3, threshold=0.8)

    def grouping_sets_events(sf_dir: str):
        """GROUP BY GROUPING SETS counts (r5): the caller-listed
        subsets ((event_type, user_id), (event_type), ()) — rollup/cube
        generalization via the same fold cascade."""
        from ulp_ray.stages.aggregate import grouping_sets_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        )
        return grouping_sets_counts(
            ds,
            ["event_type", "user_id"],
            [["event_type", "user_id"], ["event_type"], []],
        )

    def frame_sum_events(sf_dir: str):
        """Centered row-frame window (r5): per-user sum of value cents
        over ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING, ordered by
        (ts, event_id) — completes the frame family beside the
        trailing rolling_sum_events."""
        from ulp_ray.stages.window import rolling_frame_aggregate

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "value", "ts"],
        )

        def cents(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "user_id": batch["user_id"],
                    "event_id": batch["event_id"],
                    "ts": batch["ts"],
                    "vc": pc.cast(
                        pc.round(
                            pc.multiply(batch["value"], 100),
                            round_mode="half_towards_infinity",
                        ),
                        pa.int64(),
                    ),
                }
            )

        out = rolling_frame_aggregate(
            ds.map_batches(cents, batch_format="pyarrow", **_env),
            "user_id",
            ["ts", "event_id"],
            "vc",
            preceding=2,
            following=1,
            agg="sum",
            out_col="fs",
        )

        def finish(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "user_id": batch["user_id"],
                    "event_id": batch["event_id"],
                    "fs": pc.cast(pc.round(batch["fs"]), pa.int64()),
                }
            )

        return out.map_batches(finish, batch_format="pyarrow", **_env)

    def cube_counts_events(sf_dir: str):
        """GROUP BY CUBE counts over (event_type, user_id) (r5): all
        2^k grouping subsets; only the finest level touches raw rows,
        every other subset folds from it."""
        from ulp_ray.stages.aggregate import cube_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        )
        return cube_counts(ds, ["event_type", "user_id"])

    def quantile_filter_events(sf_dir: str):
        """Per-group percentile filter (r5): events strictly above their
        event_type's exact median value — the quality-filtering
        composition (grouped_quantile -> broadcast threshold -> filter;
        no shuffle of the filtered side)."""
        from ulp_ray.stages.aggregate import quantile_filter

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "value"],
        )
        return quantile_filter(ds, "event_type", "value", 0.5, keep="above")

    def left_join_orders_customer(sf_dir: str):
        """Left outer join through the bucketed co-group machinery:
        orders keep their row when no rich customer matches (typed-null
        padding on the right columns)."""
        from ulp_ray.stages.join import bucketed_hash_join

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        rich = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_acctbal"],
        ).filter(expr="c_acctbal > 9000")

        def adapt(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"o_custkey": batch["c_custkey"], "c_name": batch["c_name"]}
            )

        rich = rich.map_batches(adapt, batch_format="pyarrow", **_env)
        return bucketed_hash_join(orders, rich, on="o_custkey", how="left")

    def doc_term_stats_docs(sf_dir: str):
        """Per-(doc, token) TF joined with corpus DF — the integer core
        of TF-IDF; token-keyed bucketed shuffle join of two derived
        tables (fixed-width rows, never raw text)."""
        from ulp_ray.stages.vocab import doc_term_stats

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        return doc_term_stats(ds, "text", "doc_id")

    def repetition_docs(sf_dir: str):
        """Gopher/C4-style repetition stats (exact integer columns;
        ratios derive downstream) — one vectorized pass, no Python per
        document."""
        from ulp_ray.functions.text import repetition_features

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

        def rep(batch: pa.Table) -> pa.Table:
            t = repetition_features(batch["text"])
            return t.add_column(0, "doc_id", batch["doc_id"])

        return ds.map_batches(rep, batch_format="pyarrow", **_env)

    def chunk_documents_docs(sf_dir: str):
        """Overlapping token-window chunking (max 32 tokens, overlap 8)
        — vectorized explode, value-checked against a SQL list-slicing
        twin."""
        from ulp_ray.stages.chunk import chunk_documents

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        return chunk_documents(ds, max_tokens=32, overlap=8)

    def pack_sequences_docs(sf_dir: str):
        """Greedy next-fit packing into ≤512-token training sequences.
        [non-SQL: per-block sequential packing]"""
        from ulp_ray.stages.chunk import pack_sequences

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        return pack_sequences(ds, max_tokens=512).select_columns(
            ["seq_key", "n_docs", "n_tokens"]
        )

    def pack_invariants_docs(sf_dir: str):
        """Value-checked invariants of pack_sequences — the bin LAYOUT is
        per-block/order-dependent (no SQL twin), but these are not:
        token conservation (Σ seq n_tokens = Σ per-doc whitespace token
        counts), doc conservation (Σ n_docs = COUNT(*) — packing drops
        nothing), and the per-sequence cap (n_tokens ≤ 512 for every
        multi-doc sequence; an oversized single document is its own
        sequence by contract). Distributed per-block partials → Sum."""
        from ulp_ray.stages.chunk import pack_sequences

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        packed = pack_sequences(ds, max_tokens=512)

        def partial(b: pa.Table) -> pa.Table:
            viol = pc.sum(
                pc.cast(
                    pc.and_(
                        pc.greater(b["n_tokens"], 512),
                        pc.greater(b["n_docs"], 1),
                    ),
                    pa.int64(),
                )
            ).as_py()
            return pa.table(
                {
                    "total_tokens": pa.array(
                        [pc.sum(b["n_tokens"]).as_py() or 0], pa.int64()
                    ),
                    "total_docs": pa.array(
                        [pc.sum(b["n_docs"]).as_py() or 0], pa.int64()
                    ),
                    "cap_violations": pa.array([viol or 0], pa.int64()),
                }
            )

        agg = packed.map_batches(partial, batch_format="pyarrow").sum(
            ["total_tokens", "total_docs", "cap_violations"]
        )
        return pa.table(
            {
                "total_tokens": pa.array([agg["sum(total_tokens)"]], pa.int64()),
                "total_docs": pa.array([agg["sum(total_docs)"]], pa.int64()),
                "cap_violations": pa.array(
                    [agg["sum(cap_violations)"]], pa.int64()
                ),
            }
        )

    def moments_value_per_type(sf_dir: str):
        """Mergeable mean/variance moments per event_type as exact
        fixed-point integers (float sums depend on reduction order;
        int sums don't — the 100 TB-safe shape for distributed stats)."""
        from ulp_ray.stages.aggregate import grouped_moments

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "value"],
        )
        return grouped_moments(ds, ["event_type"], "value", scale=100)

    def top_tokens_per_lang(sf_dir: str):
        """Composition query: per-language vocabulary fold → grouped
        top-5 most frequent tokens (token-ascending tiebreak pins a
        deterministic, oracle-comparable result)."""
        from ulp_ray.stages.aggregate import grouped_topk
        from ulp_ray.stages.vocab import grouped_vocabulary

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]
        )
        vocab = grouped_vocabulary(ds, "text", "lang")
        return grouped_topk(vocab, ["lang"], "n", k=5, tie_cols=["token"])

    def collect_types_per_user(sf_dir: str):
        """Sorted distinct event types per user, joined — the SQL
        list(DISTINCT)/string_agg shape; the joined string is what the
        oracle compares (deterministic order)."""
        from ulp_ray.stages.aggregate import grouped_collect

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_type"],
        )
        out = grouped_collect(ds, ["user_id"], "event_type", distinct=True)
        return out.select_columns(["user_id", "values_joined"])

    def explode_embeddings(sf_dir: str):
        """Generic UNNEST: one row per embedding element with its
        ordinality — vectorized flatten + parent/position arithmetic."""
        from ulp_ray.stages.chunk import explode_list

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        )
        return explode_list(ds, "embedding", ["vec_id"])

    def bigram_counts_docs(sf_dir: str):
        """Word-bigram frequency table (windows never cross documents)
        — shifted-array element-wise join, partial + Sum fold."""
        from ulp_ray.stages.vocab import ngram_counts

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )
        return ngram_counts(ds, "text", n=2, min_count=5)

    def lag_value_events(sf_dir: str):
        """Generic per-user LAG(value, 2) ordered by (ts, event_id)."""
        from ulp_ray.stages.window import lag_column

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts", "value"],
        )
        out = lag_column(
            ds, "user_id", ["ts", "event_id"], "value", offset=2, out_col="prev2"
        )
        return out.select_columns(["user_id", "event_id", "value", "prev2"])

    def embedding_moments_per_label(sf_dir: str):
        """Per-(label, dimension) embedding sums as fixed-point integers
        — the centroid fold (mean = sum/(scale·n)) as a composition of
        the list explode and the mergeable moments operator; integer
        partials keep the distributed fold order-independent and the
        oracle exact."""
        from ulp_ray.stages.aggregate import grouped_moments
        from ulp_ray.stages.chunk import explode_list

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["label", "embedding"],
        )
        flat = explode_list(ds, "embedding", ["label"])
        return grouped_moments(flat, ["label", "pos"], "embedding", scale=100000)

    def histogram_value_events(sf_dir: str):
        """Fixed-width value histogram per event type — bin in a map,
        count via the partial-combine rollup (integers end to end)."""
        from ulp_ray.stages.aggregate import count_rollup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "value"],
        )

        def binned(batch: pa.Table) -> pa.Table:
            b = pc.cast(pc.floor(pc.divide(batch["value"], 50.0)), pa.int64())
            return pa.table({"event_type": batch["event_type"], "bin": b})

        return count_rollup(
            ds.map_batches(binned, batch_format="pyarrow", **_env),
            ["event_type", "bin"],
        )

    def stratified_sample_docs(sf_dir: str):
        """Deterministic per-source downsampling (group-atomic on doc_id).
        [non-SQL: hash-threshold membership]"""
        from ulp_ray.stages.split import stratified_sample

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "source"],
        )
        return stratified_sample(
            ds, "source", {"src0": 1.0, "src1": 0.5, "src2": 0.25}, key="doc_id"
        )

    # ORDER IS THE CONTRACT: the driver's correctness window covers the
    # FIRST 50 entries, so they are (1) the flagship, (2) the 21 queries
    # that had never appeared in any round's driver artifact through r4
    # (VERDICT r4 §Next #1), (3) all eleven r5 additions, (4) the seven
    # queries that no driver artifact has yet carried (cube and grouping
    # sets, frames, dense windows, cross-corpus Jaccard, token entropy,
    # grouped correlation — they cover the grouping-sets and co-group
    # code), then (5) keystones, one per major operator family. The
    # seven keystones displaced to the tail (51-57) each carry green rows
    # in earlier CORRECTNESS artifacts and run only code that the window
    # covers elsewhere (parse, sum/count rollups, broadcast join, Ray's
    # grouped aggregate). Entries past 50 stay value-checked by
    # scripts/check_oracle.py.
    return {
        # -- 1: flagship ---------------------------------------------------
        "flagship_events": flagship_events,
        # -- 2-22: first-ever driver rows (r4 VERDICT list, same order) ---
        "rollup_counts_events": rollup_counts_events,
        "mode_event_type_per_user": mode_event_type_per_user,
        "custkeys_intersect": custkeys_intersect,
        "custkeys_except": custkeys_except,
        "first_value_per_user": first_value_per_user,
        "ntile_events_per_type": ntile_events_per_type,
        "percent_rank_value_per_type": percent_rank_value_per_type,
        "semi_join_orders_rich_bloom": semi_join_orders_rich_bloom,
        "repetition_docs": repetition_docs,
        "moments_value_per_type": moments_value_per_type,
        "top_tokens_per_lang": top_tokens_per_lang,
        "collect_types_per_user": collect_types_per_user,
        "explode_embeddings": explode_embeddings,
        "bigram_counts_docs": bigram_counts_docs,
        "lag_value_events": lag_value_events,
        "embedding_moments_per_label": embedding_moments_per_label,
        "histogram_value_events": histogram_value_events,
        "chunk_documents_docs": chunk_documents_docs,
        "pack_sequences_docs": pack_sequences_docs,
        "pack_invariants_docs": pack_invariants_docs,
        "stratified_sample_docs": stratified_sample_docs,
        # -- 23-33: new in r5 ---------------------------------------------
        "cume_dist_value_per_type": cume_dist_value_per_type,
        "heavy_hitters_exact_docs": heavy_hitters_exact_docs,
        "minhash_planted_pairs_docs": minhash_planted_pairs_docs,
        "semi_join_orders_rich_bloom_forced": semi_join_orders_rich_bloom_forced,
        "full_outer_join_orders_customer": full_outer_join_orders_customer,
        "rolling_time_sum_events": rolling_time_sum_events,
        "grouped_sample_events": grouped_sample_events,
        "bigram_logprob_docs": bigram_logprob_docs,
        "duplicated_windows_docs": duplicated_windows_docs,
        "token_budget_docs": token_budget_docs,
        "quantile_filter_events": quantile_filter_events,
        # -- 34-40: never yet in a driver artifact ---------------------
        "cube_counts_events": cube_counts_events,
        "grouping_sets_events": grouping_sets_events,
        "frame_sum_events": frame_sum_events,
        "dense_windowed_counts_events": dense_windowed_counts_events,
        "cross_jaccard_docs": cross_jaccard_docs,
        "token_entropy_docs": token_entropy_docs,
        "corr_value_tod_per_type": corr_value_tod_per_type,
        # -- 41-50: keystones (each major operator family keeps a fresh
        #           driver row) -------------------------------------------
        "asof_purchase_signup": asof_purchase_signup,
        "interval_join_events": interval_join_events,
        "topk_events_per_type": topk_events_per_type,
        "quantile_value_per_type": quantile_value_per_type,
        "exact_dedup_docs": exact_dedup_docs,
        "ngram_jaccard_pairs_docs": ngram_jaccard_pairs_docs,
        "neardup_components_docs": neardup_components_docs,
        "bm25_topk_docs": bm25_topk_docs,
        "distinct_users_per_type": distinct_users_per_type,
        "session_windows_events": session_windows_events,
        # -- 51+: outside the driver window; locally gated (51-57: the
        #         keystones displaced from 34-50, green in earlier
        #         CORRECTNESS artifacts) ------------------------------------
        "parse_route_events": parse_route_events,
        "agg_rollup_events": agg_rollup_events,
        "q1_lineitem": q1_lineitem,
        "join_orders_customer": join_orders_customer,
        "pivot_event_counts": pivot_event_counts,
        "distinct_users_events": distinct_users_events,
        "windowed_counts_events": windowed_counts_events,
        "ingest_ndjson_events": ingest_ndjson_events,
        "enrich_events": enrich_events,
        "route_counts_events": route_counts_events,
        "normalize_events": normalize_events,
        "read_evolved_events": read_evolved_events,
        "join_orders_customer_shuffle": join_orders_customer_shuffle,
        "join_orders_customer_bucketed": join_orders_customer_bucketed,
        "conversation_stats_events": conversation_stats_events,
        "turn_gaps_events": turn_gaps_events,
        "assemble_conversations_events": assemble_conversations_events,
        "parse_route_events_grok": parse_route_events_grok,
        "filter_events": filter_events,
        "top_events": top_events,
        "sliding_counts_events": sliding_counts_events,
        "running_total_events": running_total_events,
        "token_count_docs": token_count_docs,
        "curate_documents_pipeline": curate_documents_pipeline,
        "curate_documents_sql": curate_documents_sql,
        "dedup_full_docs": dedup_full_docs,
        "heavy_hitters_tokens_docs": heavy_hitters_tokens_docs,
        "heavy_hitters_tokens_per_lang": heavy_hitters_tokens_per_lang,
        "approx_distinct_users": approx_distinct_users,
        "approx_distinct_users_per_type": approx_distinct_users_per_type,
        "minhash_dedup_docs": minhash_dedup_docs,
        "simhash_docs": simhash_docs,
        "embedding_neardup_pairs": embedding_neardup_pairs,
        "ann_topk_embeddings": ann_topk_embeddings,
        "ann_topk_ivf_embeddings": ann_topk_ivf_embeddings,
        "lang_quality_docs": lang_quality_docs,
        "quality_docs_sql": quality_docs_sql,
        "rolling_sum_events": rolling_sum_events,
        "rank_events_per_user": rank_events_per_user,
        "semi_join_orders_rich": semi_join_orders_rich,
        "anti_join_orders_rich": anti_join_orders_rich,
        "vocabulary_docs": vocabulary_docs,
        "doc_frequency_docs": doc_frequency_docs,
        "redact_pii_docs": redact_pii_docs,
        "contamination_docs": contamination_docs,
        "left_join_orders_customer": left_join_orders_customer,
        "doc_term_stats_docs": doc_term_stats_docs,
    }


def oracle_sql() -> dict[str, str]:
    _parse_sql = (
        "SELECT event_id, event_type, "
        "CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT) AS k, "
        "'kv' AS rule, 'kv' AS route FROM events"
    )
    return {
        # entry()'s flagship over the synthetic transcript table holds its
        # golden-count oracle in pytest; the SAME run_pipeline machinery is
        # oracle-checked here via flagship_events.
        "flagship_events": (
            "SELECT 'kv' AS rule, '' AS tool, event_type AS role, "
            "COUNT(*) AS n FROM events GROUP BY event_type"
        ),
        "conversation_stats_events": (
            "SELECT CAST(user_id AS VARCHAR) AS conv_id, COUNT(*) AS n_turns, "
            "CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) "
            "AS BIGINT) AS n_tool_turns, MIN(ts) AS t_start, MAX(ts) AS t_end, "
            "CAST(date_diff('microsecond', MIN(ts), MAX(ts)) AS DOUBLE) "
            "/ 1000000 AS duration_s FROM events GROUP BY user_id"
        ),
        "turn_gaps_events": (
            "SELECT CAST(user_id AS VARCHAR) AS conv_id, event_id AS turn_idx, "
            "CAST(date_diff('microsecond', LAG(ts) OVER "
            "(PARTITION BY user_id ORDER BY event_id), ts) AS DOUBLE) "
            "/ 1000000 AS gap_s FROM events"
        ),
        "assemble_conversations_events": (
            "SELECT CAST(user_id AS VARCHAR) AS conv_id, COUNT(*) AS n_turns, "
            "string_agg(event_type, '|' ORDER BY event_id) AS roles_joined "
            "FROM events GROUP BY user_id"
        ),
        "parse_route_events": _parse_sql,
        "parse_route_events_grok": _parse_sql,
        "ingest_ndjson_events": (
            "SELECT event_id, event_type, "
            "CAST(regexp_extract(props, '\"k\": (\\d+)', 1) AS BIGINT) AS k_hex, "
            "CAST(ROUND(value * 100) AS BIGINT) AS value_cents, "
            "'evt_' || event_type AS route FROM events"
        ),
        "read_evolved_events": (
            "SELECT event_id, "
            "CASE WHEN event_id % 2 = 0 "
            "THEN CAST(CAST(ROUND(value) AS BIGINT) AS DOUBLE) "
            "ELSE value END AS v, "
            "CASE WHEN event_id % 2 = 0 THEN NULL ELSE event_type END AS et "
            "FROM events"
        ),
        "agg_rollup_events": (
            "SELECT event_type, COUNT(*) AS n, "
            "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents "
            "FROM events GROUP BY event_type"
        ),
        "enrich_events": (
            "SELECT event_id, event_type, CASE event_type "
            "WHEN 'purchase' THEN 'conversion' WHEN 'signup' THEN 'conversion' "
            "WHEN 'click' THEN 'engagement' WHEN 'view' THEN 'engagement' "
            "WHEN 'error' THEN 'fault' ELSE 'unknown' END AS event_class "
            "FROM events"
        ),
        "route_counts_events": (
            "SELECT 'evt_' || event_type AS route, COUNT(*) AS n "
            "FROM events GROUP BY event_type"
        ),
        "filter_events": (
            "SELECT event_id, event_type, value FROM events WHERE value > 100"
        ),
        "top_events": (
            "SELECT event_id, value FROM events "
            "ORDER BY value DESC, event_id DESC LIMIT 100"
        ),
        "windowed_counts_events": (
            "SELECT event_type, date_trunc('hour', ts) AS window_start, "
            "COUNT(*) AS n FROM events GROUP BY 1, 2"
        ),
        "sliding_counts_events": (
            "SELECT event_type, make_timestamp(CAST((floor(epoch(ts)/900)*900 "
            "- k.k*900) * 1000000 AS BIGINT)) AS window_start, COUNT(*) AS n "
            "FROM events CROSS JOIN (SELECT unnest(range(4)) AS k) k "
            "GROUP BY 1, 2"
        ),
        "running_total_events": (
            "SELECT event_id, user_id, "
            "CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER "
            "(PARTITION BY user_id ORDER BY event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents "
            "FROM events"
        ),
        "session_windows_events": (
            "SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS session_end, "
            "COUNT(*) AS n_events FROM ("
            "SELECT user_id, ts, SUM(new_s) OVER "
            "(PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid "
            "FROM (SELECT user_id, ts, CASE WHEN lag_ts IS NULL OR "
            "ts - lag_ts > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s "
            "FROM (SELECT user_id, ts, LAG(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts) AS lag_ts FROM events) t1) t2) t3 "
            "GROUP BY user_id, sid"
        ),
        "exact_dedup_docs": (
            "SELECT text, MIN(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "ngram_jaccard_pairs_docs": (
            # exact distinct word-3-gram sets per doc, pairwise
            # intersection via gram self-join, Jaccard >= 0.8 as the
            # integer contract inter_n >= t * union_n
            "WITH l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "g AS (SELECT DISTINCT doc_id, "
            "ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS gram "
            "FROM l, UNNEST(generate_series(1, len(ts)-2)) AS u(i)), "
            "s AS (SELECT doc_id, COUNT(*) AS sz FROM g GROUP BY doc_id), "
            "inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "COUNT(*) AS inter_n FROM g a JOIN g b "
            "ON a.gram = b.gram AND a.doc_id < b.doc_id GROUP BY 1, 2) "
            "SELECT i.id_a, i.id_b, CAST(i.inter_n AS BIGINT) AS inter_n, "
            "CAST(sa.sz + sb.sz - i.inter_n AS BIGINT) AS union_n "
            "FROM inter i JOIN s sa ON sa.doc_id = i.id_a "
            "JOIN s sb ON sb.doc_id = i.id_b "
            "WHERE i.inter_n >= 0.8 * (sa.sz + sb.sz - i.inter_n)"
        ),
        "neardup_components_docs": (
            # same exact pair set as ngram_jaccard_pairs_docs, then the
            # transitive closure as a recursive min-label walk (the
            # SQL twin of the distributed hash-min propagation)
            "WITH RECURSIVE l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "g AS (SELECT DISTINCT doc_id, "
            "ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS gram "
            "FROM l, UNNEST(generate_series(1, len(ts)-2)) AS u(i)), "
            "s AS (SELECT doc_id, COUNT(*) AS sz FROM g GROUP BY doc_id), "
            "inter AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
            "COUNT(*) AS inter_n FROM g a JOIN g b "
            "ON a.gram = b.gram AND a.doc_id < b.doc_id GROUP BY 1, 2), "
            "pairs AS (SELECT i.id_a, i.id_b FROM inter i "
            "JOIN s sa ON sa.doc_id = i.id_a "
            "JOIN s sb ON sb.doc_id = i.id_b "
            "WHERE i.inter_n >= 0.8 * (sa.sz + sb.sz - i.inter_n)), "
            "edges AS (SELECT id_a AS u, id_b AS v FROM pairs "
            "UNION ALL SELECT id_b, id_a FROM pairs), "
            "walk(node, label) AS (SELECT u, u FROM edges UNION "
            "SELECT e.u, w.label FROM edges e JOIN walk w ON w.node = e.v) "
            "SELECT node, MIN(label) AS component FROM walk GROUP BY node"
        ),
        "token_count_docs": (
            "SELECT doc_id, CAST(length(text) - length(replace(text, ' ', '')) "
            "+ 1 AS BIGINT) AS n_tokens FROM documents"
        ),
        "q1_lineitem": (
            "SELECT l_returnflag, l_linestatus, "
            "CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty, "
            "COUNT(*) AS n "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus"
        ),
        "normalize_events": (
            "SELECT event_id, CAST(ROUND(value) AS BIGINT) AS value_int "
            "FROM events"
        ),
        "join_orders_customer": "SELECT o.o_orderkey, o.o_custkey, c.c_name, c.c_mktsegment FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        "join_orders_customer_shuffle": "SELECT o.o_orderkey, o.o_custkey, c.c_name, c.c_mktsegment FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        "join_orders_customer_bucketed": "SELECT o.o_orderkey, o.o_custkey, c.c_name, c.c_mktsegment FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        "asof_purchase_signup": (
            "SELECT e.event_id, e.user_id, e.ts, s.signup_ts "
            "FROM (SELECT event_id, user_id, ts FROM events "
            "WHERE event_type = 'purchase') e "
            "ASOF LEFT JOIN (SELECT user_id, ts, ts AS signup_ts FROM events "
            "WHERE event_type = 'signup') s "
            "ON e.user_id = s.user_id AND e.ts >= s.ts"
        ),
        "interval_join_events": (
            "SELECT p.event_id, p.user_id, p.ts, s.iv_start, s.iv_end "
            "FROM (SELECT event_id, user_id, ts FROM events "
            "WHERE event_type = 'purchase') p "
            "JOIN (SELECT user_id, ts AS iv_start, "
            "ts + INTERVAL 1 HOUR AS iv_end FROM events "
            "WHERE event_type = 'signup') s "
            "ON p.user_id = s.user_id "
            "AND p.ts >= s.iv_start AND p.ts <= s.iv_end"
        ),
        "topk_events_per_type": (
            "SELECT event_type, event_id, value FROM ("
            "SELECT event_type, event_id, value, row_number() OVER "
            "(PARTITION BY event_type ORDER BY value DESC, event_id) AS rn "
            "FROM events) t WHERE rn <= 3"
        ),
        "quantile_value_per_type": (
            "SELECT event_type, quantile_cont(value, 0.5) AS q0_5 "
            "FROM events GROUP BY event_type"
        ),
        "pivot_event_counts": (
            "SELECT user_id, "
            + ", ".join(
                f"CAST(SUM(CASE WHEN event_type = '{v}' THEN 1 ELSE 0 END) "
                f"AS BIGINT) AS {v}_n"
                for v in ["click", "view", "purchase", "signup", "error"]
            )
            + " FROM events GROUP BY user_id"
        ),
        "distinct_users_events": "SELECT DISTINCT user_id FROM events",
        "distinct_users_per_type": (
            "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) "
            "AS distinct_users FROM events GROUP BY event_type"
        ),
        "dedup_full_docs": (
            "SELECT doc_id, text, lang, source, n_chars FROM ("
            "SELECT *, row_number() OVER (PARTITION BY text ORDER BY doc_id)"
            " AS rn FROM documents) t WHERE rn = 1"
        ),
        "embedding_neardup_pairs": (
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.9"
        ),
        "ann_topk_embeddings": (
            "SELECT query_id, CAST(rn - 1 AS BIGINT) AS rank, vec_id FROM ("
            "SELECT q.vec_id AS query_id, c.vec_id AS vec_id, "
            "row_number() OVER (PARTITION BY q.vec_id ORDER BY "
            "list_cosine_similarity(q.embedding, c.embedding) DESC, c.vec_id ASC)"
            " AS rn FROM embeddings q, embeddings c WHERE q.vec_id < 4) t "
            "WHERE rn <= 10"
        ),
        "ann_topk_ivf_embeddings": (
            # full-probe IVF (n_probe = n_lists) scans every list -> exact,
            # so the brute-force ranking SQL is its oracle too

            "SELECT query_id, CAST(rn - 1 AS BIGINT) AS rank, vec_id FROM ("
            "SELECT q.vec_id AS query_id, c.vec_id AS vec_id, "
            "row_number() OVER (PARTITION BY q.vec_id ORDER BY "
            "list_cosine_similarity(q.embedding, c.embedding) DESC, c.vec_id ASC)"
            " AS rn FROM embeddings q, embeddings c WHERE q.vec_id < 4) t "
            "WHERE rn <= 10"
        ),
        # minhash_dedup_docs / simhash_docs / lang_quality_docs /
        # approx_distinct_users / approx_distinct_users_per_type /
        # curate_documents_pipeline: sketch- or
        # heuristic-based, not SQL-expressible -> rows-only checks
        # (each approximate sketch has an exact oracle-checked twin:
        # distinct_users_events / distinct_users_per_type).
        # quality_score replicated exactly: same float64 association as
        # functions/text.py quality_features — length_score * ((1-punct) *
        # (0.5+stopword)) — ROUND only at the end; filter on the rounded
        # score like the Ray side; exact dedup = min-doc_id window
        "curate_documents_sql": (
            "WITH q AS (SELECT doc_id, lang, source, n_chars, text, "
            "CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT)"
            " AS n_tokens, "
            "ROUND(LEAST(CAST(length(text) - length(replace(text, ' ', '')) "
            "+ 1 AS DOUBLE) / 64.0, 1.0) * "
            "((1.0 - LEAST(CAST(length(text) - length(regexp_replace(text, "
            "'[^\\w\\s]', '', 'g')) AS DOUBLE) / "
            "CAST(GREATEST(length(text), 1) AS DOUBLE), 1.0)) * "
            "(0.5 + LEAST(CAST(len(list_filter(string_split(text, ' '), "
            "t -> t IN ('the', 'of', 'and', 'to', 'in', 'is', 'that', 'it', "
            "'was', 'for', 'on', 'are', 'with', 'as', 'be', 'at'))) AS DOUBLE)"
            " / len(string_split(text, ' ')), 0.5))), 6) AS quality_score "
            "FROM documents) "
            "SELECT doc_id, lang, source, n_chars, n_tokens, quality_score "
            "FROM (SELECT *, row_number() OVER (PARTITION BY text "
            "ORDER BY doc_id) AS rn FROM q WHERE quality_score >= 0.2) t "
            "WHERE rn = 1"
        ),
        "quality_docs_sql": (
            "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars, "
            "CAST(length(text) - length(replace(text, ' ', '')) + 1 AS BIGINT)"
            " AS n_tokens, "
            "ROUND(CAST(len(list_filter(string_split(text, ' '), "
            "t -> t IN ('the', 'of', 'and', 'to', 'in', 'is', 'that', 'it', 'was', 'for', 'on', 'are', 'with', 'as', 'be', 'at'))) AS DOUBLE)"
            " / len(string_split(text, ' ')), 6) AS stopword_ratio "
            "FROM documents"
        ),
        "rolling_sum_events": (
            "SELECT user_id, event_id, CAST(SUM(event_id) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) "
            "AS rolling_sum FROM events"
        ),
        "rank_events_per_user": (
            "SELECT user_id, event_id, ROW_NUMBER() OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id) AS rn FROM events"
        ),
        "rollup_counts_events": (
            "SELECT event_type, user_id, COUNT(*) AS n FROM events "
            "GROUP BY ROLLUP(event_type, user_id)"
        ),
        "mode_event_type_per_user": (
            "WITH c AS (SELECT user_id, event_type, COUNT(*) AS n "
            "FROM events GROUP BY 1, 2), "
            "r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id "
            "ORDER BY n DESC, event_type) AS rn FROM c) "
            "SELECT user_id, event_type, n FROM r WHERE rn = 1"
        ),
        "custkeys_intersect": (
            "SELECT c_custkey FROM customer "
            "INTERSECT SELECT o_custkey FROM orders"
        ),
        "custkeys_except": (
            "SELECT o_custkey FROM orders EXCEPT "
            "SELECT c_custkey FROM customer WHERE c_acctbal > 5000"
        ),
        "first_value_per_user": (
            "SELECT user_id, event_id, FIRST_VALUE(event_type) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) "
            "AS first_type FROM events"
        ),
        "ntile_events_per_type": (
            "SELECT event_type, event_id, CAST(NTILE(4) OVER ("
            "PARTITION BY event_type ORDER BY value, event_id) AS BIGINT) "
            "AS tile FROM events"
        ),
        "percent_rank_value_per_type": (
            "SELECT event_type, event_id, PERCENT_RANK() OVER ("
            "PARTITION BY event_type ORDER BY value) AS pr FROM events"
        ),
        "cume_dist_value_per_type": (
            "SELECT event_type, event_id, CUME_DIST() OVER ("
            "PARTITION BY event_type ORDER BY value) AS cd FROM events"
        ),
        "heavy_hitters_exact_docs": (
            # Misra–Gries with capacity ≥ distinct count is exact, so the
            # sketch result equals the plain top-20 count table
            "SELECT token AS value, CAST(COUNT(*) AS BIGINT) AS est FROM ("
            "SELECT unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents) WHERE token <> '' "
            "GROUP BY token ORDER BY est DESC, value LIMIT 20"
        ),
        "minhash_planted_pairs_docs": (
            # identical docs share every LSH band bucket (recall = 1) and
            # verify at jaccard = 1.0, so minhash's output restricted to
            # identical texts equals the exact text self-join
            "WITH aug AS (SELECT doc_id, text FROM documents UNION ALL "
            "SELECT doc_id + 1000000 AS doc_id, text FROM documents "
            "WHERE doc_id % 20 = 3) "
            "SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM aug a "
            "JOIN aug b ON a.text = b.text AND a.doc_id < b.doc_id"
        ),
        "semi_join_orders_rich_bloom_forced": (
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders o "
            "WHERE EXISTS (SELECT 1 FROM customer c "
            "WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > 5000)"
        ),
        "semi_join_orders_rich": (
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders o "
            "WHERE EXISTS (SELECT 1 FROM customer c "
            "WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > 5000)"
        ),
        "semi_join_orders_rich_bloom": (
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders o "
            "WHERE EXISTS (SELECT 1 FROM customer c "
            "WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > 5000)"
        ),
        "anti_join_orders_rich": (
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders o "
            "WHERE NOT EXISTS (SELECT 1 FROM customer c "
            "WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > 5000)"
        ),
        "bm25_topk_docs": (
            # identical Okapi BM25 (k1=1.2, b=0.75, Lucene idf) over the
            # lockstep tokenizer; avgdl counts ALL docs incl. zero-token
            "WITH tok AS (SELECT doc_id, "
            "unnest(list_filter(regexp_split_to_array(text, '\\s+'), "
            "x -> x <> '')) AS token FROM documents), "
            "dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok GROUP BY doc_id), "
            "corpus AS (SELECT COUNT(*) AS n_docs FROM documents), "
            "toks AS (SELECT COUNT(*) AS n_tokens FROM tok), "
            "stats AS (SELECT n_docs, CAST(n_tokens AS DOUBLE)/n_docs AS "
            "avgdl FROM corpus, toks), "
            "df AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM tok "
            "WHERE token IN ('hash','join','merge') GROUP BY token), "
            "tf AS (SELECT doc_id, token, COUNT(*) AS tf FROM tok "
            "WHERE token IN ('hash','join','merge') GROUP BY 1, 2), "
            "scored AS (SELECT tf.doc_id, "
            "SUM(ln((stats.n_docs - df.df + 0.5)/(df.df + 0.5) + 1.0) "
            "* tf.tf * (1.2 + 1.0) "
            "/ (tf.tf + 1.2*(1.0 - 0.75 + 0.75*dl.dl/stats.avgdl))) AS s "
            "FROM tf JOIN df USING(token) JOIN dl USING(doc_id) "
            "CROSS JOIN stats GROUP BY tf.doc_id) "
            "SELECT doc_id, CAST(ROW_NUMBER() OVER "
            "(ORDER BY s DESC, doc_id) AS BIGINT) AS rank, "
            "ROUND(s, 4) AS score "
            "FROM scored ORDER BY s DESC, doc_id LIMIT 10"
        ),
        "vocabulary_docs": (
            "SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents) WHERE token <> '' "
            "GROUP BY token HAVING COUNT(*) >= 5"
        ),
        "doc_frequency_docs": (
            "SELECT token, CAST(COUNT(*) AS BIGINT) AS df FROM ("
            "SELECT DISTINCT doc_id, "
            "unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents) WHERE token <> '' GROUP BY token"
        ),
        "left_join_orders_customer": (
            "SELECT o.o_orderkey, o.o_custkey, o.o_totalprice, c.c_name "
            "FROM orders o LEFT JOIN (SELECT c_custkey, c_name FROM customer "
            "WHERE c_acctbal > 9000) c ON o.o_custkey = c.c_custkey"
        ),
        "doc_term_stats_docs": (
            "WITH toks AS (SELECT doc_id, "
            "unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents), f AS (SELECT doc_id, token, COUNT(*) AS tf "
            "FROM toks WHERE token <> '' GROUP BY doc_id, token), "
            "d AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM toks "
            "WHERE token <> '' GROUP BY token) "
            "SELECT f.doc_id, f.token, CAST(f.tf AS BIGINT) AS tf, "
            "CAST(d.df AS BIGINT) AS df FROM f JOIN d USING (token)"
        ),
        "repetition_docs": (
            "WITH l AS (SELECT doc_id, text, "
            "list_filter(string_split(text, chr(10)), x -> x <> '') AS ls, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "m AS (SELECT doc_id, token, COUNT(*) AS c FROM ("
            "SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) "
            "AS token FROM documents) WHERE token <> '' "
            "GROUP BY doc_id, token) "
            "SELECT l.doc_id, CAST(len(ls) AS BIGINT) AS n_lines, "
            "CAST(len(list_distinct(ls)) AS BIGINT) AS n_distinct_lines, "
            "CAST(len(ts) AS BIGINT) AS n_tokens, "
            "CAST(len(list_distinct(ts)) AS BIGINT) AS n_distinct_tokens, "
            "CASE WHEN l.text IS NULL THEN NULL ELSE "
            "CAST(COALESCE(mm.mx, 0) AS BIGINT) END AS max_token_count "
            "FROM l LEFT JOIN (SELECT doc_id, MAX(c) AS mx FROM m "
            "GROUP BY doc_id) mm USING (doc_id)"
        ),
        "pack_invariants_docs": (
            # token/doc conservation are computable from the INPUT alone
            # (packing drops nothing); the cap invariant is pinned as a
            # literal 0 — the Ray side must COUNT violations and get 0
            "WITH l AS (SELECT "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents) "
            "SELECT CAST(SUM(len(ts)) AS BIGINT) AS total_tokens, "
            "CAST(COUNT(*) AS BIGINT) AS total_docs, "
            "CAST(0 AS BIGINT) AS cap_violations FROM l"
        ),
        "chunk_documents_docs": (
            "WITH l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "c AS (SELECT doc_id, ts, len(ts) AS n, "
            "CASE WHEN len(ts) = 0 THEN NULL WHEN len(ts) <= 32 THEN 1 "
            "ELSE CAST(ceil(CAST(len(ts) - 32 AS DOUBLE) / 24) + 1 AS BIGINT) "
            "END AS nc FROM l) "
            "SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx, "
            "CAST(least(i*24+32, n) - i*24 AS BIGINT) AS n_tokens, "
            "array_to_string(ts[i*24+1 : least(i*24+32, n)], ' ') AS text "
            "FROM c, UNNEST(generate_series(0, nc-1)) AS g(i)"
        ),
        "moments_value_per_type": (
            "SELECT event_type, CAST(COUNT(value) AS BIGINT) AS n, "
            "CAST(SUM(CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) "
            "AS sum_scaled, "
            "CAST(SUM(CAST(ROUND(value*100) AS BIGINT) * "
            "CAST(ROUND(value*100) AS BIGINT)) AS BIGINT) AS sumsq_scaled "
            "FROM events GROUP BY event_type"
        ),
        "top_tokens_per_lang": (
            "WITH t AS (SELECT lang, "
            "unnest(regexp_split_to_array(text, '\\s+')) AS token "
            "FROM documents), c AS (SELECT lang, token, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM t WHERE token <> '' "
            "GROUP BY lang, token), r AS (SELECT *, ROW_NUMBER() OVER ("
            "PARTITION BY lang ORDER BY n DESC, token ASC) AS rn FROM c) "
            "SELECT lang, token, n FROM r WHERE rn <= 5"
        ),
        "collect_types_per_user": (
            "SELECT user_id, array_to_string(list_sort("
            "list(DISTINCT event_type)), '|') AS values_joined "
            "FROM events GROUP BY user_id"
        ),
        "explode_embeddings": (
            "SELECT vec_id, "
            "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS pos, "
            "unnest(embedding) AS embedding FROM embeddings"
        ),
        "bigram_counts_docs": (
            "WITH l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents) "
            "SELECT ngram, CAST(COUNT(*) AS BIGINT) AS n FROM ("
            "SELECT ts[i] || ' ' || ts[i+1] AS ngram FROM l, "
            "UNNEST(generate_series(1, len(ts)-1)) AS g(i)) "
            "GROUP BY ngram HAVING COUNT(*) >= 5"
        ),
        "lag_value_events": (
            "SELECT user_id, event_id, value, LAG(value, 2) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id) AS prev2 FROM events"
        ),
        "embedding_moments_per_label": (
            "WITH f AS (SELECT label, "
            "CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS pos, "
            "CAST(ROUND(CAST(unnest(embedding) AS DOUBLE)*100000) AS BIGINT) AS c "
            "FROM embeddings) "
            "SELECT label, pos, CAST(COUNT(c) AS BIGINT) AS n, "
            "CAST(SUM(c) AS BIGINT) AS sum_scaled, "
            "CAST(SUM(c*c) AS BIGINT) AS sumsq_scaled "
            "FROM f GROUP BY label, pos"
        ),
        "histogram_value_events": (
            "SELECT event_type, CAST(FLOOR(value/50) AS BIGINT) AS bin, "
            "CAST(COUNT(*) AS BIGINT) AS n FROM events "
            "GROUP BY event_type, bin"
        ),
        "full_outer_join_orders_customer": (
            "SELECT COALESCE(o.o_custkey, c.c_custkey) AS o_custkey, "
            "o.o_orderkey, o.o_totalprice, c.c_name FROM "
            "(SELECT * FROM orders WHERE o_custkey % 7 < 4) o "
            "FULL JOIN (SELECT c_custkey, c_name FROM customer "
            "WHERE c_custkey % 7 > 2) c ON o.o_custkey = c.c_custkey"
        ),
        "rolling_time_sum_events": (
            "SELECT user_id, event_id, CAST(SUM(CAST(ROUND(value*100) AS "
            "BIGINT)) OVER (PARTITION BY user_id ORDER BY ts RANGE BETWEEN "
            "INTERVAL 1 HOUR PRECEDING AND CURRENT ROW) AS BIGINT) AS rts "
            "FROM events"
        ),
        "grouped_sample_events": (
            "SELECT event_type, event_id FROM (SELECT event_type, event_id, "
            "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY "
            "(event_id * 2654435761) % 4294967296, event_id) AS rn "
            "FROM events) WHERE rn <= 50"
        ),
        "bigram_logprob_docs": (
            "WITH l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "bg AS (SELECT doc_id, ts[i] AS w1, "
            "ts[i] || ' ' || ts[i+1] AS ngram FROM l, "
            "UNNEST(generate_series(1, len(ts)-1)) AS g(i)), "
            "bc AS (SELECT ngram, COUNT(*) AS cb FROM bg GROUP BY ngram), "
            "uc AS (SELECT w1, COUNT(*) AS cu FROM (SELECT ts[i] AS w1 "
            "FROM l, UNNEST(generate_series(1, len(ts))) AS g(i)) "
            "GROUP BY w1), "
            "v AS (SELECT COUNT(*) AS vs FROM uc) "
            "SELECT bg.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams, "
            "ROUND(AVG(LN(CAST(bc.cb + 1 AS DOUBLE) / (uc.cu + v.vs))), 4) "
            "AS avg_logprob "
            "FROM bg JOIN bc USING (ngram) JOIN uc USING (w1) CROSS JOIN v "
            "GROUP BY bg.doc_id"
        ),
        "duplicated_windows_docs": (
            "WITH l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "w AS (SELECT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] "
            "|| ' ' || ts[i+3] || ' ' || ts[i+4] AS ngram FROM l, "
            "UNNEST(generate_series(1, len(ts)-4)) AS g(i)), "
            "c AS (SELECT ngram, COUNT(*) AS cn FROM w GROUP BY ngram) "
            "SELECT w.doc_id, CAST(COUNT(*) AS BIGINT) AS n_windows, "
            "CAST(SUM(CASE WHEN c.cn >= 2 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS n_dup_windows "
            "FROM w JOIN c USING (ngram) GROUP BY w.doc_id"
        ),
        "token_budget_docs": (
            "WITH tc AS (SELECT doc_id, lang, "
            "CAST(len(list_filter(regexp_split_to_array(text, '\\s+'), "
            "x -> x <> '')) AS BIGINT) AS ntok FROM documents) "
            "SELECT doc_id, lang, ntok FROM ("
            "SELECT *, SUM(ntok) OVER (PARTITION BY lang ORDER BY "
            "(doc_id * 2654435761) % 4294967296, doc_id) AS cum FROM tc) "
            "WHERE cum <= 2000"
        ),
        "cube_counts_events": (
            "SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS n "
            "FROM events GROUP BY CUBE(event_type, user_id)"
        ),
        "frame_sum_events": (
            "SELECT user_id, event_id, CAST(SUM(CAST(ROUND(value*100) AS "
            "BIGINT)) OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS BIGINT) AS fs "
            "FROM events"
        ),
        "grouping_sets_events": (
            "SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS n "
            "FROM events GROUP BY GROUPING SETS "
            "((event_type, user_id), (event_type), ())"
        ),
        "corr_value_tod_per_type": (
            "WITH b AS (SELECT event_type, CAST(ROUND(value*100) AS BIGINT) "
            "AS vc, (CAST(epoch(ts) AS BIGINT) % 86400) AS tod FROM events "
            "WHERE value IS NOT NULL AND ts IS NOT NULL), "
            "s AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n, "
            "CAST(SUM(vc) AS BIGINT) AS sx, CAST(SUM(tod) AS BIGINT) AS sy, "
            "CAST(SUM(vc*vc) AS BIGINT) AS sxx, "
            "CAST(SUM(tod*tod) AS BIGINT) AS syy, "
            "CAST(SUM(vc*tod) AS BIGINT) AS sxy FROM b GROUP BY event_type) "
            "SELECT event_type, n, CASE WHEN n >= 2 AND "
            "(CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx) * "
            "(CAST(n AS DOUBLE)*syy - CAST(sy AS DOUBLE)*sy) > 0 THEN "
            "ROUND((CAST(n AS DOUBLE)*sxy - CAST(sx AS DOUBLE)*sy) / "
            "SQRT((CAST(n AS DOUBLE)*sxx - CAST(sx AS DOUBLE)*sx) * "
            "(CAST(n AS DOUBLE)*syy - CAST(sy AS DOUBLE)*sy)), 4) "
            "ELSE NULL END AS corr FROM s"
        ),
        "token_entropy_docs": (
            "WITH f AS (SELECT doc_id, unnest(list_filter("
            "regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS token "
            "FROM documents), "
            "c AS (SELECT doc_id, token, COUNT(*) AS cnt FROM f "
            "GROUP BY doc_id, token), "
            "t AS (SELECT doc_id, SUM(cnt) AS tot FROM c GROUP BY doc_id) "
            "SELECT d.doc_id, ROUND(e.ent, 4) AS entropy FROM documents d "
            "LEFT JOIN (SELECT c.doc_id, "
            "-SUM((cnt/tot) * LN(cnt/tot)) AS ent "
            "FROM c JOIN t USING (doc_id) GROUP BY c.doc_id) e "
            "ON d.doc_id = e.doc_id"
        ),
        "dense_windowed_counts_events": (
            "WITH c AS (SELECT event_type, date_trunc('hour', ts) AS ws, "
            "COUNT(*) AS n FROM events GROUP BY 1, 2), "
            "r AS (SELECT event_type, MIN(ws) AS mn, MAX(ws) AS mx FROM c "
            "GROUP BY event_type), "
            "g AS (SELECT event_type, UNNEST(generate_series(mn, mx, "
            "INTERVAL 1 HOUR)) AS ws FROM r) "
            "SELECT g.event_type, g.ws AS window_start, "
            "CAST(COALESCE(c.n, 0) AS BIGINT) AS n FROM g "
            "LEFT JOIN c ON c.event_type = g.event_type AND c.ws = g.ws"
        ),
        "cross_jaccard_docs": (
            "WITH l AS (SELECT doc_id, "
            "list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') "
            "AS ts FROM documents), "
            "g AS (SELECT DISTINCT doc_id, "
            "ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS gram "
            "FROM l, UNNEST(generate_series(1, len(ts)-2)) AS u(i)), "
            "s AS (SELECT doc_id, COUNT(*) AS sz FROM g GROUP BY doc_id), "
            "inter AS (SELECT a.doc_id AS doc_id, b.doc_id AS probe_id, "
            "COUNT(*) AS inter_n FROM g a JOIN g b "
            "ON a.gram = b.gram AND b.doc_id % 50 = 0 GROUP BY 1, 2) "
            "SELECT i.doc_id, i.probe_id, CAST(i.inter_n AS BIGINT) AS "
            "inter_n, CAST(sa.sz + sb.sz - i.inter_n AS BIGINT) AS union_n "
            "FROM inter i JOIN s sa ON sa.doc_id = i.doc_id "
            "JOIN s sb ON sb.doc_id = i.probe_id "
            "WHERE i.inter_n >= 0.8 * (sa.sz + sb.sz - i.inter_n)"
        ),
        "quantile_filter_events": (
            "WITH th AS (SELECT event_type, quantile_cont(value, 0.5) AS thr "
            "FROM events GROUP BY event_type) "
            "SELECT e.event_id, e.event_type, e.value FROM events e "
            "JOIN th USING (event_type) WHERE e.value > th.thr"
        ),
        "redact_pii_docs": _redact_sql(),
        "contamination_docs": (
            "SELECT doc_id, (text LIKE '%batch batch batch%' "
            "OR text LIKE '%window window%') AS contaminated FROM documents"
        ),
        # stratified_sample_docs: no SQL twin (hash-threshold membership);
        # proportions/determinism/atomicity pinned in pytest
    }


def _redact_sql() -> str:
    """Build the redaction oracle from the SAME pattern list the Ray
    side applies (both sides are RE2) — the chain stays in lockstep by
    construction."""
    from ulp_ray.functions.text import PII_PATTERNS

    expr = "text"
    for pat, repl in PII_PATTERNS:
        sql_pat = pat.replace("'", "''")
        expr = f"regexp_replace({expr}, '{sql_pat}', '{repl}', 'g')"
    return f"SELECT doc_id, {expr} AS text FROM documents"
