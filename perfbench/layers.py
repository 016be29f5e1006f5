"""The traced layer suite (``--trace 1``).

Every traced run reports every per-layer metric, measured on that run's
own input set, so each workload's traced run explains its own numbers.
Spans are recorded from outside, around calls into each module's public
functions; nothing inside the program is instrumented.

- Ray-free kernels (``rules``, ``functions.routing``, ``stages.parse``,
  ``stages.enrich``, ``stages.aggregate``): CPU seconds per row in this
  process, median of ``KERNEL_REPS``, on the first ``KERNEL_ROWS`` base rows.
- Ray stage self-times: each stage (read, parse, enrich, count rollup,
  sink write), composed from the same public functions the flagship uses,
  run alone over its materialized input; UDF shares come from the Ray
  Data stats of that stage's execution.
- Flagship partition loop, state and audit: from one traced flagship op.
- Co-group ops: from one traced conversations op, plus the bucket counts
  of ``with_bucket``'s output.
- ``trace.overhead_frac``: median traced ÷ median untraced op wall − 1 of
  the run's own workload, alternating the two.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import traceback

from inputs import PARTITIONS
from tracing import Tracer
from workloads import AGG_KEYS, OPS, Ctx, counts_dict, diff, table_counts, run_op

KERNEL_ROWS = 250_000
KERNEL_REPS = 3
MAX_FAILED_OPS = 3


def _cpu_per_row(fn, rows: int) -> tuple[float, object]:
    """Median CPU µs per row of ``fn()`` over ``KERNEL_REPS`` calls."""
    times, out = [], None
    for _ in range(KERNEL_REPS):
        t0 = time.process_time()
        out = fn()
        times.append(time.process_time() - t0)
    return statistics.median(times) / rows * 1e6, out


def _check(tally: dict, what: str, got, want) -> None:
    """One traced-run correctness gate, tallied like an op."""
    problems: list[str] = []
    diff(problems, what, got, want)
    tally["attempted"] += 1
    tally["failed"] += bool(problems)
    tally["problems"] += problems


def kernel_metrics(ctx: Ctx, tr: Tracer, tally: dict) -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ulp_ray.functions.routing import sanitise_routes
    from ulp_ray.rules import UNMATCHED, default_transcript_registry
    from ulp_ray.stages.aggregate import partial_counts_fn
    from ulp_ray.stages.enrich import DEFAULT_TAXONOMY, enrich_batch
    from ulp_ray.stages.parse import parse_batch

    data = ctx.data
    table = pa.concat_tables(pq.read_table(f) for f in data["base"])
    table = table.slice(0, KERNEL_ROWS).combine_chunks()
    n = table.num_rows
    compiled = default_transcript_registry().compile()
    partial = partial_counts_fn(AGG_KEYS)
    m: dict = {}
    with tr.span("rules.parse_column", rows_in=n):
        m["rules.parse_column.us_per_row"], parsed = _cpu_per_row(
            lambda: compiled.parse_column(table["text"]), n
        )
    with tr.span("rules.routes_for", rows_in=n):
        m["rules.routes_for.us_per_row"], routes = _cpu_per_row(
            lambda: compiled.routes_for(parsed), n
        )
    with tr.span("functions.routing.sanitise_routes", rows_in=n):
        m["functions.routing.sanitise_routes.us_per_row"], _ = _cpu_per_row(
            lambda: sanitise_routes(routes), n
        )
    with tr.span("stages.parse.parse_batch", rows_in=n):
        m["stages.parse.parse_batch.us_per_row"], batch = _cpu_per_row(
            lambda: parse_batch(table, compiled), n
        )
    with tr.span("stages.enrich.enrich_batch", rows_in=n):
        m["stages.enrich.enrich_batch.us_per_row"], enriched = _cpu_per_row(
            lambda: enrich_batch(batch, DEFAULT_TAXONOMY), n
        )
    with tr.span("stages.aggregate.partial_counts", rows_in=n):
        m["stages.aggregate.partial_counts.us_per_row"], counts = _cpu_per_row(
            lambda: partial(enriched), n
        )
    unmatched = pc.sum(pc.cast(pc.equal(parsed["rule"], UNMATCHED), "int64")).as_py()
    m["rules.matched_frac"] = (n - unmatched) / n
    if n == data["n_base"]:
        golden = data["golden_base"]
        want = sum(v for (rule, _, _), v in golden.items() if rule == UNMATCHED)
        _check(tally, "kernel unmatched rows", unmatched, want)
        _check(tally, "kernel partial counts", table_counts(counts), golden)
    return m


def baseline_metrics(ctx: Ctx, tr: Tracer, tally: dict) -> dict:
    """parse → enrich → partial counts over the whole base input, file by
    file, in this process with no Ray: the single-threaded baseline."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ulp_ray.rules import default_transcript_registry
    from ulp_ray.stages.aggregate import partial_counts_fn
    from ulp_ray.stages.enrich import DEFAULT_TAXONOMY, enrich_batch
    from ulp_ray.stages.parse import parse_batch

    data = ctx.data
    compiled = default_transcript_registry().compile()
    partial = partial_counts_fn(AGG_KEYS)
    with tr.span("baseline.single_process", rows_in=data["n_base"]):
        t0 = time.perf_counter()
        parts = [
            partial(enrich_batch(parse_batch(pq.read_table(f), compiled), DEFAULT_TAXONOMY))
            for f in data["base"]
        ]
        counts = table_counts(pa.concat_tables(parts))
        wall = time.perf_counter() - t0
    _check(tally, "baseline counts", counts, data["golden_base"])
    return {"baseline.single_process_turns_per_s": data["n_base"] / wall}


def _task_times(ds) -> tuple[float, float]:
    """(Σ UDF time, Σ task wall time) over the operators of a Dataset's own
    execution, from the Ray Data stats that ``ds.stats()`` prints."""
    udf = wall = 0.0
    for op in ds._get_stats_summary().operators_stats:
        if op.udf_time and op.wall_time:
            udf += op.udf_time.get("sum", 0.0)
            wall += op.wall_time.get("sum", 0.0)
    return udf, wall


def _udf_frac(ds) -> float:
    udf, wall = _task_times(ds)
    return udf / wall if wall else 0.0


class _Stages:
    """The flagship's stages, composed from the same public functions
    ``run_pipeline`` uses."""

    def __init__(self) -> None:
        from ulp_ray.rules import default_transcript_registry
        from ulp_ray.stages.enrich import put_taxonomy

        self.registry = default_transcript_registry()
        self.taxonomy = put_taxonomy()

    def read(self, files):
        import ray

        return ray.data.read_parquet(files, override_num_blocks=len(files))

    def parse(self, ds):
        from ulp_ray.stages.parse import make_parse_fn

        return ds.map_batches(
            make_parse_fn(self.registry), batch_format="pyarrow", zero_copy_batch=True
        )

    def enrich(self, ds):
        from ulp_ray.stages.enrich import make_enrich_fn

        return ds.map_batches(make_enrich_fn(self.taxonomy), batch_format="pyarrow")

    def write(self, ds, sink: str):
        from ulp_ray.sources.io import overwrite_sink_args

        ds.write_parquet(sink, partition_cols=["route"], **overwrite_sink_args())
        return ds


def _timed(tr: Tracer, name: str, fn, **counts):
    with tr.span(name, **counts):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out


def stage_metrics(ctx: Ctx, tr: Tracer, tally: dict) -> dict:
    """Each stage's self time: the stage run alone over its materialized
    input (so Ray's operator fusion is deliberately broken here)."""
    from ulp_ray.stages.aggregate import count_rollup

    data = ctx.data
    files, n = data["base"], data["n_base"]
    st = _Stages()
    w_read, read = _timed(tr, "sources.read_parquet", lambda: st.read(files).materialize(), rows_in=n)
    w_parse, parsed = _timed(tr, "stages.parse.ray", lambda: st.parse(read).materialize(), rows_in=n)
    w_enrich, enriched = _timed(tr, "stages.enrich.ray", lambda: st.enrich(parsed).materialize(), rows_in=n)
    # read the stats before the write below replaces them on ``enriched``
    udf = {"stages.parse.udf_frac": _udf_frac(parsed), "stages.enrich.udf_frac": _udf_frac(enriched)}
    w_count, counts = _timed(
        tr,
        "stages.aggregate.count_rollup",
        lambda: count_rollup(enriched, AGG_KEYS).take_all(),
        rows_in=n,
    )
    sink = ctx.fresh_dir("stage-sink")
    w_write, _ = _timed(tr, "stages.route.write_parquet", lambda: st.write(enriched, sink), rows_in=n)
    shutil.rmtree(sink, ignore_errors=True)
    _check(
        tally,
        "count_rollup stage",
        counts_dict((r["rule"], r["tool"], r["role"], r["n"]) for r in counts),
        data["golden_base"],
    )
    return {
        "sources.read_s": w_read,
        "stages.parse.ray_s": w_parse,
        "stages.enrich.ray_s": w_enrich,
        "stages.aggregate.count_rollup_s": w_count,
        "stages.route.write_s": w_write,
        **udf,
    }


def flagship_metrics(ctx: Ctx, tr: Tracer, res: dict) -> dict:
    from ulp_ray.state.manifest import file_sha256, load_completed

    data = ctx.data
    parts = res["partition_s"]
    m = {
        "pipelines.flagship.partition_s.p50": statistics.median(parts),
        "pipelines.flagship.partition_s.max": max(parts),
        "pipelines.flagship.first_checkpoint_s": res["first_result_s"],
        "pipelines.flagship.append_resume_s": res["append_resume_s"],
        "state.audit.audit_run_s": res["audit_s"],
        "stages.route.sink_files": res["sink_files"],
        "stages.route.sink_bytes": res["sink_bytes"],
        "stages.route.sink_bytes_per_input_byte": res["sink_bytes"] / ctx.inputs["base_bytes"],
    }
    # finalize = partition wall − the same partition's Ray
    # read→parse→enrich→write wall (run_pipeline's grouping: files[i::n])
    files = data["base"]
    n = min(PARTITIONS, len(files))
    groups = [files[i::n] for i in range(n)]
    st = _Stages()
    finalize = []
    for i, group in enumerate(groups):
        sink = ctx.fresh_dir("partition-sink")
        wall, _ = _timed(
            tr,
            "pipelines.flagship.partition_prefix",
            lambda: st.write(st.enrich(st.parse(st.read(group))), sink),
            partition=i,
        )
        shutil.rmtree(sink, ignore_errors=True)
        finalize.append(parts[i] - wall)
    m["pipelines.flagship.finalize_s"] = statistics.median(finalize)
    reps = []
    for _ in range(5):
        w, _ = _timed(tr, "state.manifest.load_completed", lambda: load_completed(res["out_dir"]))
        reps.append(w)
    m["state.manifest.load_completed_s"] = statistics.median(reps)
    nbytes = sum(os.path.getsize(f) for f in files)
    w, _ = _timed(tr, "state.manifest.file_sha256", lambda: [file_sha256(f) for f in files], bytes=nbytes)
    m["state.manifest.file_sha256.mb_per_s"] = nbytes / 1e6 / w
    return m


def conversation_metrics(ctx: Ctx, tr: Tracer, res: dict) -> dict:
    import numpy as np
    from ulp_ray.stages._bucket import resolve_buckets, with_bucket

    names = {
        "stages.conversation.turn_gaps": "stages.conversation.turn_gaps_s",
        "stages.dedup.exact_dedup": "stages.dedup.exact_dedup_s",
        "stages.conversation.conversation_stats": "stages.conversation.conversation_stats_s",
        "stages.join.bucketed_hash_join": "stages.join.bucketed_hash_join_s",
    }
    m = {}
    for span_name, metric in names.items():
        s = tr.last(span_name)
        m[metric] = s["end"] - s["start"]
    # in-task time of the co-group ops ÷ their driver-side walls
    udf = wall = 0.0
    for span_name, ds in res["datasets"].items():
        s = tr.last(span_name)
        wall += s["end"] - s["start"]
        udf += _task_times(ds)[0]
    m["stages._bucket.udf_frac"] = udf / wall
    files = ctx.data["base"]
    st = _Stages()
    buckets = resolve_buckets(None, st.read(files))
    with tr.span("stages._bucket.with_bucket", rows_in=ctx.data["n_base"]):
        tagged = with_bucket(st.read(files), ["conv_id"], buckets).select_columns(["__bucket"])
        sizes = np.zeros(buckets, dtype=np.int64)
        for b in tagged.iter_batches(batch_format="numpy", batch_size=None):
            sizes += np.bincount(b["__bucket"], minlength=buckets)
    m["stages._bucket.buckets"] = buckets
    m["stages._bucket.skew"] = float(sizes.max() / sizes.mean())
    return m


def overhead(ctx: Ctx, workload: str, seconds: float, tr: Tracer, tally: dict):
    """Alternate untraced and traced ops of the workload for ``seconds``;
    returns (overhead fraction, last traced op result)."""
    op = OPS[workload]
    off = Tracer("untraced", enabled=False)
    untraced, traced, last = [], [], None
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        r = run_op(op, ctx, off, tally)
        if r is not None:
            untraced.append(r["wall_s"])
        with tr.span(f"workload.{workload}"):
            r = run_op(op, ctx, tr, tally, keep=True)
        if r is not None:
            traced.append(r["wall_s"])
            if last is not None and "out_dir" in last:
                shutil.rmtree(last["out_dir"], ignore_errors=True)
            last = r
        if tally["failed"] >= MAX_FAILED_OPS:
            break
    if not (traced and untraced):
        return None, last
    return statistics.median(traced) / statistics.median(untraced) - 1.0, last


def trace_suite(ctx: Ctx, workload: str, seconds: float, tr: Tracer, tally: dict) -> dict:
    m: dict = {}
    frac, own = overhead(ctx, workload, seconds, tr, tally)
    if frac is not None:
        m["trace.overhead_frac"] = frac
    results = {workload: own}
    for other in ("flagship", "conversations"):
        if results.get(other) is None:
            with tr.span(f"workload.{other}"):
                results[other] = run_op(OPS[other], ctx, tr, tally, keep=True)
    steps = [
        lambda: kernel_metrics(ctx, tr, tally),
        lambda: baseline_metrics(ctx, tr, tally),
        lambda: stage_metrics(ctx, tr, tally),
    ]
    if results["flagship"] is not None:
        steps.append(lambda: flagship_metrics(ctx, tr, results["flagship"]))
    if results["conversations"] is not None:
        steps.append(lambda: conversation_metrics(ctx, tr, results["conversations"]))
    for step in steps:
        try:
            m.update(step())
        except Exception:  # noqa: BLE001 - report what the other layers give
            tally["attempted"] += 1
            tally["failed"] += 1
            tally["problems"].append(traceback.format_exc(limit=8))
    if results["flagship"] is not None:
        shutil.rmtree(results["flagship"]["out_dir"], ignore_errors=True)
    return m
