"""Benchmark harness.

Headline: the flagship parse→enrich→route→aggregate pipeline over the
synthetic transcript table sized to $GRAFT_SF_DIR's scale factor
(sf0.1 → 1M turns), reported as wall seconds + turns/sec. Secondary:
representative queries over the $GRAFT_SF_DIR testdata tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "turns": N, "turns_per_sec": N}

--scaling: runs the streaming classify→aggregate job twice in fresh
processes at two num_cpus levels (default 2 and 8 — see BASELINE.md: this
VM's aggregate memory bandwidth is ~2 GB/s, saturated past ~8 procs, so
the 8→32 pair measures the box, not the engine; both pairs are reported
there) on identical input and prints throughput at both + scaling
efficiency (tp_hi/tp_lo)/(hi/lo) — the sandbox evidence for the N→4N
≥0.8 criterion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

_SF_TURNS = {"sf0.001": 10_000, "sf0.01": 100_000, "sf0.1": 1_000_000}


def _sf_name() -> str:
    return os.path.basename(os.path.normpath(SF_DIR))


def _ensure_transcripts(n_turns: int) -> str:
    from ulp_ray.fixtures import ensure_transcripts

    return ensure_transcripts(n_turns)


def _warm_page_cache(path: str) -> None:
    for root, _, files in os.walk(path):
        for f in files:
            with open(os.path.join(root, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass


def _quiet_ray_data_logs() -> None:
    """Silence two cosmetic ray.data WARNINGs that flood the bench tail
    (must run BEFORE ray.init so workers inherit the env):

    - "Failed to hash the schemas (for deduplication)": the driver's
      testdata parquet footers carry ``b'pandas'`` metadata whose value
      is a dict, so ``set(schemas)`` in Ray's schema-dedup raises — the
      engine's own pandas→arrow conversions strip that metadata
      (``stages/join.py``), but schemas read from the input files keep it.
    - "RefBundle with a different schema … new schema: .": Ray's
      sort-based groupby emits schema-less EMPTY blocks for shuffle
      partitions that received no keys; UDFs are never called for those,
      so no user-side schema pinning can reach them.

    Both are cosmetic (values verified by the oracle gate); real errors
    still propagate as task exceptions."""
    import logging

    cfg = "/tmp/ulp_ray_bench_logcfg.yaml"
    with open(cfg, "w") as f:
        f.write(
            "version: 1\n"
            "disable_existing_loggers: False\n"
            "formatters:\n"
            "  ray: {format: '%(asctime)s %(levelname)s %(name)s -- %(message)s'}\n"
            "handlers:\n"
            "  console: {class: logging.StreamHandler, formatter: ray, level: ERROR}\n"
            "loggers:\n"
            "  ray.data: {level: ERROR, handlers: [console], propagate: False}\n"
        )
    os.environ["RAY_DATA_LOGGING_CONFIG"] = cfg  # worker-side
    logging.getLogger("ray.data").setLevel(logging.ERROR)  # driver-side


def run_bench() -> dict:
    import ray

    _quiet_ray_data_logs()

    # generate fixtures BEFORE ray.init: the generator forks a local
    # process pool, and forking after Ray spawns its gRPC threads is
    # documented-unsafe (deadlock hazard)
    n_turns = _SF_TURNS.get(_sf_name(), 100_000)
    data = _ensure_transcripts(n_turns)
    # 10M flagship leg (amortized regime — per-partition fixed costs
    # vanish; BASELINE.md tracks it): only at the driver's sf0.1 config,
    # where the extra ~20 s wall is proportionate. GRAFT_10M=0 skips.
    # Runs LAST in a FRESH SUBPROCESS with its own ray.init (r4 fix):
    # in-process it inherited the ~20 query legs' object-store churn and
    # read 31.7 s where a standalone probe of the same binary read
    # 14.6-16.1 s — isolation keeps both the query walls and the 10M
    # number clean without reordering either.
    run_10m = _sf_name() == "sf0.1" and os.environ.get("GRAFT_10M", "1") != "0"
    if run_10m:
        _ensure_transcripts(10_000_000)  # cache the fixture pre-fork

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    from ulp_ray.pipelines.flagship import run_pipeline

    _warm_page_cache(data)

    out = f"/tmp/ulp_ray_bench/{_sf_name()}_cpus{NUM_CPUS}"
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    t0 = time.monotonic()
    res = run_pipeline(data, out, partitions=4, resume=False)
    headline = time.monotonic() - t0
    assert res.rows_routed == n_turns, (res.rows_routed, n_turns)

    queries = {}
    qs = entrymod.queries()
    for name in (
        "parse_route_events",
        "agg_rollup_events",
        "exact_dedup_docs",
        "q1_lineitem",
        "windowed_counts_events",
        "asof_purchase_signup",
        "session_windows_events",
        "turn_gaps_events",
        "minhash_dedup_docs",
        "interval_join_events",
        "pivot_event_counts",
        "quantile_value_per_type",
        "rolling_sum_events",
        "vocabulary_docs",
        "doc_term_stats_docs",
        "contamination_docs",
        "ngram_jaccard_pairs_docs",
        "neardup_components_docs",
        "semi_join_orders_rich_bloom",
        "semi_join_orders_rich_bloom_forced",
        "heavy_hitters_tokens_docs",
        "bm25_topk_docs",
        "bigram_logprob_docs",
        "duplicated_windows_docs",
        "token_budget_docs",
        "quantile_filter_events",
        "rolling_time_sum_events",
        "full_outer_join_orders_customer",
    ):
        if name not in qs:
            continue
        t0 = time.monotonic()
        r = qs[name](SF_DIR)
        # consume: Datasets are lazy
        if hasattr(r, "materialize"):
            r.materialize()
        queries[name] = round(time.monotonic() - t0, 3)

    result = {
        "metric": "flagship parse→enrich→route→aggregate wall sec (transcripts)",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": _sf_name(),
        "num_cpus": NUM_CPUS,
        "turns": n_turns,
        "turns_per_sec": round(n_turns / headline, 1),
    }

    ray.shutdown()

    # 10M leg: fresh subprocess, fresh ray.init — neither the query
    # suite's object-store churn nor the leg's own contaminates the
    # other (the prior in-process run read 2.2× its standalone wall)
    if run_10m:
        try:
            leg = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--flagship-10m-leg"],
                env=dict(os.environ),
                capture_output=True,
                text=True,
                check=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout
            result.update(json.loads(leg.strip().splitlines()[-1]))
        except (subprocess.CalledProcessError, ValueError, IndexError) as e:
            # a failed 10M leg must not cost the whole artifact
            detail = getattr(e, "stderr", "") or str(e)
            result["flagship_10m_error"] = detail[-500:]
    return result


def run_10m_leg() -> dict:
    """The 10M-turn flagship leg in isolation (invoked as a subprocess
    by run_bench, runnable standalone for probes)."""
    import ray

    _quiet_ray_data_logs()
    data_10m = _ensure_transcripts(10_000_000)  # BEFORE ray.init
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ulp_ray.pipelines.flagship import run_pipeline

    _warm_page_cache(data_10m)
    import shutil

    out10 = f"/tmp/ulp_ray_bench/10m_cpus{NUM_CPUS}"
    shutil.rmtree(out10, ignore_errors=True)
    t0 = time.monotonic()
    res10 = run_pipeline(data_10m, out10, partitions=8, resume=False)
    wall10 = time.monotonic() - t0
    assert res10.rows_routed == 10_000_000, res10.rows_routed
    ray.shutdown()
    return {
        "flagship_10m_sec": round(wall10, 3),
        "turns_per_sec_10m": round(10_000_000 / wall10, 1),
    }


SCALING_TURNS = int(os.environ.get("GRAFT_SCALING_TURNS", "40000000"))


def run_scaling_leg() -> dict:
    """One leg of the scaling experiment (fresh process): the streaming
    classify→aggregate job (run_streaming_counts: rule match only, no
    capture extraction or enrich, so its turns/s are not comparable with
    BENCH_r01–r05's parse→enrich ones) at RAY_GRAFT_CPUS on
    the cached SCALING_TURNS-turn table. A small untimed warm-up execution
    spins up worker processes first so the timed run measures the per-file
    tasks and the caller's fold of their partial counts, not process
    spawn."""
    import ray

    data = _ensure_transcripts(SCALING_TURNS)  # BEFORE ray.init (fork safety)

    _quiet_ray_data_logs()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ulp_ray.pipelines.flagship import run_streaming_counts

    _warm_page_cache(data)
    run_streaming_counts(data)  # untimed full run: spawns every worker,
    # compiles registries, touches all input — the timed runs then measure
    # steady-state compute only (there is no shuffle: per-file partials)
    times = []
    for _ in range(3):
        t0 = time.monotonic()
        counts = run_streaming_counts(data)
        times.append(time.monotonic() - t0)
        n = sum(counts["n"].to_pylist())
        assert n == SCALING_TURNS, (n, SCALING_TURNS)
    dt = sorted(times)[1]  # median of 3 (straggler waves are noisy)
    ray.shutdown()
    return {
        "num_cpus": NUM_CPUS,
        "sec": round(dt, 3),
        "all_secs": [round(t, 3) for t in times],
        "turns": SCALING_TURNS,
        "turns_per_sec": round(SCALING_TURNS / dt, 1),
    }


def run_scaling() -> dict:
    """Fresh process per parallelism level, identical input (the sandbox
    evidence for the N→4N-nodes ≥0.8 criterion)."""

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--scaling-leg"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = (
        int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "2,8").split(",")
    )
    r_lo, r_hi = one(lo), one(hi)
    tp_lo = r_lo["turns_per_sec"]
    tp_hi = r_hi["turns_per_sec"]
    eff = (tp_hi / tp_lo) / (hi / lo)
    return {
        "metric": "scaling efficiency (streaming classify→aggregate "
        f"turns/sec, num_cpus {lo} → {hi})",
        "value": round(eff, 3),
        "unit": "efficiency",
        "turns": SCALING_TURNS,
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        "sec_lo": r_lo["sec"],
        "sec_hi": r_hi["sec"],
        "turns_per_sec_lo": tp_lo,
        "turns_per_sec_hi": tp_hi,
        "scaling_efficiency": round(eff, 3),
    }


if __name__ == "__main__":
    if "--scaling-leg" in sys.argv:
        print(json.dumps(run_scaling_leg()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--flagship-10m-leg" in sys.argv:
        print(json.dumps(run_10m_leg()))
    else:
        print(json.dumps(run_bench()))
