"""The three workloads, their correctness gates and the Ray session.

Each workload drives the engine only through its public API, on the
Parquet files of one seeded input set (see ``inputs.py``):

- ``flagship``: ``run_pipeline`` into a fresh out dir, then the append
  files and an append-aware resume, then ``audit_run``;
- ``stream_counts``: ``run_streaming_counts`` on the same base files;
- ``conversations``: ``turn_gaps``, ``exact_dedup`` and
  ``bucketed_hash_join(turns, conversation_stats(turns))`` on them.

Every op is checked against the references in ``refs.json``; a failed
or wrong op is tallied by :func:`run_op` and the run goes on.
"""

from __future__ import annotations

import glob
import os
import shutil
import time
import traceback

from inputs import PARTITIONS, TS_BASE_US
from tracing import Tracer

AGG_KEYS = ["rule", "tool", "role"]
OBJECT_STORE_BYTES = 512 * 1024 * 1024


class WrongOutput(Exception):
    """An op finished but its output disagrees with the reference."""


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------


def counts_dict(rows) -> dict:
    out: dict = {}
    for r, t, ro, n in rows:
        out[(r, t, ro)] = out.get((r, t, ro), 0) + n
    return out


def table_counts(tbl) -> dict:
    return counts_dict(
        (r["rule"], r["tool"], r["role"], r["n"]) for r in tbl.to_pylist()
    )


def _by_route(golden: dict) -> dict:
    # the sink directory of rule "_unmatched" is route=unmatched
    out: dict = {}
    for (rule, _, _), n in golden.items():
        route = rule.lstrip("_")
        out[route] = out.get(route, 0) + n
    return out


def _sink_rows_by_route(out_dir: str) -> tuple[dict, int, int]:
    """Rows per route from the sink Parquet footers, plus file count and
    bytes of the sink."""
    import pyarrow.parquet as pq

    rows: dict = {}
    files = glob.glob(os.path.join(out_dir, "sinks", "partition=*", "route=*", "*.parquet"))
    for f in files:
        route = os.path.basename(os.path.dirname(f)).split("=", 1)[1]
        rows[route] = rows.get(route, 0) + pq.read_metadata(f).num_rows
    return rows, len(files), sum(os.path.getsize(f) for f in files)


def diff(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# workload ops
# ---------------------------------------------------------------------------


class Ctx:
    """Per-run state: the input set, the work dir and the Ray session."""

    def __init__(self, inputs: dict, work_root: str, ray_tmp: str, cpus: int):
        self.inputs = inputs
        self.work_root = work_root
        self.ray_tmp = ray_tmp
        self.cpus = cpus
        self._k = 0
        base_golden = counts_dict(inputs["golden_base"])
        append_golden = counts_dict(inputs["golden_append"])
        both = dict(base_golden)
        for k, n in append_golden.items():
            both[k] = both.get(k, 0) + n
        self.data = {
            "base": inputs["base"],
            "append": inputs["append"],
            "n_base": inputs["n_base"],
            "n_append": inputs["n_append"],
            "golden_base": base_golden,
            "golden_all": both,
            "conversations": inputs["conversations"],
        }
        self.warm = {
            "base": inputs["warm_base"],
            "append": inputs["warm_append"],
            "n_base": 0,
            "n_append": 0,
        }

    def fresh_dir(self, prefix: str) -> str:
        self._k += 1
        path = os.path.join(self.work_root, f"{prefix}-{self._k}")
        shutil.rmtree(path, ignore_errors=True)
        return path


def flagship_op(ctx: Ctx, tr, data: dict, check: bool = True, keep: bool = False) -> dict:
    from ulp_ray.pipelines.flagship import run_pipeline
    from ulp_ray.state.audit import audit_run

    out = ctx.fresh_dir("flagship")
    problems: list[str] = []
    t_epoch = time.time()
    t0 = time.perf_counter()
    with tr.span("pipelines.flagship.run_pipeline", rows_in=data["n_base"]):
        r1 = run_pipeline(
            data["base"], out, partitions=PARTITIONS, resume=False, hash_inputs=True
        )
    t1 = time.perf_counter()
    manifests = glob.glob(os.path.join(out, "_manifest", "partition=*.json"))
    first_ckpt = min(os.path.getmtime(p) for p in manifests) - t_epoch
    step1_parts = [m.duration_s for m in r1.manifests]
    sink_rows, sink_files, sink_bytes = _sink_rows_by_route(out)
    if check:
        diff(problems, "step 1 rollup", table_counts(r1.counts), data["golden_base"])
        diff(problems, "step 1 rows_routed", r1.rows_routed, data["n_base"])
        diff(problems, "step 1 sink rows per route", sink_rows, _by_route(data["golden_base"]))
    t_resume = time.perf_counter()  # the checks above are not part of the op
    with tr.span("pipelines.flagship.append_resume", rows_in=data["n_append"]):
        r2 = run_pipeline(
            data["base"] + data["append"],
            out,
            partitions=PARTITIONS,
            resume=True,
            hash_inputs=True,
        )
    t2 = time.perf_counter()
    with tr.span("state.audit.audit_run"):
        report = audit_run(out, strict=False)
    t3 = time.perf_counter()
    if check:
        diff(problems, "resume partitions_run", r2.partitions_run, 1)
        diff(problems, "resume rollup", table_counts(r2.counts), data["golden_all"])
        diff(
            problems,
            "resume sink rows per route",
            _sink_rows_by_route(out)[0],
            _by_route(data["golden_all"]),
        )
        if not report.get("ok"):
            problems.append(f"audit_run: {report.get('problems')}")
    if not keep:
        shutil.rmtree(out, ignore_errors=True)
    if problems:
        raise WrongOutput("; ".join(problems))
    return {
        "turns": data["n_base"] + data["n_append"],
        "wall_s": (t1 - t0) + (t3 - t_resume),
        "first_result_s": first_ckpt,
        "step1_s": t1 - t0,
        "append_resume_s": t2 - t_resume,
        "audit_s": t3 - t2,
        "partition_s": step1_parts,
        "sink_files": sink_files,
        "sink_bytes": sink_bytes,
        "out_dir": out,
    }


def stream_counts_op(ctx: Ctx, tr, data: dict, check: bool = True, keep: bool = False) -> dict:
    from ulp_ray.pipelines.flagship import run_streaming_counts

    t0 = time.perf_counter()
    with tr.span("pipelines.flagship.run_streaming_counts", rows_in=data["n_base"]):
        counts = run_streaming_counts(data["base"])
    wall = time.perf_counter() - t0
    if check:
        problems: list[str] = []
        diff(problems, "stream counts", table_counts(counts), data["golden_base"])
        if problems:
            raise WrongOutput(problems[0])
    return {"turns": data["n_base"], "wall_s": wall, "first_result_s": wall}


def _conversation_problems(gaps, dedup, joined, ref: dict) -> list[str]:
    import pyarrow.compute as pc

    problems: list[str] = []
    rows = firsts = gap_us = 0
    for b in gaps.iter_batches(batch_format="pyarrow", batch_size=None):
        g = b["gap_s"]
        known = pc.fill_null(pc.invert(pc.is_nan(g)), False)  # a first turn's gap is null/NaN
        n_known = pc.sum(pc.cast(known, "int64")).as_py() or 0
        rows += len(b)
        firsts += len(b) - n_known
        us = pc.round(pc.multiply(pc.filter(g, known), 1e6))
        gap_us += pc.sum(pc.cast(us, "int64")).as_py() or 0
    diff(problems, "turn_gaps rows", rows, ref["gaps_rows"])
    diff(problems, "turn_gaps first turns", firsts, ref["gaps_firsts"])
    diff(problems, "turn_gaps sum(gap_us)", gap_us, ref["gaps_sum_us"])
    rows = ts_us = 0
    for b in dedup.iter_batches(batch_format="pyarrow", batch_size=None):
        rows += len(b)
        rel = pc.subtract(pc.cast(b["ts"], "int64"), TS_BASE_US)
        ts_us += pc.sum(rel).as_py() or 0
    diff(problems, "exact_dedup rows", rows, ref["dedup_rows"])
    diff(problems, "exact_dedup sum(winner ts)", ts_us, ref["dedup_ts_sum_us"])
    rows = n_turns = 0
    for b in joined.iter_batches(batch_format="pyarrow", batch_size=None):
        rows += len(b)
        n_turns += pc.sum(b["n_turns"]).as_py() or 0
    diff(problems, "join rows", rows, ref["join_rows"])
    diff(problems, "join sum(n_turns)", int(n_turns), ref["join_sum_n_turns"])
    return problems


def conversations_op(ctx: Ctx, tr, data: dict, check: bool = True, keep: bool = False) -> dict:
    import ray
    from ulp_ray.stages.conversation import conversation_stats, turn_gaps
    from ulp_ray.stages.dedup import exact_dedup
    from ulp_ray.stages.join import bucketed_hash_join

    files = data["base"]
    t0 = time.perf_counter()
    turns = ray.data.read_parquet(files, override_num_blocks=len(files))
    with tr.span("stages.conversation.turn_gaps", rows_in=data["n_base"]):
        gaps = turn_gaps(turns).materialize()
    t_first = time.perf_counter() - t0
    with tr.span("stages.dedup.exact_dedup", rows_in=data["n_base"]):
        dedup = exact_dedup(turns, on="text", order_col="ts").materialize()
    with tr.span("stages.conversation.conversation_stats", rows_in=data["n_base"]):
        stats = conversation_stats(turns).materialize()
    with tr.span("stages.join.bucketed_hash_join", rows_in=data["n_base"]):
        joined = bucketed_hash_join(
            turns.select_columns(["conv_id", "turn_idx", "role"]), stats, on="conv_id"
        ).materialize()
    wall = time.perf_counter() - t0
    if check:
        problems = _conversation_problems(gaps, dedup, joined, data["conversations"])
        if problems:
            raise WrongOutput("; ".join(problems))
    out = {"turns": data["n_base"], "wall_s": wall, "first_result_s": t_first}
    if keep:
        out["datasets"] = {
            "stages.conversation.turn_gaps": gaps,
            "stages.dedup.exact_dedup": dedup,
            "stages.join.bucketed_hash_join": joined,
        }
    return out


OPS = {
    "flagship": flagship_op,
    "stream_counts": stream_counts_op,
    "conversations": conversations_op,
}


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------


def start_ray(ctx: Ctx) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=ctx.cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=ctx.ray_tmp,
    )
    DataContext.get_current().enable_progress_bars = False


def setup_sample(ctx: Ctx, workload: str) -> float:
    """Seconds for ``ray.init`` plus one warm-up op of the workload's own
    kind on the tiny warm input; the caller adds the import time."""
    t0 = time.perf_counter()
    start_ray(ctx)
    OPS[workload](ctx, Tracer("warm", enabled=False), ctx.warm, check=False)
    return time.perf_counter() - t0


def run_op(op, ctx: Ctx, tr, tally: dict, **kw) -> dict | None:
    """One checked op; a failure or a wrong output is tallied, not raised."""
    tally["attempted"] += 1
    try:
        return op(ctx, tr, ctx.data, check=True, **kw)
    except WrongOutput as e:
        tally["failed"] += 1
        tally["problems"].append(f"{op.__name__}: wrong output: {e}")
    except Exception:  # noqa: BLE001 - the run must go on and report
        tally["failed"] += 1
        tally["problems"].append(f"{op.__name__}: {traceback.format_exc(limit=8)}")
    return None
