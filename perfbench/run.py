"""Benchmark entry point for the ulp_ray engine.

    python3 perfbench/run.py --workload <flagship|stream_counts|conversations>
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. One run:

1. stops any Ray left on the machine (``ray stop --force``);
2. builds (or reuses from ``perfbench/.cache``) the seeded input set and
   its references; this is never timed;
3. times a fixed Ray-free calibration kernel;
4. runs ``SESSIONS`` sessions one after another, each ``job.py`` in a
   fresh process that owns one Ray session (``num_cpus`` = ``nproc``),
   sets it up with a warm-up op, times the workload for its share of
   ``--seconds`` and checks its outputs; all under a per-run timeout;
5. times the calibration kernel again, stops Ray and removes every out
   dir and Ray session dir, all of which live under ``perfbench/.tmp``;
6. prints the environment record, then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``: each
   end-to-end metric is the median over the ops (``setup_s``: over the
   set-ups, ``driver_peak_rss_mb``: over the driver processes) of all
   sessions.

``--trace 0`` reports every ``end_to_end`` metric of ``BENCHMARK.json``,
``--trace 1`` every ``per_layer`` metric, from one session; the traced
run also writes its spans to ``perfbench/.out/spans-<workload>.json``. The exit code is not 0
when the run could not produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from job import calibrate, cpu_ticks, env_record, steal_frac
from workloads import OPS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(HERE, ".tmp")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")

DEFAULT_TURNS = 100_000
# Sessions of one run, each a fresh process with its own Ray set-up;
# setup_s is the median of their set-ups. A traced run has one session.
SESSIONS = 3
RUN_TIMEOUT_S = 160.0
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
RAY_TMP_MAX_LEN = 40


def ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=20,
        check=False,
    )


def ray_procs_left(ray_tmp: str) -> bool:
    """True while a process started for this run's Ray session is alive:
    Ray's own daemons carry the session dir in their arguments, and its
    workers rename themselves ``ray::...``."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().decode(errors="replace")
        except OSError:
            continue
        if ray_tmp in cmd or cmd.startswith("ray::"):
            return True
    return False


def ray_temp_dir() -> str:
    """Ray's session root: under ``perfbench/.tmp`` when the path is short
    enough for Ray's socket names, else a fresh short system temp dir."""
    path = os.path.join(TMP, "ray")
    if len(path) <= RAY_TMP_MAX_LEN:
        os.makedirs(path)
        return path
    return tempfile.mkdtemp(prefix="pb-")


def metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_child(args, k: int, seconds: float, inputs: str, ray_tmp: str,
              cpus: int, deadline: float) -> dict | None:
    """Session ``k`` of the run in a fresh ``job.py`` process; its result,
    or None when it failed or ran past ``deadline``."""
    result = os.path.join(TMP, f"result-{k}.json")
    log = os.path.join(TMP, f"job-{k}.log")
    cmd = [
        sys.executable,
        os.path.join(HERE, "job.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--inputs", inputs,
        "--work", os.path.join(TMP, f"work-{k}"),
        "--ray-tmp", ray_tmp,
        "--cpus", str(cpus),
        "--result", result,
    ]
    env = dict(os.environ)
    env.update(
        RAY_USAGE_STATS_ENABLED="0",
        RAY_DATA_DISABLE_PROGRESS_BARS="1",
        TMPDIR=TMP,
        RAY_TMPDIR=ray_tmp,
    )
    env.pop("RAY_ADDRESS", None)
    with open(log, "w") as logf:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=logf, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"perfbench: run timed out after {RUN_TIMEOUT_S:.0f} s", file=sys.stderr)
            code = None
    if ray_procs_left(ray_tmp):
        ray_stop()
    for d in os.listdir(ray_tmp):  # each session starts from an empty Ray temp dir
        shutil.rmtree(os.path.join(ray_tmp, d), ignore_errors=True)
    if code != 0 or not os.path.isfile(result):
        with open(log) as f:
            sys.stderr.write(f.read()[-6000:])
        return None
    with open(result) as f:
        return json.load(f)


def merge(sessions: list[dict], trace: int) -> dict:
    """The run's metrics from its sessions' samples."""
    if trace:
        return dict(sessions[0]["metrics"])
    calm = [op for s in sessions for op in s["calm"]]
    ops = calm or [op for s in sessions for op in s["stolen"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "driver_peak_rss_mb": statistics.median(s["driver_peak_rss_mb"] for s in sessions),
    }
    if ops:
        metrics["turns_per_s"] = statistics.median(op["turns"] / op["wall_s"] for op in ops)
        metrics["first_result_s"] = statistics.median(op["first_result_s"] for op in ops)
    return metrics


def main() -> int:
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--turns", type=int, default=DEFAULT_TURNS,
                    help="base input size (the registered benchmark uses the default)")
    args = ap.parse_args()
    deadline = t0 + RUN_TIMEOUT_S

    specs = metric_specs()[args.trace]
    sys.path.insert(0, ROOT)
    try:
        import ulp_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the ulp_ray package is not importable from {ROOT}: {e}", file=sys.stderr)
        return 2

    from inputs import ensure_inputs

    ray_stop()
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    ray_tmp = ray_temp_dir()
    n_sessions = 1 if args.trace else SESSIONS
    sessions: list[dict] = []
    failed_sessions = 0
    try:
        inputs, built_s = ensure_inputs(CACHE, args.seed, args.turns)
        env = env_record()
        ticks0 = cpu_ticks()
        env["calibration_start_s"] = calibrate()
        for k in range(n_sessions):
            res = run_child(
                args, k, args.seconds / SESSIONS, inputs, ray_tmp, env["nproc"], deadline
            )
            if res is None:
                failed_sessions += 1
                if time.monotonic() >= deadline:
                    break
            else:
                sessions.append(res)
        env["calibration_end_s"] = calibrate()
    finally:
        if ray_procs_left(ray_tmp):
            ray_stop()
        shutil.rmtree(ray_tmp, ignore_errors=True)
        shutil.rmtree(TMP, ignore_errors=True)
    if not sessions:
        return 1

    ratio = env["calibration_end_s"] / env["calibration_start_s"]
    env.update(
        sessions[0]["versions"],
        num_cpus=env["nproc"],
        throttled=not (0.8 <= ratio <= 1.25),
        loadavg_end=list(os.getloadavg()),
        cpu_steal_frac=steal_frac(ticks0, cpu_ticks()),
        setup_samples_s=[s["setup_s"] for s in sessions],
        inputs_built_s=built_s,
        wall_s=time.monotonic() - t0,
    )
    if not args.trace:
        env["op_wall_s"] = [[op["wall_s"] for op in s["calm"]] for s in sessions]
        env["op_wall_s_stolen_from"] = [[op["wall_s"] for op in s["stolen"]] for s in sessions]
        env["op_steal_frac"] = [op["steal_frac"] for s in sessions for op in s["calm"] + s["stolen"]]
    merged = merge(sessions, args.trace)
    metrics = {
        name: {"value": merged[name], "unit": unit}
        for name, unit in specs.items()
        if name in merged
    }
    missing = sorted(set(specs) - set(metrics))
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"spans-{args.workload}.json"), "w") as f:
            json.dump({"env": env, "spans": sessions[0]["spans"]}, f, indent=1)
    for s in sessions:
        for p in s["problems"]:
            print(f"perfbench: {p}", file=sys.stderr)
    if failed_sessions:
        print(f"perfbench: {failed_sessions} session(s) failed", file=sys.stderr)
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    # a session that died counts as one failed op
    attempted = sum(s["attempted"] for s in sessions) + failed_sessions
    failed = sum(s["failed"] for s in sessions) + failed_sessions
    print(json.dumps({"env": env, "error_rate": failed / max(1, attempted)}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not missing,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
