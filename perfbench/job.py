"""One Ray session of a benchmark run, in a fresh process. ``run.py``
starts it once per session; it writes its result as JSON to ``--result``.

The process imports the engine, starts Ray (``num_cpus`` = ``nproc``) and
runs one untimed warm-up op; that is one set-up sample. With
``--trace 0`` it then times the workload's op (see ``workloads.py``) for
``--seconds`` and returns every op sample; with ``--trace 1`` it runs the
traced layer suite (``layers.py``) and returns the per-layer metrics.
``run.py`` merges the sessions of a run into its metrics. The environment
record and the calibration kernel used by ``run.py`` live here too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_OPS = 1  # per session
STEAL_MAX = 0.04  # tuned on a 4-vCPU VM: calm runs 0.2-2.6 % steal, disturbed 5-12 %
STEAL_EXTEND = 1.2  # bounds a session's wall when calm ops are wanting
MAX_FAILED_OPS = 3


# ---------------------------------------------------------------------------
# environment record and calibration
# ---------------------------------------------------------------------------


def nproc() -> int:
    """CPUs as GNU ``nproc`` reports them (it honours OMP_NUM_THREADS)."""
    exe = shutil.which("nproc")
    if exe:
        try:
            out = subprocess.run([exe], capture_output=True, text=True, timeout=10)
            return max(1, int(out.stdout.strip()))
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
    return max(1, len(os.sched_getaffinity(0)))


def calibrate() -> float:
    """Seconds for a fixed Ray-free kernel (sort + sha256); compared at the
    start and end of a run to flag a throttled window."""
    import numpy as np

    a = np.random.default_rng(12345).integers(0, 2**62, 400_000)
    buf = bytes(8 << 20)
    t0 = time.perf_counter()
    for _ in range(3):
        np.sort(a)
        hashlib.sha256(buf).digest()
    return time.perf_counter() - t0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def env_record() -> dict:
    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


def steal_frac(t0: tuple[int, int], t1: tuple[int, int]) -> float:
    steal, total = (b - a for a, b in zip(t0, t1))
    return steal / total if total else 0.0


def measure(ctx, workload: str, seconds: float, tally: dict) -> tuple[list[dict], list[dict]]:
    """Run checked ops back to back for ``seconds`` and at least
    ``MIN_OPS`` times. An op during which the hypervisor stole more than
    ``STEAL_MAX`` of the machine's CPU time measured the neighbours, not
    the program: it is kept apart and the loop runs on, up to
    ``STEAL_EXTEND`` × ``seconds``, for ops that are not. Returns
    (calm ops, stolen-from ops)."""
    from tracing import Tracer
    from workloads import OPS, run_op

    off = Tracer("untraced", enabled=False)
    calm: list[dict] = []
    stolen: list[dict] = []
    t0 = time.perf_counter()
    while tally["failed"] < MAX_FAILED_OPS:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(calm) >= MIN_OPS:
            break
        if elapsed >= STEAL_EXTEND * seconds and len(calm) + len(stolen) >= MIN_OPS:
            break
        ticks = cpu_ticks()
        r = run_op(OPS[workload], ctx, off, tally)
        if r is not None:
            keep = {k: r[k] for k in ("turns", "wall_s", "first_result_s")}
            keep["steal_frac"] = steal_frac(ticks, cpu_ticks())
            (calm if keep["steal_frac"] <= STEAL_MAX else stolen).append(keep)
    return calm, stolen


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    os.chdir(ROOT)  # Ray workers inherit the cwd and import ulp_ray from it
    sys.path.insert(0, ROOT)

    from inputs import load_inputs
    from tracing import Tracer
    from workloads import Ctx, setup_sample

    ctx = Ctx(load_inputs(args.inputs), args.work, args.ray_tmp, args.cpus)
    t_imp = time.perf_counter()
    import pyarrow
    import ray
    import ulp_ray.pipelines.flagship  # noqa: F401
    import ulp_ray.stages.conversation  # noqa: F401
    import ulp_ray.stages.dedup  # noqa: F401
    import ulp_ray.stages.join  # noqa: F401
    import ulp_ray.state.audit  # noqa: F401

    import_s = time.perf_counter() - t_imp
    tally = {"attempted": 0, "failed": 0, "problems": []}
    out: dict = {"setup_s": import_s + setup_sample(ctx, args.workload)}
    if args.trace:
        import layers

        tr = Tracer(f"{args.workload}-s{args.seed}")
        out["metrics"] = layers.trace_suite(ctx, args.workload, args.seconds, tr, tally)
        out["spans"] = tr.dump()
    else:
        out["calm"], out["stolen"] = measure(ctx, args.workload, args.seconds, tally)
    ray.shutdown()
    out.update(tally)
    out["driver_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"ray": ray.__version__, "pyarrow": pyarrow.__version__}
    with open(args.result, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
