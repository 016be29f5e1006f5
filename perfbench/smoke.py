"""Smoke check of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced
at ``TURNS`` base turns, and asserts that each run exits 0, ends with the
result line, passes every correctness gate and emits every metric of its
kind, by name and with its unit, as a finite number (end-to-end metrics
also non-zero). Also asserts that ``metric_map.json`` maps every
per-layer metric. Takes a few minutes on one CPU.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TURNS = 20_000
SEED = 7
SECONDS = 1


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
        "--trace", str(trace), "--turns", str(TURNS),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-3000:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        errors.append(f"{where}: gates failed: {proc.stderr[-3000:]}")
    metrics = res.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: metrics differ: {sorted(set(expected) ^ set(metrics))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r} != {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: {name} value {v!r}")
        elif trace == 0 and v == 0:
            errors.append(f"{where}: {name} is 0")
    print(f"{where}: {'ok' if not errors else 'FAILED'}", flush=True)
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mapping = json.load(f)
    kinds = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = [
        f"metric_map.json lacks {name}" for name in kinds[1] if name not in mapping
    ]
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(w["name"], trace, kinds[trace])
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
