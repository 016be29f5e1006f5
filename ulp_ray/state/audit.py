"""Run auditing: verify a finished run's lineage actually reconciles.

``audit_run`` cross-checks the four durable artifacts of a flagship run
against each other — the check an operator runs before trusting a 100 TB
output (and the inverse of the reference's blind-trust manifest,
``/root/reference/src/workerpool.rs:81-101``):

1. every manifest's partial counts file exists and its rows sum to the
   manifest's ``rows_routed`` and hash to its ``counts_sha256``;
2. each partition's sink files contain exactly ``rows_routed`` rows
   (parquet metadata only — no data read);
3. the final rollup equals the sum of the per-partition partials;
4. ``run.json`` totals equal the manifest sums;
5. every completed partition has its per-route schema partial, and every
   route present in the sinks has a merged ``_schema.json`` sidecar;
6. (``verify_inputs=True``, default) every input fragment still hashes to
   the manifest's recorded per-file sha256 (``ParsedFileStats`` analog,
   ``/root/reference/src/type_map.rs:100-155``) — tamper-evidence for the
   input artifacts themselves. This is the one step that re-reads input
   bytes; pass ``verify_inputs=False`` for a metadata-only audit.

Returns a dict report; raises ``AuditError`` listing every violation when
``strict=True``.
"""

from __future__ import annotations

import glob as globmod
import json
import os
from urllib.parse import unquote

import pyarrow.parquet as pq

from .manifest import counts_sha256, file_sha256, load_completed

__all__ = ["AuditError", "audit_run", "sink_rows_by_route"]


class AuditError(AssertionError):
    pass


def sink_rows_by_route(sink_dir: str) -> dict[str, int]:
    """Parquet footer rows of one partition's sink, by route value (no
    data read). Compaction crash debris is skipped: its recoverable
    backups would otherwise double-count."""
    rows: dict[str, int] = {}
    for f in globmod.glob(os.path.join(sink_dir, "route=*", "*.parquet")):
        route_dir = os.path.basename(os.path.dirname(f))
        if route_dir.endswith((".pre-compact", ".compact.tmp")):
            continue
        route = unquote(route_dir[len("route="):])
        rows[route] = rows.get(route, 0) + pq.read_metadata(f).num_rows
    return rows


def audit_run(run_dir: str, strict: bool = True, verify_inputs: bool = True) -> dict:
    problems: list[str] = []
    manifests = load_completed(run_dir)
    if not manifests:
        problems.append("no partition manifests found")

    total_rows = 0
    rollup_sum: dict[tuple, int] = {}
    for pi, m in sorted(manifests.items()):
        partial_path = os.path.join(
            run_dir, "rollup_partials", f"partition={pi}.parquet"
        )
        if not os.path.isfile(partial_path):
            problems.append(f"partition {pi}: partial counts file missing")
            continue
        with pq.ParquetFile(partial_path) as f:
            partial = f.read().to_pylist()
        rows = sum(r["n"] for r in partial)
        if rows != m.rows_routed:
            problems.append(
                f"partition {pi}: partial counts sum {rows} != manifest "
                f"rows_routed {m.rows_routed}"
            )
        digest = counts_sha256([tuple(r.values()) for r in partial])
        if digest != m.counts_sha256:
            problems.append(f"partition {pi}: counts_sha256 mismatch")
        for r in partial:
            key = (r["rule"], r["tool"], r["role"])
            rollup_sum[key] = rollup_sum.get(key, 0) + r["n"]
        sink_dir = os.path.join(run_dir, "sinks", f"partition={pi}")
        sink_rows = sum(sink_rows_by_route(sink_dir).values())
        if sink_rows != m.rows_routed:
            problems.append(
                f"partition {pi}: sink rows {sink_rows} != manifest "
                f"rows_routed {m.rows_routed}"
            )
        if not os.path.isfile(
            os.path.join(run_dir, "_schemas_partials", f"partition={pi}.json")
        ):
            problems.append(f"partition {pi}: schema partial missing")
        if verify_inputs and m.input_sha256:
            # pre-hash-field manifests have an empty dict → skipped
            for path, want in sorted(m.input_sha256.items()):
                if not os.path.isfile(path):
                    problems.append(f"partition {pi}: input missing: {path}")
                elif file_sha256(path) != want:
                    problems.append(
                        f"partition {pi}: input sha256 mismatch: {path}"
                    )
        total_rows += m.rows_routed

    rollup_path = os.path.join(run_dir, "rollup", "agg_counts.parquet")
    if os.path.isfile(rollup_path):
        with pq.ParquetFile(rollup_path) as f:
            rows = f.read().to_pylist()
        rollup = {(r["rule"], r["tool"], r["role"]): r["n"] for r in rows}
        if rollup != rollup_sum:
            problems.append("final rollup != sum of per-partition partials")
    else:
        problems.append("rollup/agg_counts.parquet missing")

    # every sink route has its merged schema sidecar
    sink_routes = {
        os.path.basename(d)
        for d in globmod.glob(os.path.join(run_dir, "sinks", "partition=*", "route=*"))
        if os.path.isdir(d)
        and not d.endswith((".pre-compact", ".compact.tmp"))
    }
    for route_dir in sorted(sink_routes):
        if not os.path.isfile(
            os.path.join(run_dir, "_schemas", route_dir, "_schema.json")
        ):
            problems.append(f"{route_dir}: merged schema sidecar missing")

    run_json = os.path.join(run_dir, "_manifest", "run.json")
    if os.path.isfile(run_json):
        run = json.load(open(run_json))
        if run.get("rows_routed") != total_rows:
            problems.append(
                f"run.json rows_routed {run.get('rows_routed')} != "
                f"manifest sum {total_rows}"
            )
    else:
        problems.append("_manifest/run.json missing")

    report = {
        "run_dir": run_dir,
        "partitions": len(manifests),
        "rows_routed": total_rows,
        "ok": not problems,
        "problems": problems,
    }
    if strict and problems:
        raise AuditError("; ".join(problems))
    return report
