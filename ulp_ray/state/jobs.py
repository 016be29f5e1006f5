"""Run-directory status + safe deletion — the CLI analog of the
reference's job API (``/root/reference/src/api.rs:21-46``: ``GET /job``
lists the job registry, ``DELETE /job/<uuid>`` drops one). Here a "job"
is a run directory on disk, so *status* is a read of its durable
manifests and *clean* is a guarded ``rmtree`` that refuses anything that
doesn't look like a run directory (the reference can't delete the wrong
thing because it holds an in-memory registry; a filesystem CLI needs the
guard instead).

Driver-side only — no Ray session required; both functions read a few
KB of JSON, never the sinks themselves.
"""

from __future__ import annotations

import os
import shutil

from .manifest import load_completed, manifest_dir

# any of these marks a directory as one of OURS; `clean` refuses
# everything else: `_manifest/` (flagship run), `_schemas/` (NDJSON
# ingest out dir), `report.json` (curation out dir)
_RUN_MARKERS = ("_manifest", "_schemas", "report.json")


def is_run_dir(path: str) -> bool:
    return os.path.isdir(path) and any(
        os.path.exists(os.path.join(path, m)) for m in _RUN_MARKERS
    )


def _tree_stats(root: str) -> tuple[int, int]:
    files = bytes_ = 0
    for r, _, fs in os.walk(root):
        for f in fs:
            files += 1
            try:
                bytes_ += os.path.getsize(os.path.join(r, f))
            except OSError:
                pass  # racing writer/cleaner: count what's still there
    return files, bytes_


def run_status(run_dir: str) -> dict:
    """One JSON-able snapshot of a run directory: run-level manifest (if
    the run finished), per-partition progress, and on-disk footprint.
    Works on an UNFINISHED run — that's the point: ``status`` mid-crash
    tells you which partitions a ``resume`` will skip."""
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"no such run directory: {run_dir}")
    if not is_run_dir(run_dir):
        raise ValueError(
            f"not a ulp_ray run directory (no {'/'.join(_RUN_MARKERS)}): {run_dir}"
        )

    import json

    run_json = os.path.join(manifest_dir(run_dir), "run.json")
    run_manifest = None
    if os.path.isfile(run_json):
        with open(run_json) as f:
            run_manifest = json.load(f)
    # a curation out dir has no partition manifests; its report IS the
    # run-level record
    curation_report = None
    report_json = os.path.join(run_dir, "report.json")
    if os.path.isfile(report_json):
        with open(report_json) as f:
            curation_report = json.load(f)

    parts = load_completed(run_dir)
    partitions = [
        {
            "partition": i,
            "rows_in": m.rows_in,
            "rows_routed": m.rows_routed,
            "input_fragments": len(m.input_fragments),
            "duration_s": m.duration_s,
            "finalize_s": m.finalize_s,
            "stage_s": m.stage_s,
            "rows_by_rule": m.rows_by_rule,
            "unmatched_frac": m.unmatched_frac,
        }
        for i, m in sorted(parts.items())
    ]
    files, size = _tree_stats(run_dir)
    return {
        "run_dir": os.path.abspath(run_dir),
        # finished = the final rollup was written (run.json is the last
        # durable step of run_pipeline; report.json plays that role for
        # a curation out dir)
        "finished": run_manifest is not None or curation_report is not None,
        "run": run_manifest,
        "curation_report": curation_report,
        "partitions_completed": len(partitions),
        "rows_routed": sum(p["rows_routed"] for p in partitions),
        "partitions": partitions,
        "disk_files": files,
        "disk_bytes": size,
    }


def clean_run(run_dir: str, force: bool = False) -> dict:
    """Delete a run directory — the ``DELETE /job`` analog. Refuses any
    directory without a run marker unless ``force=True``, so a mistyped
    ``--out`` can't take a data directory with it."""
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"no such run directory: {run_dir}")
    if not force and not is_run_dir(run_dir):
        raise ValueError(
            f"refusing to delete {run_dir}: not a ulp_ray run directory "
            f"(no {'/'.join(_RUN_MARKERS)} marker; pass force to override)"
        )
    files, size = _tree_stats(run_dir)
    shutil.rmtree(run_dir)
    return {
        "run_dir": os.path.abspath(run_dir),
        "deleted": True,
        "disk_files": files,
        "disk_bytes": size,
    }
