"""Per-partition lineage manifests + resume bookkeeping.

The analog of the reference's two-phase checkpoint: ulp writes a per-job
``mappings.json`` manifest carrying per-file lineage
(``ParsedFileStats``: path, size, sha256, parser —
``/root/reference/src/type_map.rs:100-155``, written at
``src/workerpool.rs:199-228``) which makes its ingest phase re-runnable
from the job uuid alone (``src/workerpool.rs:81-101``).

Here each *partition* (a deterministic group of input fragments) writes one
``_manifest/partition=<i>.json`` record **atomically** (temp file + rename)
only after its sink rows and partial counts are durable; a resumed run
loads the manifest directory and skips completed partitions without
recomputing them — and, unlike the reference's re-ingest (which duplicates
documents via fresh uuids, ``src/elastic.rs:108``), re-running a partition
overwrites the same deterministic output paths.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

__all__ = [
    "PartitionManifest",
    "RunManifest",
    "manifest_dir",
    "counts_sha256",
    "file_sha256",
]


@dataclass
class PartitionManifest:
    """Lineage + metrics for one completed partition (ParsedFileStats
    analog, type_map.rs:100-108)."""

    partition: int
    input_fragments: list[str]
    input_bytes: int
    rows_in: int
    rows_routed: int
    counts_sha256: str
    duration_s: float
    registry_version: str
    # part of the checkpoint fingerprint: a resume with a different parse
    # column must recompute (default keeps pre-field manifests valid for
    # text runs)
    text_col: str = "text"
    # per-input-file content hashes (path → sha256) — the ParsedFileStats
    # sha256 analog (type_map.rs:100-108, populated :111-155): makes each
    # input artifact tamper-evident, not just the rollup digest. Default
    # keeps manifests written before this field loadable (audit skips
    # hash verification for them).
    input_sha256: dict = field(default_factory=dict)
    # run telemetry, read from the fragments' summaries: routed rows per
    # rule, the ``_unmatched`` share of them, and the fragments' summed
    # walls per stage (pipelines.flagship.STAGES). Defaults keep earlier
    # manifests loadable; ``unmatched_frac`` None means not recorded.
    rows_by_rule: dict = field(default_factory=dict)
    unmatched_frac: float | None = None
    stage_s: dict = field(default_factory=dict)
    # the caller's finalize of this partition (fold, footer check, partial
    # writes), a part of ``duration_s``; None: not recorded
    finalize_s: float | None = None

    def write(self, run_dir: str) -> str:
        d = manifest_dir(run_dir)
        os.makedirs(d, exist_ok=True)
        final = os.path.join(d, f"partition={self.partition}.json")
        tmp = final + ".tmp"
        with open(tmp, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)  # atomic on POSIX
        return final


@dataclass
class RunManifest:
    """Run-level rollup (the ``mappings.json`` / ``Files: N`` analog)."""

    run_id: str
    registry_version: str
    n_partitions: int
    completed: int
    rows_in: int
    rows_routed: int
    config: dict = field(default_factory=dict)
    # the call's tail after its last fragment: final rollup, ``_schemas/``
    # and this record (its write excluded); None: not recorded
    tail_s: float | None = None

    def write(self, run_dir: str) -> str:
        final = os.path.join(run_dir, "_manifest", "run.json")
        tmp = final + ".tmp"
        os.makedirs(os.path.dirname(final), exist_ok=True)
        with open(tmp, "w") as f:
            json.dump(asdict(self), f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        return final


def manifest_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "_manifest")


def load_completed(run_dir: str) -> dict[int, PartitionManifest]:
    """Completed-partition map for resume; ignores partial/corrupt files."""
    d = manifest_dir(run_dir)
    out: dict[int, PartitionManifest] = {}
    if not os.path.isdir(d):
        return out
    for name in os.listdir(d):
        if not name.startswith("partition=") or not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(d, name)) as f:
                data = json.load(f)
            m = PartitionManifest(**data)
            out[m.partition] = m
        except (json.JSONDecodeError, TypeError, OSError):
            continue
    return out


def file_sha256(path: str, chunk_bytes: int = 1 << 20) -> str:
    """Streaming sha256 of one file (bounded memory at any file size)."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            b = f.read(chunk_bytes)
            if not b:
                break
            h.update(b)
    return h.hexdigest()


def counts_sha256(rows: list[tuple]) -> str:
    """Deterministic digest of a (key..., n) rollup — lineage checksum.

    Sorts by repr so rows containing None keys (null group values) don't
    raise on comparison."""
    h = hashlib.sha256()
    for row in sorted(rows, key=repr):
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()
