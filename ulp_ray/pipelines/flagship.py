"""Flagship pipeline: parse → enrich → route → aggregate, with lineage and
resume-from-checkpoint, and its sink-free twin ``run_streaming_counts``.

Ray-Data lifecycle (SURVEY.md §3.4), replacing the reference's
orchestrator/worker-thread design (``/root/reference/src/workerpool.rs``):
as in ulp, all of one input file's work runs in one worker
(``ParsedFileStats``, ``src/type_map.rs:111-155``). Each entry point is
ONE Ray Data execution of per-file tasks sharing ``_FileTask.enriched``:

    run_pipeline:  from_items([{path, partition, k}])  →  map_batches(fragment):
        ParquetFile.iter_batches → pre_fn → parse → enrich   # streamed
        → write_dataset(sinks/partition=i/route=r/part-<k>-<n>.parquet)
        → file_sha256 ⇒ one summary row (rows_in, counts by rule, tool,
          role and route, a TypeNode of each route's first 16 rows, sha)
    caller, as soon as partition i's last fragment reports:
        sink footer rows == streamed rows per route       # write check
        rollup_partials/ → _schemas_partials/ → _manifest/partition=i.json
    after the stream: rollup/, _schemas/, _manifest/run.json

    run_streaming_counts:  from_items([{path}])  →  map_batches(counts):
        ParquetFile.iter_batches → parse → enrich ⇒ (rule, tool, role, n)
    caller: one group_by sum over the per-file partials

The input fragment list is split into ``partitions`` deterministic groups
(the checkpoint/resume granularity — the analog of ulp's per-job two-phase
boundary, ``src/workerpool.rs:81-101``). All pending groups run as ONE
streaming execution, so Ray's fixed cost per execution is paid once per
call, and each group is checkpointed as soon as its own fragments are done.

Scale notes (100 TB / multi-node):
- fragment tasks are embarrassingly parallel — no barrier, no shuffle;
- the only all-to-all is the final Sum over the per-partition partials;
- partition groups bound the blast radius of a failure: a failed fragment
  leaves only its group unfinished, a re-run recomputes only incomplete
  groups, and outputs are deterministic overwrite-in-place (fixes the
  reference's duplicate-on-reingest flaw, ``src/elastic.rs:108``).
"""

from __future__ import annotations

import contextlib
import glob as globmod
import itertools
import json
import os
import shutil
import time
import traceback
import uuid
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .._env import remote_env
from ..functions.schema_merge import infer_table_node, merge_types
from ..rules import RuleRegistry, default_transcript_registry
from ..stages.aggregate import _dump_node, _load_node, partial_counts_fn
from ..stages.enrich import Enricher, put_taxonomy
from ..stages.parse import make_parse_fn
from ..state.audit import sink_rows_by_route
from ..state.manifest import (
    PartitionManifest,
    RunManifest,
    counts_sha256,
    file_sha256,
    load_completed,
)

__all__ = ["PipelineResult", "run_pipeline", "run_streaming_counts"]

AGG_KEYS = ["rule", "tool", "role"]
SCHEMA_SAMPLE_ROWS = 16  # rows per route per fragment fed to the schema lattice
_ERRORS_DIR = "_fragment_errors"  # the last call's fragment failures, retried too
_COUNTS_SCHEMA = pa.schema([*((k, pa.string()) for k in AGG_KEYS), ("n", pa.int64())])


@dataclass
class PipelineResult:
    run_dir: str
    rows_in: int
    rows_routed: int
    counts: "pa.Table"
    partitions_run: int
    partitions_skipped: int
    manifests: list[PartitionManifest] = field(default_factory=list)


def _expand_inputs(inputs: str | list[str]) -> list[str]:
    if isinstance(inputs, str):
        if os.path.isdir(inputs):
            files = sorted(globmod.glob(os.path.join(inputs, "*.parquet")))
        else:
            files = sorted(globmod.glob(inputs))
    else:
        files = sorted(inputs)
    if not files:
        raise FileNotFoundError(f"no parquet inputs under {inputs!r}")
    return files


def run_pipeline(
    inputs: str | list[str],
    out_dir: str,
    registry: RuleRegistry | None = None,
    taxonomy: dict | None = None,
    partitions: int = 8,
    resume: bool = True,
    batch_size: int | None = None,
    enrich_compute: str = "tasks",
    enrich_concurrency: tuple[int, int] | int | None = None,
    text_col: str = "text",
    pre_fn=None,
    hash_inputs: bool = True,
    sink_max_retries: int | None = None,
    sink_retry_exceptions: bool | list | None = None,
) -> PipelineResult:
    """Run (or resume) the flagship pipeline over Parquet transcript files.

    ``hash_inputs`` records each input file's sha256 in its partition
    manifest (the reference's per-file ``ParsedFileStats`` lineage,
    ``type_map.rs:100-155``), so ``audit_run`` detects a tampered input,
    not just a tampered output; the fragment task hashes its own file.
    ``batch_size`` bounds the rows a fragment task holds at a time
    (default 65,536). ``enrich_compute="actors"`` runs the fragment worker
    as a pool of ``enrich_concurrency`` actors (default: 1 to the
    cluster's CPUs). A manifest's ``duration_s`` is the sum of its
    partition's fragment-task walls plus its finalize in the caller.

    ``text_col`` selects the column the rule registry parses (part of the
    checkpoint fingerprint). ``pre_fn`` (optional pyarrow Table → Table)
    runs right after the read, e.g. to derive the ``role``/``tool``
    columns enrich expects; it is NOT fingerprinted, so changing it
    between runs of one out_dir needs ``resume=False``.

    ``sink_max_retries`` / ``sink_retry_exceptions`` are Ray's retry
    policy for the fragment tasks (a bounded analog of the reference's ES
    bulk-rejection retry loop, ``src/elastic.rs:124-151``): pass
    ``sink_retry_exceptions=True`` (or exception types) to retry
    application errors too, not just worker deaths. Retrying is safe
    because sink names are deterministic and overwritten; actors keep
    Ray's actor-restart defaults instead. A POISONED input exhausts its
    retries and fails only its own fragment: the other partitions still
    complete, then the call raises one error naming each failed fragment
    and its recorded exception (``out_dir/_fragment_errors/``); the rerun
    after the fix recomputes only the failed partitions.

    ``out_dir`` layout is the durable contract (SURVEY.md §7.5)::

        out_dir/
          sinks/partition=<i>/route=<route>/part-<k>-<n>.parquet  (k: file in group)
          rollup_partials/partition=<i>.parquet
          rollup/agg_counts.parquet
          _manifest/partition=<i>.json , _manifest/run.json
          _schemas_partials/partition=<i>.json  (per-route TypeNode partials)
          _schemas/route=<r>/_schema.json       (per-route merged dynamic schema)
          _schemas/global.json                  (all-route merged schema)
    """
    registry = registry or default_transcript_registry()
    files = _expand_inputs(inputs)

    def _outputs_exist(i: int, m) -> bool:
        # a manifest is only trustworthy if the durable outputs it
        # describes still exist (partials feed the final rollup; a
        # deleted sink dir is legal only for a zero-row partition)
        partial_ok = os.path.isfile(
            os.path.join(out_dir, "rollup_partials", f"partition={i}.parquet")
        )
        schema_ok = os.path.isfile(
            os.path.join(out_dir, "_schemas_partials", f"partition={i}.json")
        )
        sink_ok = m.rows_routed == 0 or os.path.isdir(
            os.path.join(out_dir, "sinks", f"partition={i}")
        )
        return partial_ok and schema_ok and sink_ok

    # a checkpoint is valid if the registry/text_col are unchanged, its
    # durable outputs exist, and its input fragment set is still a
    # subset of the current inputs. Append-aware resume: valid
    # partitions keep their EXACT file groups (indices preserved), and
    # only uncovered files stripe into fresh partition indices — so
    # appending new input files to a finished run recomputes nothing
    # (the incremental-ingest shape a standing 100 TB pipeline needs;
    # the reference instead duplicates docs on re-ingest,
    # src/elastic.rs:108).
    completed_raw = load_completed(out_dir) if resume else {}
    file_set = set(files)
    valid = {
        i: m
        for i, m in completed_raw.items()
        if m.registry_version == registry.version
        and m.text_col == text_col
        and set(m.input_fragments) <= file_set
        and _outputs_exist(i, m)
    }
    # disjointness guard: no file may be claimed by two manifests (a
    # crashed run that changed `partitions` mid-way could overlap) —
    # keep the lowest-index claimant, recompute the rest
    claimed: set[str] = set()
    completed: dict[int, PartitionManifest] = {}
    for i in sorted(valid):
        frags = set(valid[i].input_fragments)
        if frags & claimed:
            continue
        claimed |= frags
        completed[i] = valid[i]
    new_files = [f for f in files if f not in claimed]
    groups: dict[int, list[str]]
    if completed:
        groups = {i: list(m.input_fragments) for i, m in completed.items()}
        if new_files:
            # size new partitions to the run's existing granularity
            # (files per completed partition), capped by `partitions`
            # per increment — appended files get the same checkpoint
            # grain as the original run
            sizes = [len(g) for g in groups.values()]
            target = max(1, round(sum(sizes) / len(sizes)))
            n_new = max(1, min(partitions, -(-len(new_files) // target)))
            next_i = max(completed) + 1
            for j in range(n_new):
                groups[next_i + j] = new_files[j::n_new]
    else:
        n = max(1, min(partitions, len(files)))
        groups = {i: files[i::n] for i in range(n)}
    # every partition outside the valid checkpoints starts from nothing
    # (pending ones are rewritten in place: deterministic overwrite)
    _prune_stale_outputs(out_dir, set(completed))

    pending = {pi: g for pi, g in groups.items() if pi not in completed}
    done = dict(completed)
    shutil.rmtree(os.path.join(out_dir, _ERRORS_DIR), ignore_errors=True)
    if pending:
        items = [
            {"path": path, "partition": pi, "k": k}
            for pi, group in sorted(pending.items())
            for k, path in enumerate(group)
        ]
        ref = put_taxonomy(taxonomy)
        args = (ref, out_dir, registry, text_col, pre_fn, batch_size, hash_inputs)
        ds = _map_files(
            items, _Fragment, args, enrich_compute, enrich_concurrency,
            max_retries=sink_max_retries, retry_exceptions=sink_retry_exceptions,
        )
        # a failed fragment must not abort the others; it is reported after
        # the stream (this dataset's context only, not the global one)
        ds.context.max_errored_blocks = -1
        reports: dict[int, list[dict]] = {pi: [] for pi in pending}
        # prefetch_batches=0: a summary is handled as soon as its task ends
        for batch in ds.iter_batches(
            batch_size=None, batch_format="pyarrow", prefetch_batches=0
        ):
            for rep in map(json.loads, batch["summary"].to_pylist()):
                pi = rep["partition"]
                reports[pi].append(rep)
                if len(reports[pi]) == len(pending[pi]):
                    done[pi] = _finalize_partition(
                        out_dir, pi, pending[pi], reports[pi], registry, text_col
                    )
        failed = [
            f"{path}: {_error_text(_error_file(out_dir, pi, k))}"
            for pi, group in sorted(pending.items())
            for k, path in enumerate(group)
            if k not in {rep["k"] for rep in reports[pi]}
        ]
        if failed:
            raise RuntimeError(
                f"{len(failed)} input fragment(s) failed; their partitions were "
                "not checkpointed:\n" + "\n".join(failed)
            )
    manifests = [m for _, m in sorted(done.items())]

    # final rollup: sum the per-partition partials (tiny)
    partial_files = sorted(
        globmod.glob(os.path.join(out_dir, "rollup_partials", "*.parquet"))
    )
    final = _fold_counts([pq.read_table(f) for f in partial_files])
    rollup_dir = os.path.join(out_dir, "rollup")
    os.makedirs(rollup_dir, exist_ok=True)
    pq.write_table(final, os.path.join(rollup_dir, "agg_counts.parquet"))

    # per-route dynamic schema sidecars (ES-mapping analog): merge every
    # partition's (route → TypeNode) partial with the widening lattice and
    # render one _schema.json per route — each sidecar reflects THAT
    # route's captures (absent captures stay Null-typed). Routes are the
    # sanitized route VALUES (rule "_unmatched" lands in "route=unmatched")
    _write_merged_schemas(out_dir)

    rows_in_total = sum(m.rows_in for m in manifests)
    rows_routed_total = sum(m.rows_routed for m in manifests)
    RunManifest(
        run_id=os.path.basename(out_dir.rstrip("/")) or uuid.uuid4().hex[:8],
        registry_version=registry.version,
        n_partitions=len(groups),
        completed=len(manifests),
        rows_in=rows_in_total,
        rows_routed=rows_routed_total,
        config={"batch_size": batch_size, "files": len(files)},
    ).write(out_dir)

    return PipelineResult(
        run_dir=out_dir,
        rows_in=rows_in_total,
        rows_routed=rows_routed_total,
        counts=final,
        partitions_run=len(pending),
        partitions_skipped=len(completed),
        manifests=manifests,
    )


def _map_files(items, cls, args, enrich_compute, enrich_concurrency, **task_args):
    """The (unexecuted) dataset of ``cls(*args)`` over ``items``, one task
    per row, i.e. per input file; ``task_args`` not None are the stateless
    tasks' Ray options (see ``run_pipeline`` for the actor pool)."""
    import ray

    ds = ray.data.from_items(items, override_num_blocks=len(items))
    if enrich_compute == "actors":
        cpus = int(ray.cluster_resources().get("CPU", 1))
        pool = enrich_concurrency or (1, cpus)
        stage = dict(fn=cls, fn_constructor_args=args, concurrency=pool)
    else:  # stateless tasks: one instance's bound method, a plain callable
        stage = dict(fn=cls(*args).__call__)
        stage.update((k, v) for k, v in task_args.items() if v is not None)
    return ds.map_batches(
        **stage, batch_format="pyarrow", batch_size=None, **remote_env()
    )


class _FileTask:
    """One input file streamed through ``pre_fn`` → parse → enrich, holding
    at most ``batch_size`` rows (default 65,536) at a time — the loop both
    entry points' per-file tasks share."""

    def __init__(
        self, taxonomy_ref, registry, batch_size, text_col="text", pre_fn=None
    ):
        self.enrich = Enricher(taxonomy_ref=taxonomy_ref)
        self.parse = make_parse_fn(registry, text_col=text_col)
        self.pre_fn = pre_fn
        self.batch_rows = batch_size or 1 << 16  # pyarrow's default

    def enriched(self, pf: pq.ParquetFile):
        for rb in pf.iter_batches(batch_size=self.batch_rows):
            tbl = pa.Table.from_batches([rb])
            if self.pre_fn is not None:
                tbl = self.pre_fn(tbl)
            if tbl.num_rows:
                yield self.enrich(self.parse(tbl))


class _Counts(_FileTask):
    """The counts task of ``run_streaming_counts``: one ``{path}`` row →
    that file's partial ``(rule, tool, role, n)`` table. Errors propagate:
    Ray's error for the task shows its block (the path) and the cause."""

    partial = staticmethod(partial_counts_fn(AGG_KEYS))

    def __call__(self, items: pa.Table) -> pa.Table:
        return _fold_counts([
            self.partial(tbl)
            for path in items["path"].to_pylist()
            for tbl in self.enriched(pq.ParquetFile(path))
        ])


class _Fragment(_FileTask):
    """The fragment task: one JSON summary row per ``{path, partition, k}``
    row (see the module docstring). The actor pool's class under
    ``enrich_compute="actors"``; else one instance goes to every task. A
    failure is recorded under ``out_dir/_fragment_errors/`` (overwritten
    on each attempt), then re-raised for Ray's retry policy."""

    def __init__(
        self, taxonomy_ref, out_dir, registry, text_col, pre_fn, batch_size, hash_inputs
    ):
        super().__init__(taxonomy_ref, registry, batch_size, text_col, pre_fn)
        self.out_dir, self.hash_inputs = out_dir, hash_inputs

    def __call__(self, items: pa.Table) -> pa.Table:
        return pa.table({"summary": [self.run(**it) for it in items.to_pylist()]})

    def run(self, path: str, partition: int, k: int) -> str:
        t0 = time.perf_counter()
        counts: dict[tuple, int] = {}  # (rule, tool, role, route) → rows
        samples: dict[str, list[pa.Table]] = {}  # route → its first rows

        def routed():
            for tbl in self.enriched(pf):
                keys = [*AGG_KEYS, "route"]
                g = tbl.group_by(keys).aggregate([([], "count_all")])
                for *key, n in zip(*(g[c].to_pylist() for c in [*keys, "count_all"])):
                    counts[tuple(key)] = counts.get(tuple(key), 0) + n
                # each route once per batch: its next rows, in input order
                for route in pc.unique(g["route"]).to_pylist():
                    parts = samples.setdefault(route, [])
                    need = SCHEMA_SAMPLE_ROWS - sum(map(len, parts))
                    if need > 0:
                        idx = pc.indices_nonzero(pc.equal(tbl["route"], route))
                        # the sink file's columns: the route is its directory
                        parts.append(tbl.take(idx[:need]).drop_columns(["route"]))
                yield from tbl.to_batches()

        try:
            pf = pq.ParquetFile(path)
            batches = routed()
            first = next(batches, None)
            if first is not None:  # a file with no rows writes no sink
                # Ray's ParquetDatasink call; names fixed by k for re-runs
                pads.write_dataset(
                    itertools.chain([first], batches),
                    os.path.join(self.out_dir, "sinks", f"partition={partition}"),
                    schema=first.schema,
                    format="parquet",
                    partitioning=["route"],
                    partitioning_flavor="hive",
                    basename_template=f"part-{k:06d}-{{i}}.parquet",
                    existing_data_behavior="overwrite_or_ignore",
                    # one thread keeps rows in input order: re-runs are
                    # byte-identical and a file starts with its sample
                    use_threads=False,
                )
            sha = file_sha256(path) if self.hash_inputs else None
            schemas = {
                r: _dump_node(infer_table_node(pa.concat_tables(parts)))
                for r, parts in samples.items()
            }
        except Exception:
            with contextlib.suppress(OSError):
                err = _error_file(self.out_dir, partition, k)
                os.makedirs(os.path.dirname(err), exist_ok=True)
                Path(err).write_text(traceback.format_exc())
            raise
        return json.dumps({
            "partition": partition,
            "k": k,
            "rows_in": pf.metadata.num_rows,
            "sha256": sha,
            "counts": [[*key, n] for key, n in counts.items()],
            "schemas": schemas,
            "wall_s": time.perf_counter() - t0,
        })


def _error_file(out_dir: str, pi: int, k: int) -> str:
    return os.path.join(out_dir, _ERRORS_DIR, f"partition={pi}-fragment={k}.txt")


def _error_text(path: str) -> str:
    if os.path.isfile(path):
        return Path(path).read_text().strip()
    return "no error recorded (worker lost?)"


def _check_sink_footers(sink_dir: str, per_route_rows: dict[str, int]) -> None:
    """Raise unless the Parquet footers under ``sink_dir`` hold exactly
    ``per_route_rows`` (route value → rows) — the write verification that
    lets a partition's counts come from the stream, not a sink read-back."""
    on_disk = sink_rows_by_route(sink_dir)
    if on_disk != per_route_rows:
        raise RuntimeError(
            f"{sink_dir}: sink footer rows {on_disk} != streamed rows {per_route_rows}"
        )


def _finalize_partition(out_dir, pi, group, reports, registry, text_col):
    """Fold one partition's fragment summaries, check its sink footers,
    then write its partial counts, schema partial and manifest, each
    atomically and in that order (the manifest marks completion)."""
    t0 = time.perf_counter()
    counts: dict[tuple, int] = {}
    route_rows: dict[str, int] = {}
    nodes: dict[str, list] = {}
    for rep in sorted(reports, key=lambda r: r["k"]):
        for *key, route, n in rep["counts"]:
            counts[tuple(key)] = counts.get(tuple(key), 0) + n
            route_rows[route] = route_rows.get(route, 0) + n
        for r, node_json in rep["schemas"].items():
            nodes.setdefault(r, []).append(_load_node(node_json))
    _check_sink_footers(os.path.join(out_dir, "sinks", f"partition={pi}"), route_rows)

    cols = {c: [key[j] for key in counts] for j, c in enumerate(AGG_KEYS)}
    counts_tbl = pa.table({**cols, "n": list(counts.values())}).cast(_COUNTS_SCHEMA)
    counts_tbl = counts_tbl.sort_by([(c, "ascending") for c in AGG_KEYS])
    _write_atomic(
        os.path.join(out_dir, "rollup_partials", f"partition={pi}.parquet"),
        lambda tmp: pq.write_table(counts_tbl, tmp),
    )
    # per-route dynamic-schema partial (index_pattern_mappings analog,
    # type_map.rs:160-172), merged across partitions at the end via the
    # §P3 lattice
    schemas = {r: _dump_node(reduce(merge_types, ns)) for r, ns in nodes.items()}
    _write_atomic(
        os.path.join(out_dir, "_schemas_partials", f"partition={pi}.json"),
        lambda tmp: Path(tmp).write_text(json.dumps(schemas, indent=1, sort_keys=True)),
    )
    m = PartitionManifest(
        partition=pi,
        input_fragments=group,
        input_bytes=sum(os.path.getsize(f) for f in group),
        rows_in=sum(rep["rows_in"] for rep in reports),
        rows_routed=sum(counts.values()),
        counts_sha256=counts_sha256(
            [tuple(r.values()) for r in counts_tbl.to_pylist()]
        ),
        duration_s=round(
            sum(rep["wall_s"] for rep in reports) + time.perf_counter() - t0, 3
        ),
        registry_version=registry.version,
        text_col=text_col,
        input_sha256={
            group[rep["k"]]: rep["sha256"] for rep in reports if rep["sha256"]
        },
    )
    m.write(out_dir)
    return m


def run_streaming_counts(
    inputs: str | list[str],
    registry: RuleRegistry | None = None,
    taxonomy: dict | None = None,
    batch_size: int | None = None,
    enrich_compute: str = "tasks",
    enrich_concurrency: tuple[int, int] | int | None = None,
) -> pa.Table:
    """Single-pass streaming job: read → parse → enrich → (rule, tool,
    role) counts as one execution of per-file tasks (module docstring), no
    sinks or checkpoints — the parse-throughput path of ``bench.py
    --scaling``. Returns the table ``run_pipeline`` returns in ``.counts``;
    the other arguments mean what they mean there. A bad input fails the
    call, naming the file: counts of part of the input would be wrong."""
    registry = registry or default_transcript_registry()
    items = [{"path": path} for path in _expand_inputs(inputs)]
    args = (put_taxonomy(taxonomy), registry, batch_size)
    ds = _map_files(items, _Counts, args, enrich_compute, enrich_concurrency)
    parts = ds.iter_batches(batch_size=None, batch_format="pyarrow", prefetch_batches=0)
    return _fold_counts(list(parts))


def _fold_counts(parts: list[pa.Table]) -> pa.Table:
    """Sum partial ``(rule, tool, role, n)`` tables into one row per key,
    sorted by key."""
    parts = [_COUNTS_SCHEMA.empty_table(), *(p.cast(_COUNTS_SCHEMA) for p in parts)]
    g = pa.concat_tables(parts).group_by(AGG_KEYS).aggregate([("n", "sum")])
    return pa.table({**{k: g[k] for k in AGG_KEYS}, "n": g["n_sum"]}).sort_by(
        [(k, "ascending") for k in AGG_KEYS]
    )


def _prune_stale_outputs(out_dir: str, keep: set[int]) -> None:
    """Remove partials/sinks/manifests whose partition index is not in
    ``keep`` — a previous run with a different partitioning would
    otherwise leak stale partials into the final rollup
    (double-counting)."""
    import re as _re

    for sub, pat in (
        ("rollup_partials", r"partition=(\d+)\.parquet$"),
        ("_manifest", r"partition=(\d+)\.json$"),
        ("_schemas_partials", r"partition=(\d+)\.json$"),
        ("sinks", r"partition=(\d+)$"),
    ):
        d = os.path.join(out_dir, sub)
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            m = _re.match(pat, name)
            if m and int(m.group(1)) not in keep:
                path = os.path.join(d, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)


def _write_atomic(path: str, write) -> None:
    """``write(tmp)``, fsync, rename: a torn file never appears under
    ``path`` (it would fail the next run's read instead of recomputing)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write(path + ".tmp")
    with open(path + ".tmp", "rb") as f:
        os.fsync(f.fileno())
    os.replace(path + ".tmp", path)


def _write_merged_schemas(out_dir: str) -> None:
    """Fold all partitions' (route → TypeNode) partials and write the
    per-route + global ``_schema.json`` sidecars."""
    from ..functions.schema_merge import arrow_schema_to_json, type_node_to_arrow

    merged: dict = {}
    for f in sorted(
        globmod.glob(os.path.join(out_dir, "_schemas_partials", "partition=*.json"))
    ):
        with open(f) as fh:
            partial = json.load(fh)
        for route, node_json in partial.items():
            node = _load_node(node_json)
            merged[route] = merge_types(merged[route], node) if route in merged else node
    if not merged:
        return
    # _schemas is derived data, rebuilt wholesale from the partials — a
    # re-run whose route set shrank must not leave stale route sidecars
    schema_dir = os.path.join(out_dir, "_schemas")
    shutil.rmtree(schema_dir, ignore_errors=True)
    global_node = None
    for route, node in sorted(merged.items()):
        struct = type_node_to_arrow(node)
        schema = pa.schema(list(struct))
        d = os.path.join(schema_dir, f"route={route}")
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "_schema.json"), "w") as fh:
            fh.write(arrow_schema_to_json(schema))
        global_node = node if global_node is None else merge_types(global_node, node)
    with open(os.path.join(schema_dir, "global.json"), "w") as fh:
        fh.write(arrow_schema_to_json(pa.schema(list(type_node_to_arrow(global_node)))))
