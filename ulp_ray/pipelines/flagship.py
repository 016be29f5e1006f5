"""Flagship pipeline: parse → enrich → route → aggregate, with lineage and
resume-from-checkpoint, and its sink-free twin ``run_streaming_counts``.

Per-file fan-out (SURVEY.md §3.4), the shape of the reference's worker
pool (ulp ``src/workerpool.rs``): all of one input file's work runs in one
worker, which returns one small record (``ParsedFileStats``,
``src/type_map.rs:111-155``). Both entry points hand ``_run_files`` one
Ray call per file and take each result as soon as its call ends; no data
moves between calls, so no Ray Data execution is involved:

    run_pipeline:  _Fragment.run(path, partition, k) per file:
        ParquetFile.iter_batches → pre_fn → parse → enrich   # streamed
        → write_dataset(sinks/partition=i/route=r/part-<k>-<n>.parquet)
        → file_sha256 ⇒ one summary dict (rows_in, counts by rule, tool,
          role and route, a TypeNode of each route's first 16 rows, sha)
    caller, as soon as partition i's last fragment reports:
        sink footer rows == streamed rows per route       # write check
        rollup_partials/ → _schemas_partials/ → _manifest/partition=i.json
    after the last call: rollup/, _schemas/, _manifest/run.json, built from
        the partials the caller holds (only a resume's kept partitions are
        read back from disk)

    run_streaming_counts:  _Counts.run(path) per file:
        ParquetFile(read_dictionary=[role, tool]).iter_batches(text, role, tool)
        → CompiledRegistry.classify(text) ⇒ int32 rule ids
          (RE2 match per rule: no capture extract, route or enrich)
        → np.bincount over (rule id, tool code, role code), null a code
          of its own ⇒ only the keys found, as (rule, tool, role, n)
    caller: one group_by sum over the per-file partials

Each Ray remote (the fragment and counts tasks, the actor class) is made
once per process by ``_env.remote`` and exported once per Ray session, so
a call pays no function pickle or export; its retry options and worker
env are applied per call.

The input files are split into ``partitions`` deterministic groups (the
checkpoint/resume granularity — the analog of ulp's per-job two-phase
boundary, ``src/workerpool.rs:81-101``), whose calls share one window;
each group is checkpointed as soon as its own fragments are done.

At scale, fragment calls are embarrassingly parallel (the only
all-to-all is the final Sum over per-partition partials), a failed
fragment leaves only its group for the re-run to recompute, and outputs
overwrite in place (ulp duplicates on re-ingest, ``src/elastic.rs:108``).
"""

from __future__ import annotations

import contextlib
import glob as globmod
import itertools
import json
import math
import os
import re
import shutil
import time
import traceback
import uuid
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .._env import remote
from ..functions.schema_merge import infer_table_node, merge_types
from ..rules import UNMATCHED, RuleRegistry, default_transcript_registry
from ..stages.aggregate import _dump_node, _load_node
from ..stages.enrich import DEFAULT_TAXONOMY, Enricher
from ..stages.parse import _compiled, make_parse_fn
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
# fragment walls: its read → parse → enrich loop, the rest of its write, its hash
STAGES = ("read_parse_enrich", "write", "sha256")
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
    files = inputs
    if isinstance(inputs, str):
        pattern = os.path.join(inputs, "*.parquet") if os.path.isdir(inputs) else inputs
        files = globmod.glob(pattern)
    files = sorted(files)
    if not files:
        raise FileNotFoundError(f"no parquet inputs under {inputs!r}")
    # a file listed twice would be read and counted twice
    dups = sorted(f for f, n in Counter(map(os.path.realpath, files)).items() if n > 1)
    if dups:
        raise ValueError(f"input files listed more than once: {dups}")
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
    (default 65,536). ``enrich_compute="actors"`` runs the fragment calls
    on a pool of ``enrich_concurrency`` actors (see ``_run_files``). A
    manifest's ``duration_s`` is the sum of its partition's fragment
    walls plus its finalize in the caller, ``finalize_s`` that finalize
    alone, ``stage_s`` the fragment walls per ``STAGES``; ``rows_by_rule``
    and ``unmatched_frac`` tell what matched. ``run.json``'s ``tail_s`` is
    the call's work after its last fragment: the final rollup, the
    ``_schemas/`` rebuild and ``run.json`` itself (its write excluded).

    ``text_col`` selects the column the rule registry parses (part of the
    checkpoint fingerprint). ``pre_fn`` (optional pyarrow Table → Table)
    runs right after the read, e.g. to derive the ``role``/``tool``
    columns enrich expects; it is NOT fingerprinted, so changing it
    between runs of one out_dir needs ``resume=False``.

    ``sink_max_retries`` / ``sink_retry_exceptions`` are Ray's retry
    policy for the fragment calls (a bounded analog of the reference's ES
    bulk-rejection retry loop, ``src/elastic.rs:124-151``): pass
    ``sink_retry_exceptions=True`` (or exception types) to retry
    application errors too, not just worker deaths. Retrying is safe
    because sink names are deterministic and overwritten. A POISONED input
    exhausts its retries and fails only its own fragment: the other
    partitions still complete, then the call raises one error naming
    each failed fragment and its exception (its traceback is kept in
    ``out_dir/_fragment_errors/``); the rerun after the fix recomputes
    only the failed partitions.

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
        part = f"partition={i}"
        return (
            os.path.isfile(f"{out_dir}/rollup_partials/{part}.parquet")
            and os.path.isfile(f"{out_dir}/_schemas_partials/{part}.json")
            and (m.rows_routed == 0 or os.path.isdir(f"{out_dir}/sinks/{part}"))
        )

    # a checkpoint is valid if the registry/text_col are unchanged, its
    # durable outputs exist, and its input files are still inputs.
    # Append-aware resume: valid partitions keep their EXACT file groups
    # (indices preserved), and only uncovered files stripe into fresh
    # partition indices — so appending input files to a finished run
    # recomputes nothing (the incremental ingest a standing pipeline needs).
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
    held: dict[int, tuple] = {}  # partition → (its counts, route → TypeNode)
    shutil.rmtree(os.path.join(out_dir, _ERRORS_DIR), ignore_errors=True)
    if pending:
        items = [
            {"path": path, "partition": pi, "k": k}
            for pi, group in sorted(pending.items())
            for k, path in enumerate(group)
        ]
        args = (taxonomy, out_dir, registry, text_col, pre_fn, batch_size, hash_inputs)
        reports: dict[int, list[dict]] = {pi: [] for pi in pending}
        failed = []  # a failed fragment does not stop the others
        for item, rep in _run_files(
            items, _Fragment, args, enrich_compute, enrich_concurrency,
            max_retries=sink_max_retries, retry_exceptions=sink_retry_exceptions,
        ):
            if isinstance(rep, Exception):
                failed.append(f"{item['path']}: {rep}")
                continue
            pi = rep["partition"]
            reports[pi].append(rep)
            if len(reports[pi]) == len(pending[pi]):
                done[pi], held[pi] = _finalize_partition(
                    out_dir, pi, pending[pi], reports[pi], registry, text_col
                )
        if failed:
            raise RuntimeError(
                f"{len(failed)} input fragment(s) failed; their partitions were "
                "not checkpointed:\n" + "\n".join(sorted(failed))
            )
    manifests = [m for _, m in sorted(done.items())]

    # final rollup: sum the per-partition partials (tiny), in the order of
    # their file names; only the partitions a resume kept are read back
    t_tail = time.perf_counter()
    partials = [
        held[pi] if pi in held else _read_partials(out_dir, pi)
        for pi in sorted(done, key=lambda pi: f"partition={pi}")
    ]
    final = _fold_counts([counts for counts, _ in partials])
    os.makedirs(os.path.join(out_dir, "rollup"), exist_ok=True)
    pq.write_table(final, os.path.join(out_dir, "rollup", "agg_counts.parquet"))

    _write_merged_schemas(out_dir, [nodes for _, nodes in partials])

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
        tail_s=round(time.perf_counter() - t_tail, 3),
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


def _run_files(items, cls, args, enrich_compute, enrich_concurrency, **retry):
    """Yield ``(item, result)`` for each of ``items`` as soon as its call
    ``cls(*args).run(**item)`` ends; ``result`` is the call's return value
    or its exception (which does not name the file: ``item`` does).

    A call is a Ray task on one instance of ``cls``, ``ray.put`` once, or
    under ``enrich_compute="actors"`` a call on the least busy of a pool
    of ``min(enrich_concurrency (max of a pair), CPUs, files)`` actors,
    made anew for each ``_run_files``. The task function and the actor
    class are Ray remotes made once per process (``_env.remote``), so
    only a session's first call exports them. At
    most 2 × CPUs calls are in flight: each CPU has its next file queued,
    and ``ray.wait`` stays O(window). ``retry`` options not None go to
    every call. A dead actor is restarted, and its lost call retried
    ``max_retries`` times (default 3, as a task); the pool is killed when
    the caller is done. Tasks still in flight when the caller stops early
    run to their end (``ray.cancel`` could interrupt a later task on the
    same worker)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 1))
    retry = {k: v for k, v in retry.items() if v is not None}
    load: dict = {}  # pool actor → its calls in flight
    if enrich_compute == "actors":
        n = enrich_concurrency or cpus
        n = min(n[-1] if isinstance(n, tuple) else n, cpus, len(items))
        actor = remote(cls, num_cpus=1, max_restarts=-1)
        load = {actor.remote(*args): 0 for _ in range(n)}
        opts = {"max_task_retries": retry.pop("max_retries", 3), **retry}

        def submit(item):
            a = min(load, key=load.get)
            load[a] += 1
            return a.run.options(**opts).remote(**item), a
    else:
        task = remote(cls.run, **retry)
        inst = ray.put(cls(*args))  # ``run``'s self, shipped once

        def submit(item):
            return task.remote(inst, **item), None

    running: dict = {}  # ObjectRef → (item, its actor or None)
    todo = iter(items)
    try:
        while True:
            for item in itertools.islice(todo, 2 * cpus - len(running)):
                ref, a = submit(item)
                running[ref] = item, a
            if not running:
                return
            [ref], _ = ray.wait(list(running))
            item, a = running.pop(ref)
            if a is not None:
                load[a] -= 1
            try:
                result = ray.get(ref)
            except Exception as err:  # this file's error; the others go on
                result = err
            yield item, result
    finally:
        for a in load:  # frees its CPU now, not when Ray collects the handle
            ray.kill(a)


def _require_columns(pf: pq.ParquetFile, path: str, columns: list[str]) -> None:
    """Raise naming ``path`` and each of ``columns`` it lacks: a projected
    read, or a later stage, would drop or misread them silently."""
    missing = [c for c in columns if c not in pf.schema_arrow.names]
    if missing:
        raise ValueError(f"{path}: no column {', '.join(missing)}")


class _Counts:
    """``run_streaming_counts``' call: one file → its partial counts table.
    Only the text, role and tool columns are read, role and tool as their
    Parquet dictionary codes, at most ``batch_size`` rows (default 65,536)
    at a time; each batch's rows are classified to rule ids and counted
    on codes (``_count_codes``)."""

    def __init__(self, registry, batch_size):
        self.registry = registry
        self.batch_rows = batch_size or 1 << 16  # pyarrow's default

    def run(self, path: str) -> pa.Table:
        compiled = _compiled(self.registry)
        keys = ["text", "role", "tool"]
        pf = pq.ParquetFile(path)
        _require_columns(pf, path, keys)  # before read_dictionary's KeyError
        pf = pq.ParquetFile(path, metadata=pf.metadata, read_dictionary=keys[1:])
        parts = [
            _count_codes(
                compiled.classify(rb.column("text")),
                compiled.rule_names,
                rb.column("tool"),
                rb.column("role"),
            )
            for rb in pf.iter_batches(batch_size=self.batch_rows, columns=keys)
        ]
        return _fold_counts(parts)


def _count_codes(rule_ids: np.ndarray, rule_names: pa.Array, tool, role) -> pa.Table:
    """One batch's ``(rule, tool, role, n)`` counts, one row per key it
    holds, from each row's rule id (an index into ``rule_names``) and its
    tool and role. A key column counts by its dictionary codes (a column
    that is not dictionary-typed is encoded first), a null by a code of
    its own. The three codes combine into one for ``np.bincount`` while
    that code space is at most ``max(rows, 65,536)``; past it,
    ``np.unique`` counts the code triples, so no code can wrap and no
    array is sized by the product of the cardinalities. Only the keys
    found are turned back into values, cast to string as ``_fold_counts``
    casts them."""
    keys = [(rule_ids, rule_names), _key_codes(tool), _key_codes(role)]
    codes = [c for c, _ in keys]
    sizes = [len(values) for _, values in keys]
    if math.prod(sizes) <= max(len(rule_ids), 1 << 16):
        counts = np.bincount(np.ravel_multi_index(codes, sizes))
        found = np.flatnonzero(counts)
        n, codes = counts[found], np.unravel_index(found, sizes)
    else:
        codes, n = np.unique(np.stack(codes), axis=1, return_counts=True)
    cols = {k: values.take(c) for k, c, (_, values) in zip(AGG_KEYS, codes, keys)}
    return pa.table({**cols, "n": pa.array(n, pa.int64())})


def _key_codes(col: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """``col``'s rows as codes into its distinct values cast to string,
    the last of which is the null that a null row's code points at."""
    if not pa.types.is_dictionary(col.type):
        col = col.dictionary_encode()
    values = pa.concat_arrays([col.dictionary.cast(pa.string()), pa.nulls(1, pa.string())])
    codes = pc.fill_null(col.indices.cast(pa.int64()), len(values) - 1)
    return codes.to_numpy(), values


class _Fragment:
    """The fragment call: one input file streamed through ``pre_fn`` →
    parse → enrich, holding at most ``batch_size`` rows (default 65,536)
    at a time, then written and summed up (see the module docstring). A
    failure is recorded under ``out_dir/_fragment_errors/`` (overwritten
    on each attempt), then re-raised for Ray's retry policy."""

    def __init__(
        self, taxonomy, out_dir, registry, text_col, pre_fn, batch_size, hash_inputs
    ):
        self.parse = make_parse_fn(registry, text_col)
        self.enrich = Enricher(taxonomy=taxonomy or DEFAULT_TAXONOMY)
        self.text_col, self.pre_fn = text_col, pre_fn
        self.batch_rows = batch_size or 1 << 16  # pyarrow's default
        self.out_dir, self.hash_inputs = out_dir, hash_inputs

    def enriched(self, pf: pq.ParquetFile, path: str):
        if self.pre_fn is None:  # else pre_fn may derive what the file lacks
            _require_columns(pf, path, [self.text_col, "role", "tool"])
        for rb in pf.iter_batches(batch_size=self.batch_rows):
            tbl = pa.Table.from_batches([rb])
            if self.pre_fn is not None:
                tbl = self.pre_fn(tbl)
            if tbl.num_rows:
                yield self.enrich(self.parse(tbl))

    def run(self, path: str, partition: int, k: int) -> dict:
        t0 = time.perf_counter()
        counts: dict[tuple, int] = {}  # (rule, tool, role, route) → rows
        samples: dict[str, list[pa.Table]] = {}  # route → its first rows
        stage_s = dict.fromkeys(STAGES, 0.0)

        def routed():
            t = time.perf_counter()
            for tbl in self.enriched(pf, path):
                keys = [*AGG_KEYS, "route"]
                g = tbl.group_by(keys).aggregate([([], "count_all")])
                for *key, n in zip(*(g[c].to_pylist() for c in [*keys, "count_all"])):
                    counts[tuple(key)] = counts.get(tuple(key), 0) + n
                _sample_routes(tbl, samples)
                stage_s["read_parse_enrich"] += time.perf_counter() - t
                yield from tbl.to_batches()
                t = time.perf_counter()
            stage_s["read_parse_enrich"] += time.perf_counter() - t

        err = Path(self.out_dir, _ERRORS_DIR, f"partition={partition}-fragment={k}.txt")
        try:
            pf = pq.ParquetFile(path)
            t = time.perf_counter()
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
            t1 = time.perf_counter()
            stage_s["write"] = t1 - t - stage_s["read_parse_enrich"]
            sha = file_sha256(path) if self.hash_inputs else None
            stage_s["sha256"] = time.perf_counter() - t1
            schemas = {
                r: _dump_node(infer_table_node(pa.concat_tables(parts)))
                for r, parts in samples.items()
            }
        except Exception:
            with contextlib.suppress(OSError):
                err.parent.mkdir(parents=True, exist_ok=True)
                err.write_text(traceback.format_exc())
            raise
        return {
            "partition": partition,
            "k": k,
            "rows_in": pf.metadata.num_rows,
            "sha256": sha,
            "counts": [[*key, n] for key, n in counts.items()],
            "schemas": schemas,
            "stage_s": stage_s,
            "wall_s": time.perf_counter() - t0,
        }


def _sample_routes(tbl: pa.Table, samples: dict[str, list[pa.Table]]) -> None:
    """Append to ``samples`` (route → tables) each route's next rows of
    ``tbl`` in input order, up to ``SCHEMA_SAMPLE_ROWS`` per route, as the
    sink file's columns (the route is its directory). One
    ``dictionary_encode`` of the route column finds every route's rows;
    each route is then an integer scan of the codes."""
    enc = tbl["route"].combine_chunks().dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    for j, route in enumerate(enc.dictionary.to_pylist()):
        parts = samples.setdefault(route, [])
        need = SCHEMA_SAMPLE_ROWS - sum(map(len, parts))
        if need > 0:
            rows = np.flatnonzero(codes == j)[:need]
            parts.append(tbl.take(rows).drop_columns(["route"]))


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
    atomically and in that order (the manifest marks completion).

    Returns the manifest and ``(counts, route → TypeNode)``, the partials
    just written, from which ``run_pipeline`` builds ``rollup/`` and
    ``_schemas/`` without reading them back."""
    t_fin = time.perf_counter()
    t0 = t_fin - sum(r["wall_s"] for r in reports)  # + fragment walls
    counts: dict[tuple, int] = {}
    route_rows: dict[str, int] = {}
    rule_rows: dict[str, int] = {}
    nodes: dict[str, list] = {}
    for rep in sorted(reports, key=lambda r: r["k"]):
        for *key, route, n in rep["counts"]:
            counts[tuple(key)] = counts.get(tuple(key), 0) + n
            route_rows[route] = route_rows.get(route, 0) + n
            rule_rows[key[0]] = rule_rows.get(key[0], 0) + n
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
    # type_map.rs:160-172), merged across partitions by the §P3 lattice
    merged = {r: reduce(merge_types, ns) for r, ns in nodes.items()}
    schemas = {r: _dump_node(node) for r, node in merged.items()}
    _write_atomic(
        os.path.join(out_dir, "_schemas_partials", f"partition={pi}.json"),
        lambda tmp: Path(tmp).write_text(json.dumps(schemas, indent=1, sort_keys=True)),
    )
    rows_routed = sum(counts.values())
    m = PartitionManifest(
        partition=pi,
        input_fragments=group,
        input_bytes=sum(os.path.getsize(f) for f in group),
        rows_in=sum(rep["rows_in"] for rep in reports),
        rows_routed=rows_routed,
        counts_sha256=counts_sha256([tuple(r.values()) for r in counts_tbl.to_pylist()]),
        duration_s=round(time.perf_counter() - t0, 3),
        finalize_s=round(time.perf_counter() - t_fin, 3),
        registry_version=registry.version,
        text_col=text_col,
        input_sha256={group[r["k"]]: r["sha256"] for r in reports if r["sha256"]},
        rows_by_rule=dict(sorted(rule_rows.items())),
        unmatched_frac=round(rule_rows.get(UNMATCHED, 0) / max(rows_routed, 1), 6),
        stage_s={st: round(sum(r["stage_s"][st] for r in reports), 3) for st in STAGES},
    )
    m.write(out_dir)
    return m, (counts_tbl, merged)


def _read_partials(out_dir: str, pi: int) -> tuple:
    """What ``_finalize_partition`` returned for partition ``pi`` of an
    earlier call, read back from its partial files."""
    part = f"partition={pi}"
    with pq.ParquetFile(os.path.join(out_dir, "rollup_partials", f"{part}.parquet")) as f:
        counts = f.read()
    nodes = json.loads(Path(out_dir, "_schemas_partials", f"{part}.json").read_text())
    return counts, {r: _load_node(s) for r, s in nodes.items()}


def run_streaming_counts(
    inputs: str | list[str],
    registry: RuleRegistry | None = None,
    batch_size: int | None = None,
    enrich_compute: str = "tasks",
    enrich_concurrency: tuple[int, int] | int | None = None,
) -> pa.Table:
    """Single-pass streaming job: read → classify → (rule, tool, role)
    counts, one Ray call per file (module docstring), no sinks or
    checkpoints — the classify-throughput path of ``bench.py --scaling``.
    Each call reads only the text, role and tool columns, role and tool
    as Parquet dictionary codes, and only classifies rows to rule ids: no
    capture is extracted, no route built and no enrich run, since the
    counts read none of them. It counts on integer codes (rule id, tool
    code, role code) and casts only the keys found to strings, as
    ``run_pipeline``'s rollup casts its keys. Returns the table
    ``run_pipeline`` returns in ``.counts``; the other arguments mean what
    they mean there (``enrich_compute`` picks tasks or actors for the
    calls). A bad input, or one without a text, role or tool column,
    fails the call, naming the file: counts of part of the input would
    be wrong."""
    registry = registry or default_transcript_registry()
    items = [{"path": path} for path in _expand_inputs(inputs)]
    args = (registry, batch_size)
    parts = []
    for item, p in _run_files(items, _Counts, args, enrich_compute, enrich_concurrency):
        if isinstance(p, Exception):
            raise RuntimeError(f"{item['path']}: {p}") from p
        parts.append(p)
    return _fold_counts(parts)


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
    for sub, pat in (
        ("rollup_partials", r"partition=(\d+)\.parquet$"),
        ("_manifest", r"partition=(\d+)\.json$"),
        ("_schemas_partials", r"partition=(\d+)\.json$"),
        ("sinks", r"partition=(\d+)$"),
    ):
        d = os.path.join(out_dir, sub)
        for name in os.listdir(d) if os.path.isdir(d) else ():
            m = re.match(pat, name)
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


def _write_merged_schemas(out_dir: str, partials: list[dict]):
    """Per-route dynamic schema sidecars (ES-mapping analog): merge every
    partition's (route → TypeNode) partial, in the order of ``partials``
    (their partition file names), with the widening lattice and write one
    ``_schema.json`` per route — reflecting THAT route's captures (absent
    captures stay Null-typed) — plus the all-route ``global.json``. The
    partials come from the caller (this call's partitions from memory, a
    resume's kept ones from ``_schemas_partials/``, ingest's one fold).
    Routes are the sanitized route VALUES (rule ``_unmatched`` lands in
    ``route=unmatched``). Returns the merged all-route TypeNode (None
    when no partial holds a route)."""
    from ..functions.schema_merge import arrow_schema_to_json, type_node_to_arrow

    merged: dict = {}
    for nodes in partials:
        for route, node in nodes.items():
            merged[route] = merge_types(merged[route], node) if route in merged else node
    # _schemas is derived data, kept equal to the partials: a re-run whose
    # route set shrank (or that routed no rows) must not leave stale route
    # sidecars, and one that changed nothing rewrites no file
    schema_dir = os.path.join(out_dir, "_schemas")
    if not merged:
        shutil.rmtree(schema_dir, ignore_errors=True)
        return None
    want = {}  # file under _schemas/ → its TypeNode
    global_node = None
    for route, node in sorted(merged.items()):
        want[f"route={route}/_schema.json"] = node
        global_node = node if global_node is None else merge_types(global_node, node)
    want["global.json"] = global_node
    keep = {name.split("/")[0] for name in want}
    for name in os.listdir(schema_dir) if os.path.isdir(schema_dir) else ():
        if name not in keep:
            path = os.path.join(schema_dir, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name, node in want.items():
        path = os.path.join(schema_dir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        schema = pa.schema(list(type_node_to_arrow(node)))
        _write_if_changed(path, arrow_schema_to_json(schema))
    return global_node


def _write_if_changed(path: str, text: str) -> None:
    """Write ``text`` to ``path`` unless the file already holds it."""
    with contextlib.suppress(OSError), open(path) as fh:
        if fh.read() == text:
            return
    with open(path, "w") as fh:
        fh.write(text)
