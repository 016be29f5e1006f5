"""The flagship's per-file shape: every pending input file is one
fragment call (read → parse → enrich → routed write → sha256), the calls
of all pending partitions share one bounded window with no Ray Data
execution, and each partition is checkpointed once its own fragments have
reported and its sink footers agree with the streamed counts."""

import glob
import hashlib
import json
import os
import re
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from ulp_ray.fixtures import generate_transcripts, write_transcripts
from ulp_ray.pipelines.flagship import _check_sink_footers, run_pipeline
from ulp_ray.state.audit import audit_run
from ulp_ray.state.manifest import load_completed


def _sink_files(out: str) -> dict[str, int]:
    """sink file (relative path) → footer rows."""
    return {
        os.path.relpath(f, out): pq.read_metadata(f).num_rows
        for f in sorted(
            glob.glob(os.path.join(out, "sinks", "**", "*.parquet"), recursive=True)
        )
    }


def _rows_per_route(out: str) -> dict[str, int]:
    rows: dict[str, int] = {}
    for f, n in _sink_files(out).items():
        route = f.split(os.sep)[-2]
        rows[route] = rows.get(route, 0) + n
    return rows


def _schema_bytes(out: str) -> dict[str, str]:
    root = os.path.join(out, "_schemas")
    return {
        os.path.relpath(f, root): hashlib.sha256(open(f, "rb").read()).hexdigest()
        for f in sorted(glob.glob(os.path.join(root, "**", "*"), recursive=True))
        if os.path.isfile(f)
    }


def _outputs(out: str, res) -> tuple:
    return res.counts, _rows_per_route(out), _schema_bytes(out)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("frag_in"))
    write_transcripts(d, 3_000, n_files=4)
    return d


def test_one_execution_per_call(
    ray_session, tmp_path_factory, file_calls, monkeypatch
):
    """No Ray Data execution: each pending input file is submitted once,
    as its own call, with at most twice the cluster's CPUs calls in
    flight; each partition is checkpointed once (after all of its
    fragments), and the input hashes come from the fragment tasks (the
    caller's ``file_sha256`` is never called)."""
    from ulp_ray.pipelines import flagship
    from ulp_ray.state.manifest import PartitionManifest

    checkpoints = []
    write = PartitionManifest.write

    def counting_write(self, run_dir):
        checkpoints.append(self.partition)
        return write(self, run_dir)

    def no_hash(path):
        raise AssertionError(f"caller hashed {path}")

    monkeypatch.setattr(PartitionManifest, "write", counting_write)
    monkeypatch.setattr(flagship, "file_sha256", no_hash)
    d = str(tmp_path_factory.mktemp("frag_many"))
    write_transcripts(d, 3_000, n_files=12)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    window = 2 * int(ray_session.cluster_resources()["CPU"])
    assert len(files) > window
    out = str(tmp_path_factory.mktemp("frag_one"))
    res = run_pipeline(d, out, partitions=3)  # four files per partition
    assert res.partitions_run == 3 and res.rows_routed == 3_000
    assert file_calls.executions == 0
    assert sorted(file_calls.paths) == files
    assert 0 < file_calls.max_in_flight <= window
    assert sorted(checkpoints) == [0, 1, 2]
    assert all(len(m.input_sha256) == 4 for m in res.manifests)
    assert audit_run(out)["ok"]


def test_poisoned_fragment_isolated_to_its_partition(ray_session, tmp_path_factory):
    """A fragment that fails deterministically leaves only its own
    partition unfinished: the others are checkpointed, the call raises
    naming the fragment and its error, and a resume after the fix runs
    only the failed partition."""
    from ray.data import DataContext

    d = str(tmp_path_factory.mktemp("iso_in"))
    write_transcripts(d, 1_500, n_files=3)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    victim = files[1]  # files[i::3] → partition 1 owns files[1]
    clean = pq.read_table(victim)
    text = clean["text"].to_pylist()
    text[0] = "POISON-MARKER " + (text[0] or "")
    poisoned = clean.set_column(
        clean.schema.get_field_index("text"), "text", pa.array(text)
    )
    pq.write_table(poisoned, victim)
    attempts_dir = str(tmp_path_factory.mktemp("iso_attempts"))

    def poison_pre(batch):
        if pc.any(pc.match_substring(batch["text"], "POISON-MARKER")).as_py():
            open(os.path.join(attempts_dir, uuid.uuid4().hex), "w").close()
            raise ValueError("poisoned fragment")
        return batch

    kwargs = dict(
        partitions=3, pre_fn=poison_pre, sink_max_retries=1, sink_retry_exceptions=True
    )
    before = DataContext.get_current().max_errored_blocks
    out = str(tmp_path_factory.mktemp("iso_run"))
    with pytest.raises(RuntimeError, match="poisoned fragment") as err:
        run_pipeline(d, out, **kwargs)
    assert victim in str(err.value)
    assert len(os.listdir(attempts_dir)) == 1 + 1
    assert set(load_completed(out)) == {0, 2}
    assert DataContext.get_current().max_errored_blocks == before

    pq.write_table(clean, victim)
    res = run_pipeline(d, out, **kwargs)
    assert res.partitions_run == 1 and res.partitions_skipped == 2
    assert res.rows_routed == 1_500
    assert not os.path.exists(os.path.join(out, "_fragment_errors"))
    assert audit_run(out)["ok"]


def test_corrupt_input_fails_only_its_partition(ray_session, tmp_path_factory):
    """A file that is not Parquet fails its own partition: the error names
    it, the other partitions are checkpointed, and a resume after removing
    it finishes the run."""
    d = str(tmp_path_factory.mktemp("bad_in"))
    write_transcripts(d, 1_500, n_files=3)
    bad = os.path.join(d, "part-bad.parquet")  # sorts last: partition 0's
    with open(bad, "wb") as f:
        f.write(b"not a parquet file")
    out = str(tmp_path_factory.mktemp("bad_run"))
    with pytest.raises(RuntimeError, match="Parquet magic bytes") as err:
        run_pipeline(d, out, partitions=3)
    assert bad in str(err.value)
    assert set(load_completed(out)) == {1, 2}

    os.remove(bad)
    res = run_pipeline(d, out, partitions=3)
    assert res.partitions_run == 1 and res.partitions_skipped == 2
    assert res.rows_routed == 1_500
    assert audit_run(out)["ok"]


def test_manifest_telemetry_and_status(ray_session, data_dir, tmp_path_factory):
    """Each partition manifest records rows per rule, the unmatched share,
    the fragments' stage walls and the caller's finalize of it, and
    ``run.json`` the call's tail; ``status`` shows them; manifests written
    without these fields still load, show and audit."""
    import json

    from ulp_ray.pipelines.flagship import STAGES
    from ulp_ray.state.jobs import run_status

    out = str(tmp_path_factory.mktemp("telemetry"))
    fields = ("rows_by_rule", "unmatched_frac", "stage_s", "finalize_s")
    res = run_pipeline(data_dir, out, partitions=2)
    status = run_status(out)
    shown = {p["partition"]: p for p in status["partitions"]}
    for m in res.manifests:
        partial = pq.read_table(
            os.path.join(out, "rollup_partials", f"partition={m.partition}.parquet")
        )
        rules = partial.group_by("rule").aggregate([("n", "sum")]).to_pylist()
        assert m.rows_by_rule == {r["rule"]: r["n_sum"] for r in rules}
        assert m.unmatched_frac == round(m.rows_by_rule["_unmatched"] / m.rows_routed, 6)
        assert set(m.stage_s) == set(STAGES) and min(m.stage_s.values()) >= 0
        assert sum(m.stage_s.values()) <= m.duration_s + 0.01
        assert 0 <= m.finalize_s <= m.duration_s
        assert {k: shown[m.partition][k] for k in fields} == {
            k: getattr(m, k) for k in fields
        }
    with open(os.path.join(out, "_manifest", "run.json")) as fh:
        assert 0 <= json.load(fh)["tail_s"] == status["run"]["tail_s"]

    for f in glob.glob(os.path.join(out, "_manifest", "*.json")):
        with open(f) as fh:
            old = {k: v for k, v in json.load(fh).items() if k not in (*fields, "tail_s")}
        with open(f, "w") as fh:
            json.dump(old, fh)
    assert set(load_completed(out)) == {0, 1}
    status = run_status(out)
    assert all(
        p["rows_by_rule"] == {} and p["unmatched_frac"] is None and p["finalize_s"] is None
        for p in status["partitions"]
    )
    assert "tail_s" not in status["run"]
    assert audit_run(out)["ok"]
    assert run_pipeline(data_dir, out, partitions=2).partitions_skipped == 2


def test_actor_path_matches_tasks(ray_session, data_dir, tmp_path_factory):
    out_t = str(tmp_path_factory.mktemp("frag_tasks"))
    out_a = str(tmp_path_factory.mktemp("frag_actors"))
    tasks = run_pipeline(data_dir, out_t, partitions=2, enrich_compute="tasks")
    actors = run_pipeline(data_dir, out_a, partitions=2, enrich_compute="actors")
    got, want = _outputs(out_a, actors), _outputs(out_t, tasks)
    assert got[0].equals(want[0])
    assert got[1:] == want[1:]
    assert audit_run(out_a)["ok"]


def test_small_batches_match_whole_file(ray_session, tmp_path_factory):
    """A multi-row-group input streamed in small batches gives the same
    rollup, sink rows per route and schema sidecars as one batch per
    file."""
    d = str(tmp_path_factory.mktemp("rg_in"))
    table, _ = generate_transcripts(3_000, seed=11)
    pq.write_table(table, os.path.join(d, "part-0.parquet"), row_group_size=700)
    assert pq.ParquetFile(os.path.join(d, "part-0.parquet")).num_row_groups > 1
    out_big = str(tmp_path_factory.mktemp("rg_big"))
    out_small = str(tmp_path_factory.mktemp("rg_small"))
    big = run_pipeline(d, out_big, partitions=1, batch_size=None)
    small = run_pipeline(d, out_small, partitions=1, batch_size=256)
    got, want = _outputs(out_small, small), _outputs(out_big, big)
    assert got[0].equals(want[0])
    assert got[1:] == want[1:]
    assert small.rows_routed == 3_000


def test_schema_sidecars_describe_sink_files(
    ray_session, data_dir, tmp_path_factory
):
    """The in-stream schema sample sees the rows the sink files hold:
    each route's sidecar has exactly its sink files' columns (the route
    itself is the directory, not a column)."""
    import json

    out = str(tmp_path_factory.mktemp("frag_schema"))
    run_pipeline(data_dir, out, partitions=2)
    routes = {f.split(os.sep)[-2]: f for f in _sink_files(out)}
    assert routes
    for route_dir, f in routes.items():
        with open(os.path.join(out, "_schemas", route_dir, "_schema.json")) as fh:
            fields = [x["name"] for x in json.load(fh)["fields"]]
        sink_columns = pq.read_schema(os.path.join(out, f)).names
        assert sorted(fields) == sorted(sink_columns)


def test_schema_sample_takes_each_route_row_once(ray_session, tmp_path_factory):
    """A route with fewer rows than the sample size, spread over several
    (rule, tool, role) groups, is sampled once: the merge lattice is
    order-sensitive, so ``[IPv4, Date]`` must not be read as
    ``[IPv4, Date, IPv4, Date]`` (Date then IPv4 widens to string)."""
    import json

    d = str(tmp_path_factory.mktemp("sample_in"))
    text = "status=ok at 2026-01-01T00:00:00+00:00 items=3"
    pq.write_table(
        pa.table({"text": [text, text], "role": ["user", "assistant"], "tool": ["", ""]}),
        os.path.join(d, "part-0.parquet"),
    )

    def add_addr(batch):
        addr = pa.array(["1.2.3.4", "2026-01-01T00:00:00+00:00"][: len(batch)])
        return batch.append_column("addr", addr)

    out = str(tmp_path_factory.mktemp("sample_run"))
    res = run_pipeline(d, out, partitions=1, pre_fn=add_addr)
    assert len(res.counts) == 2  # one route, two groups
    with open(os.path.join(out, "_schemas", "route=status", "_schema.json")) as fh:
        fields = {f["name"]: f["type"] for f in json.load(fh)["fields"]}
    assert fields["addr"] == "timestamp[us]"
    assert fields["x_ts"] == "timestamp[us]" and fields["x_items"] == "int64"


def test_rerun_without_resume_rewrites_same_sink_files(
    ray_session, data_dir, tmp_path_factory
):
    out = str(tmp_path_factory.mktemp("frag_rerun"))
    run_pipeline(data_dir, out, partitions=2, resume=False)
    first = _sink_files(out)
    run_pipeline(data_dir, out, partitions=2, resume=False)
    assert _sink_files(out) == first
    names = {os.path.basename(f) for f in first}
    assert names == {"part-000000-0.parquet", "part-000001-0.parquet"}


def test_duplicate_inputs_rejected(ray_session, data_dir, tmp_path):
    """A file listed twice fails the run before it writes anything: its
    rows would be routed and counted twice."""
    f = sorted(glob.glob(os.path.join(data_dir, "*.parquet")))[0]
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="listed more than once") as err:
        run_pipeline([f, f], str(out), partitions=2, resume=False)
    assert os.path.realpath(f) in str(err.value)
    assert not out.exists()


def test_zero_row_rerun_clears_schema_sidecars(
    ray_session, data_dir, tmp_path_factory
):
    """``_schemas/`` is rebuilt from the run's partials: a rerun that
    routes no rows leaves none of the previous run's sidecars."""
    out = str(tmp_path_factory.mktemp("frag_zero_rerun"))
    run_pipeline(data_dir, out, partitions=2, resume=False)
    assert _schema_bytes(out)
    empty = tmp_path_factory.mktemp("frag_zero_in")
    table = pq.read_table(sorted(glob.glob(os.path.join(data_dir, "*.parquet")))[0])
    pq.write_table(table.slice(0, 0), str(empty / "part-0.parquet"))
    res = run_pipeline(str(empty), out, partitions=2, resume=False)
    assert res.rows_routed == 0
    assert _sink_files(out) == {}
    assert _schema_bytes(out) == {}


def _sidecar_mtimes(out: str) -> dict[str, int]:
    root = os.path.join(out, "_schemas")
    return {
        os.path.relpath(f, root): os.stat(f).st_mtime_ns
        for f in glob.glob(os.path.join(root, "**", "*.json"), recursive=True)
    }


def test_resume_with_nothing_new_rewrites_no_schema_sidecar(
    ray_session, data_dir, tmp_path_factory
):
    """A resume that computes nothing leaves every ``_schemas/`` file as it
    was, down to its mtime: only a sidecar whose bytes change is written."""
    out = str(tmp_path_factory.mktemp("frag_noop_resume"))
    run_pipeline(data_dir, out, partitions=2)
    before = _schema_bytes(out)
    past = time.time_ns() - 10**10  # 10 s ago: a rewrite cannot keep it
    for f in _sidecar_mtimes(out):
        os.utime(os.path.join(out, "_schemas", f), ns=(past, past))
    mtimes = _sidecar_mtimes(out)
    assert any(f.endswith("/_schema.json") for f in mtimes)
    res = run_pipeline(data_dir, out, partitions=2)
    assert res.partitions_run == 0
    assert _sidecar_mtimes(out) == mtimes
    assert _schema_bytes(out) == before


def test_merged_schemas_drop_only_routes_gone(tmp_path):
    """``_write_merged_schemas`` keeps ``_schemas/`` equal to its partials:
    a route no partial holds any more loses its directory, a route whose
    schema is unchanged keeps its file untouched, and a stray file goes."""
    from ulp_ray.functions.schema_merge import infer_table_node
    from ulp_ray.pipelines.flagship import _write_merged_schemas

    out = str(tmp_path)
    a = infer_table_node(pa.table({"x": [1]}))
    b = infer_table_node(pa.table({"y": ["s"]}))
    _write_merged_schemas(out, [{"a": a}, {"b": b}])
    assert sorted(_schema_bytes(out)) == [
        "global.json", "route=a/_schema.json", "route=b/_schema.json"
    ]
    with open(os.path.join(out, "_schemas", "global.json")) as fh:
        assert '"y"' in fh.read()
    open(os.path.join(out, "_schemas", "stray.txt"), "w").close()
    kept = os.path.join(out, "_schemas", "route=a", "_schema.json")
    os.utime(kept, ns=(0, 0))
    _write_merged_schemas(out, [{"a": a}])
    assert sorted(_schema_bytes(out)) == ["global.json", "route=a/_schema.json"]
    assert os.stat(kept).st_mtime_ns == 0
    with open(os.path.join(out, "_schemas", "global.json")) as fh:
        assert '"y"' not in fh.read()


def test_check_sink_footers(tmp_path):
    sink = str(tmp_path / "partition=0")
    for route, k, n in (("a", 0, 3), ("a", 1, 2), ("b", 0, 4)):
        os.makedirs(os.path.join(sink, f"route={route}"), exist_ok=True)
        path = os.path.join(sink, f"route={route}", f"part-{k:06d}-0.parquet")
        pq.write_table(pa.table({"x": list(range(n))}), path)
    _check_sink_footers(sink, {"a": 5, "b": 4})
    _check_sink_footers(str(tmp_path / "absent"), {})  # zero-row partition
    with pytest.raises(RuntimeError, match="sink footer rows"):
        _check_sink_footers(sink, {"a": 5, "b": 4, "c": 1})  # a route never written
    os.remove(os.path.join(sink, "route=a", "part-000001-0.parquet"))
    with pytest.raises(RuntimeError, match="sink footer rows"):
        _check_sink_footers(sink, {"a": 5, "b": 4})  # a missing file
    changed = os.path.join(sink, "route=b", "part-000000-0.parquet")
    pq.write_table(pa.table({"x": [1]}), changed)
    with pytest.raises(RuntimeError, match="sink footer rows"):
        _check_sink_footers(sink, {"a": 3, "b": 4})  # a changed row count


@pytest.mark.parametrize("pattern", ["", "*.parquet"])
def test_empty_inputs_name_the_directory_or_glob(tmp_path, pattern):
    """A directory or glob that matches no file fails both entry points
    before any work, naming what the caller passed."""
    from ulp_ray.pipelines.flagship import run_streaming_counts

    inputs = str(tmp_path / "empty" / pattern)
    os.makedirs(tmp_path / "empty")
    with pytest.raises(FileNotFoundError, match=re.escape(repr(inputs))):
        run_pipeline(inputs, str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError, match=re.escape(repr(inputs))):
        run_streaming_counts(inputs)


def _partial_reads(monkeypatch) -> list[str]:
    """The partial files (``rollup_partials/``, ``_schemas_partials/``)
    the caller reads from now on, by path, one entry per read."""
    from pathlib import Path

    reads: list[str] = []
    parquet_file, read_table, read_text = pq.ParquetFile, pq.read_table, Path.read_text

    def seen(path) -> None:
        if "_partials" in str(path):
            reads.append(os.path.relpath(str(path)))

    class SpyParquetFile(parquet_file):
        def __init__(self, source, *a, **kw):
            seen(source)
            super().__init__(source, *a, **kw)

    def spy_read_table(source, *a, **kw):
        seen(source)
        return read_table(source, *a, **kw)

    def spy_read_text(self, *a, **kw):
        seen(self)
        return read_text(self, *a, **kw)

    monkeypatch.setattr(pq, "ParquetFile", SpyParquetFile)
    monkeypatch.setattr(pq, "read_table", spy_read_table)
    monkeypatch.setattr(Path, "read_text", spy_read_text)
    return reads


def test_tail_reads_back_only_kept_partials(
    ray_session, data_dir, tmp_path_factory, monkeypatch
):
    """``rollup/`` and ``_schemas/`` are built from the partials the call
    holds: a fresh run reads none of its partial files back, an append
    resume reads each kept partition's two once, and both give what a
    rebuild from every partial file on disk gives."""
    from ulp_ray.pipelines.flagship import _fold_counts, _write_merged_schemas
    from ulp_ray.stages.aggregate import _load_node

    files = sorted(glob.glob(os.path.join(data_dir, "*.parquet")))
    out = str(tmp_path_factory.mktemp("tail"))
    reads = _partial_reads(monkeypatch)
    run_pipeline(files[:2], out, partitions=2)
    assert reads == []
    res = run_pipeline(files, out, partitions=2)
    assert res.partitions_skipped == 2 and res.partitions_run == 2
    kept = [
        os.path.relpath(os.path.join(out, sub, f"partition={i}.{ext}"))
        for sub, ext in (("rollup_partials", "parquet"), ("_schemas_partials", "json"))
        for i in (0, 1)
    ]
    assert sorted(reads) == sorted(kept)
    monkeypatch.undo()

    # the rebuild from disk, in the partial files' name order
    counts = _fold_counts(
        [pq.read_table(f) for f in sorted(glob.glob(f"{out}/rollup_partials/*.parquet"))]
    )
    assert pq.read_table(os.path.join(out, "rollup", "agg_counts.parquet")).equals(counts)
    assert res.counts.equals(counts)
    held = _schema_bytes(out)
    partials = []
    for f in sorted(glob.glob(f"{out}/_schemas_partials/partition=*.json")):
        with open(f) as fh:
            partials.append({r: _load_node(s) for r, s in json.load(fh).items()})
    _write_merged_schemas(out, partials)
    assert _schema_bytes(out) == held
    assert audit_run(out)["ok"]


def test_retry_options_reach_each_call(ray_session, data_dir, tmp_path_factory):
    """The retry policy is a per-call option, not part of the remote made
    once per process: a file whose first attempt fails succeeds under
    ``sink_retry_exceptions=True`` and fails the call without it, in
    either order."""

    def run(retry_exceptions):
        marks = str(tmp_path_factory.mktemp("fail_once"))

        def fail_once(batch):
            mark = os.path.join(marks, "failed")
            if not os.path.exists(mark):  # the first call's first attempt
                open(mark, "w").close()
                raise ValueError("first attempt fails")
            return batch

        out = str(tmp_path_factory.mktemp("fail_once_run"))
        return run_pipeline(
            data_dir, out, partitions=2, pre_fn=fail_once,
            sink_max_retries=1, sink_retry_exceptions=retry_exceptions,
        )

    assert run(True).rows_routed == 3_000
    with pytest.raises(RuntimeError, match="first attempt fails"):
        run(None)
    assert run(True).rows_routed == 3_000


def test_route_samples_equal_per_route_scan(monkeypatch):
    """``_sample_routes`` takes each route's first rows, batch by batch,
    exactly as a string-equality scan per route did, on a registry whose
    ``{{template}}`` rule fans one rule out to several routes; and it
    scans no route by string equality."""
    from ulp_ray.pipelines.flagship import SCHEMA_SAMPLE_ROWS, _sample_routes
    from ulp_ray.rules import Capture, Rule, RuleRegistry, default_transcript_registry
    from ulp_ray.stages.parse import make_parse_fn

    by_tool = Rule(  # ahead of the default rules: it takes their tool calls
        "tool_by_name",
        r"Calling tool (?P<x_tool>\w+) with args path=(?P<x_path>\S+)",
        (Capture("x_tool"), Capture("x_path")),
        route="tool_{{x_tool}}",
        prefilter="Calling tool ",
    )
    reg = RuleRegistry([by_tool, *default_transcript_registry().rules])
    table, _ = generate_transcripts(3_000, seed=5)
    parsed = make_parse_fn(reg)(table)
    batches = [parsed.slice(i, 250) for i in range(0, len(parsed), 250)]

    want: dict[str, list[pa.Table]] = {}
    for tbl in batches:
        for route in pc.unique(tbl["route"]).to_pylist():
            parts = want.setdefault(route, [])
            need = SCHEMA_SAMPLE_ROWS - sum(map(len, parts))
            if need > 0:
                idx = pc.indices_nonzero(pc.equal(tbl["route"], route))
                parts.append(tbl.take(idx[:need]).drop_columns(["route"]))

    def no_scan(*a, **kw):
        raise AssertionError("a string-equality scan of the route column")

    monkeypatch.setattr(pc, "equal", no_scan)
    got: dict[str, list[pa.Table]] = {}
    for tbl in batches:
        _sample_routes(tbl, got)
    assert {"tool_bash", "tool_read", "tool_search", "unmatched"} <= set(got)
    assert set(got) == set(want)
    for route, parts in want.items():
        assert pa.concat_tables(got[route]).equals(pa.concat_tables(parts)), route


def test_actor_pool_per_call_class_exported_once(
    ray_session, data_dir, tmp_path_factory, monkeypatch
):
    """Under ``enrich_compute="actors"`` each call makes its own pool and
    kills every actor of it when done, while the actor class is exported
    at most once per Ray session."""
    from ray._private.function_manager import FunctionActorManager

    exported, killed = [], []
    export, kill = FunctionActorManager.export_actor_class, ray_session.kill

    def counting_export(self, cls, *a, **kw):
        exported.append(cls.__name__)
        return export(self, cls, *a, **kw)

    def counting_kill(actor, **kw):
        killed.append(actor)
        return kill(actor, **kw)

    monkeypatch.setattr(FunctionActorManager, "export_actor_class", counting_export)
    monkeypatch.setattr(ray_session, "kill", counting_kill)
    runs = []
    for _ in range(2):
        out = str(tmp_path_factory.mktemp("pool"))
        res = run_pipeline(
            data_dir, out, partitions=2, enrich_compute="actors", enrich_concurrency=2
        )
        runs.append(_outputs(out, res))
    assert len(killed) == 4 and len({a._actor_id for a in killed}) == 4
    assert exported.count("_Fragment") <= 1
    assert runs[0][0].equals(runs[1][0]) and runs[0][1:] == runs[1][1:]


def test_remotes_exported_once_per_ray_session(
    ray_session, data_dir, tmp_path_factory, monkeypatch, restart_ray
):
    """Each entry point's task is exported to a Ray session once: a second
    call exports nothing, and after ``ray.shutdown()`` and ``ray.init()``
    in the same process the next call exports it again and gives the same
    outputs. (Last in this file: it restarts the test session's Ray.)"""
    from ray._private.function_manager import FunctionActorManager

    from ulp_ray.pipelines.flagship import run_streaming_counts

    exported: list[str] = []
    export = FunctionActorManager.export

    def counting_export(self, remote_function):
        exported.append(remote_function._function_name)
        return export(self, remote_function)

    monkeypatch.setattr(FunctionActorManager, "export", counting_export)

    def both():
        out = str(tmp_path_factory.mktemp("export"))
        res = run_pipeline(data_dir, out, partitions=2)
        return _outputs(out, res), run_streaming_counts(data_dir)

    def same(a, b) -> bool:
        return a[0][0].equals(b[0][0]) and a[0][1:] == b[0][1:] and a[1].equals(b[1])

    want = both()
    exported.clear()
    assert same(both(), want)
    assert exported == []
    restart_ray()
    assert same(both(), want)
    assert sorted(exported) == [
        "ulp_ray.pipelines.flagship.run",
        "ulp_ray.pipelines.flagship.run",
    ]
    exported.clear()
    assert same(both(), want)
    assert exported == []
