"""The flagship's one-execution shape: every pending input file is one
fragment task (read → parse → enrich → routed write → sha256), all
pending partitions run as a single Ray Data execution, and each partition
is checkpointed once its own fragments have reported and its sink footers
agree with the streamed counts."""

import glob
import hashlib
import os
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


def test_one_execution_per_call(ray_session, data_dir, tmp_path_factory, monkeypatch):
    """All pending partitions share ONE streaming execution, each
    partition is checkpointed once (after all of its fragments), and the
    input hashes come from the fragment tasks."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from ulp_ray.state.manifest import PartitionManifest

    executions, checkpoints = [], []
    execute, write = StreamingExecutor.execute, PartitionManifest.write

    def counting_execute(self, *a, **kw):
        executions.append(1)
        return execute(self, *a, **kw)

    def counting_write(self, run_dir):
        checkpoints.append(self.partition)
        return write(self, run_dir)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    monkeypatch.setattr(PartitionManifest, "write", counting_write)
    out = str(tmp_path_factory.mktemp("frag_one"))
    res = run_pipeline(data_dir, out, partitions=2)  # two files per partition
    assert res.partitions_run == 2 and res.rows_routed == 3_000
    assert len(executions) == 1
    assert sorted(checkpoints) == [0, 1]
    assert all(len(m.input_sha256) == 2 for m in res.manifests)
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
