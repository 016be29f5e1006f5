"""run_streaming_counts (the pure-throughput path) must produce exactly
the checkpointed pipeline's rollup and the generator's golden counts, from
one Ray call per file (read → parse → enrich → count)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ulp_ray.fixtures import generate_transcripts, write_transcripts
from ulp_ray.pipelines.flagship import _COUNTS_SCHEMA, run_pipeline, run_streaming_counts


@pytest.fixture(scope="module")
def data(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("transcripts"))
    golden = write_transcripts(d, 5_000, n_files=4)
    return d, golden


def test_streaming_counts_match_golden(data):
    d, golden = data
    counts = run_streaming_counts(d)
    got = {(r["rule"], r["tool"], r["role"]): r["n"] for r in counts.to_pylist()}
    assert got == golden.counts


def test_streaming_equals_checkpointed(data, tmp_path_factory):
    d, _ = data
    out = str(tmp_path_factory.mktemp("run"))
    res = run_pipeline(d, out, partitions=2)
    streaming = {
        (r["rule"], r["tool"], r["role"]): r["n"]
        for r in run_streaming_counts(d).to_pylist()
    }
    checkpointed = {
        (r["rule"], r["tool"], r["role"]): r["n"] for r in res.counts.to_pylist()
    }
    assert streaming == checkpointed


def test_streaming_counts_actor_enrich(data):
    d, golden = data
    counts = run_streaming_counts(d, enrich_compute="actors", enrich_concurrency=2)
    got = {(r["rule"], r["tool"], r["role"]): r["n"] for r in counts.to_pylist()}
    assert got == golden.counts


def _key_counts(tbl) -> dict:
    return {(r["rule"], r["tool"], r["role"]): r["n"] for r in tbl.to_pylist()}


@pytest.fixture(scope="module")
def checkpointed_counts(data, tmp_path_factory):
    d, _ = data
    return run_pipeline(d, str(tmp_path_factory.mktemp("ckpt")), partitions=2).counts


def test_one_execution_per_call(ray_session, tmp_path, file_calls):
    """No Ray Data execution and no separate fold: each input file is
    submitted once, as its own call, with at most twice the cluster's CPUs
    calls in flight."""
    golden = write_transcripts(str(tmp_path), 3_000, n_files=12)
    files = sorted(glob.glob(str(tmp_path / "*.parquet")))
    window = 2 * int(ray_session.cluster_resources()["CPU"])
    assert len(files) > window
    counts = run_streaming_counts(str(tmp_path))
    assert file_calls.executions == 0
    assert sorted(file_calls.paths) == files
    assert 0 < file_calls.max_in_flight <= window
    assert _key_counts(counts) == golden.counts


@pytest.mark.parametrize("enrich_compute", ["tasks", "actors"])
def test_table_equals_run_pipeline_counts(data, checkpointed_counts, enrich_compute):
    d, _ = data
    counts = run_streaming_counts(d, enrich_compute=enrich_compute)
    assert counts.equals(checkpointed_counts)


def test_small_batches_match_whole_file(ray_session, tmp_path):
    table, golden = generate_transcripts(3_000, seed=11)
    pq.write_table(table, str(tmp_path / "part-0.parquet"), row_group_size=700)
    assert pq.ParquetFile(str(tmp_path / "part-0.parquet")).num_row_groups > 1
    small = run_streaming_counts(str(tmp_path), batch_size=256)
    assert small.equals(run_streaming_counts(str(tmp_path)))
    assert _key_counts(small) == golden.counts


def test_null_text_counts_as_unmatched(ray_session, tmp_path):
    """A row whose text is null matches no rule: it is counted under
    ``_unmatched`` with its own tool and role, never dropped."""
    table, _ = generate_transcripts(2_000, seed=5)
    head, tail = table.slice(0, 300), table.slice(300)
    i = head.schema.get_field_index("text")
    nulled = head.set_column(i, "text", pa.nulls(len(head), head.schema.field(i).type))
    pq.write_table(tail, str(tmp_path / "part-0.parquet"))
    want = _key_counts(run_streaming_counts(str(tmp_path)))
    pq.write_table(nulled, str(tmp_path / "part-1.parquet"))
    g = nulled.group_by(["tool", "role"]).aggregate([([], "count_all")])
    for tool, role, n in zip(*(g[c].to_pylist() for c in ["tool", "role", "count_all"])):
        key = ("_unmatched", tool, role)
        want[key] = want.get(key, 0) + n
    assert _key_counts(run_streaming_counts(str(tmp_path))) == want


def test_zero_row_files_give_typed_tables(ray_session, tmp_path):
    table, golden = generate_transcripts(1_000, seed=7)
    full, empty = tmp_path / "full", tmp_path / "empty"
    full.mkdir()
    empty.mkdir()
    pq.write_table(table, str(full / "part-0.parquet"))
    pq.write_table(table.slice(0, 0), str(full / "part-1.parquet"))
    for k in range(2):
        pq.write_table(table.slice(0, 0), str(empty / f"part-{k}.parquet"))
    mixed = run_streaming_counts(str(full))
    assert mixed.schema == _COUNTS_SCHEMA
    assert _key_counts(mixed) == golden.counts
    assert run_streaming_counts(str(empty)).equals(_COUNTS_SCHEMA.empty_table())


def test_corrupt_input_fails_naming_the_file(data, tmp_path):
    """A file that is not Parquet fails the whole call, and the error names
    it: counts of the readable files alone would be silently wrong."""
    d, _ = data
    bad = tmp_path / "part-bad.parquet"
    bad.write_bytes(b"not a parquet file")
    files = sorted(glob.glob(os.path.join(d, "*.parquet"))) + [str(bad)]
    with pytest.raises(Exception, match="Parquet magic bytes") as err:
        run_streaming_counts(files)
    assert str(bad) in str(err.value)


def test_duplicate_inputs_rejected(data, tmp_path):
    """A file listed twice, by the same path or through a symlink, fails
    the call naming it: it would be read and counted twice."""
    d, _ = data
    f = sorted(glob.glob(os.path.join(d, "*.parquet")))[0]
    alias = tmp_path / "alias.parquet"
    alias.symlink_to(f)
    for files in ([f, f], [f, str(alias)]):
        with pytest.raises(ValueError, match="listed more than once") as err:
            run_streaming_counts(files)
        assert os.path.realpath(f) in str(err.value)


@pytest.mark.parametrize("column", ["text", "role", "tool"])
def test_missing_column_fails_naming_the_file(data, tmp_path, column):
    """A file without a column the counts need fails the call, naming the
    file and the column: a read of only the needed columns must not skip
    it silently."""
    d, _ = data
    table, _ = generate_transcripts(500, seed=3)
    bad = tmp_path / "part-lacking.parquet"
    pq.write_table(table.drop_columns([column]), str(bad))
    files = sorted(glob.glob(os.path.join(d, "*.parquet"))) + [str(bad)]
    with pytest.raises(RuntimeError, match=f"no column {column}") as err:
        run_streaming_counts(files)
    assert str(bad) in str(err.value)


def test_failed_call_leaves_next_call_intact(ray_session, tmp_path):
    """A call that fails on its first file while others are in flight
    leaves them to finish: nothing of it may break the next call's tasks
    on the same workers (interrupting in-flight tasks with ``ray.cancel``
    did, now and then)."""
    good, bad = tmp_path / "good", tmp_path / "bad"
    golden = write_transcripts(str(good), 3_000, n_files=12)
    bad.mkdir()
    for f in good.iterdir():
        (bad / f.name).symlink_to(f)
    (bad / "part-!bad.parquet").write_bytes(b"not a parquet file")  # sorts first
    for _ in range(4):
        with pytest.raises(RuntimeError, match="part-!bad.parquet"):
            run_streaming_counts(str(bad))
        assert _key_counts(run_streaming_counts(str(good))) == golden.counts
