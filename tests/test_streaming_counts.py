"""run_streaming_counts (the pure-throughput path) must produce exactly
the checkpointed pipeline's rollup and the generator's golden counts, from
one Ray call per file (read → parse → enrich → count)."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulp_ray.fixtures import generate_transcripts, write_transcripts
from ulp_ray.pipelines.flagship import (
    _COUNTS_SCHEMA,
    AGG_KEYS,
    _count_codes,
    _fold_counts,
    run_pipeline,
    run_streaming_counts,
)
from ulp_ray.stages.aggregate import partial_counts_fn


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


_RULE_NAMES = pa.array(["tool_call", "status", "_unmatched"])


def _by_group_by(batches) -> pa.Table:
    """The counts of ``(rule ids, tool, role)`` batches as the string-keyed
    path made them: Acero ``group_by`` per batch, then ``_fold_counts``."""
    partial = partial_counts_fn(AGG_KEYS)
    return _fold_counts(
        [
            partial(pa.table({"rule": _RULE_NAMES.take(ids), "tool": tool, "role": role}))
            for ids, tool, role in batches
        ]
    )


def _by_codes(batches) -> pa.Table:
    parts = [_count_codes(ids, _RULE_NAMES, *keys) for ids, *keys in batches]
    assert all(p.schema == _COUNTS_SCHEMA for p in parts)
    return _fold_counts(parts)


_WORDS = st.sampled_from(["", "bash", "read", "user", "tool"])


@st.composite
def _key_column(draw, n: int) -> pa.Array:
    """``n`` keys, nulls and duplicates included, typed string, large
    string, int32, or dictionary (whose values may repeat, go unused or be
    null)."""
    kind = draw(st.sampled_from(["string", "large_string", "int32", "dictionary"]))
    if kind == "int32":
        ints = st.none() | st.integers(-3, 3)
        return pa.array(draw(st.lists(ints, min_size=n, max_size=n)), pa.int32())
    if kind == "dictionary":
        values = draw(st.lists(st.none() | _WORDS, min_size=1, max_size=6))
        index = st.none() | st.integers(0, len(values) - 1)
        indices = pa.array(draw(st.lists(index, min_size=n, max_size=n)), pa.int8())
        return pa.DictionaryArray.from_arrays(indices, pa.array(values, pa.string()))
    words = draw(st.lists(st.none() | _WORDS, min_size=n, max_size=n))
    return pa.array(words, pa.string() if kind == "string" else pa.large_string())


@st.composite
def _batch(draw):
    n = draw(st.integers(0, 40))
    ids = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), np.int32)
    return ids, draw(_key_column(n)), draw(_key_column(n))


@settings(max_examples=100, deadline=None)
@given(st.lists(_batch(), min_size=1, max_size=3))
def test_code_counts_equal_group_by(batches):
    """Counting on rule ids and key codes gives the table the string
    ``group_by`` path gives: the same keys, nulls and empty strings kept
    apart, and int or dictionary keys cast to the same strings."""
    assert _by_codes(batches).equals(_by_group_by(batches))


def test_code_counts_past_the_dense_bound_use_unique(monkeypatch):
    """A batch whose code space passes ``max(rows, 65,536)`` (here 70,000
    distinct tools) is counted without ``np.bincount``, and still equals
    the ``group_by`` path."""
    rng = np.random.default_rng(0)
    n = 70_000
    ids = rng.integers(0, 3, n).astype(np.int32)
    tool = pa.array(rng.permutation(n).astype(np.int32))
    role = pa.array(rng.choice(["user", "tool", None], n), pa.large_string())
    want = _by_group_by([(ids, tool, role)])

    def no_bincount(*a, **kw):
        raise AssertionError("dense count past the bound")

    monkeypatch.setattr(np, "bincount", no_bincount)
    got = _by_codes([(ids, tool, role)])
    assert got.num_rows == n
    assert got.equals(want)


def test_int_tool_and_large_string_role_match_run_pipeline(ray_session, tmp_path):
    """A file whose tool is an int column and whose role is ``large_string``
    counts to what ``run_pipeline`` rolls up, keyed by the same strings."""
    table, _ = generate_transcripts(2_000, seed=13)
    codes = table["tool"].combine_chunks().dictionary_encode().indices
    table = table.set_column(
        table.schema.get_field_index("tool"), "tool", codes.cast(pa.int32())
    )
    table = table.set_column(
        table.schema.get_field_index("role"), "role", table["role"].cast(pa.large_string())
    )
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(table, str(src / "part-0.parquet"))
    counts = run_streaming_counts(str(src))
    assert counts.equals(run_pipeline(str(src), str(tmp_path / "out"), partitions=1).counts)
    assert set(counts["tool"].to_pylist()) == {str(t) for t in set(codes.to_pylist())}
