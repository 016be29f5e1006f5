"""End-to-end golden tests for the flagship pipeline on the deterministic
synthetic transcript table (FIXTURES.md §1): aggregate counts vs the
generator's golden counts, routed-row equality, and per-turn text equality
under stable (conv_id, turn_idx) sort (the north rule's verification
order)."""

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from ulp_ray.fixtures import generate_transcripts, write_transcripts
from ulp_ray.pipelines.flagship import run_pipeline

N_TURNS = 10_000


@pytest.fixture(scope="module")
def run(ray_session, tmp_path_factory):
    data_dir = str(tmp_path_factory.mktemp("transcripts"))
    out_dir = str(tmp_path_factory.mktemp("run"))
    golden = write_transcripts(data_dir, N_TURNS, n_files=8)
    res = run_pipeline(data_dir, out_dir, partitions=4)
    return data_dir, out_dir, golden, res


def test_aggregate_counts_match_golden(run):
    _, _, golden, res = run
    got = {(r["rule"], r["tool"], r["role"]): r["n"] for r in res.counts.to_pylist()}
    assert got == golden.counts
    assert res.rows_in == N_TURNS
    assert res.rows_routed == N_TURNS


def test_routed_rows_equal_input(run):
    """Every input turn appears exactly once across all sinks, with its
    original columns intact (routed-row equality)."""
    data_dir, out_dir, _, _ = run
    inp = pq.read_table(data_dir).select(
        ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    )
    routed = pq.read_table(os.path.join(out_dir, "sinks")).select(
        ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    )
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    assert routed.sort_by(key).equals(inp.sort_by(key).cast(routed.schema))


def test_per_turn_text_equality_under_stable_sort(run):
    """Per-row invariant vs the reference (BASELINE.json input_hint):
    per-turn text equality under stable (conv_id, turn_idx) ordering."""
    data_dir, out_dir, _, _ = run
    key = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    inp = pq.read_table(data_dir, columns=["conv_id", "turn_idx", "text"]).sort_by(key)
    out = pq.read_table(
        os.path.join(out_dir, "sinks"), columns=["conv_id", "turn_idx", "text"]
    ).sort_by(key)
    assert out["text"].to_pylist() == inp["text"].to_pylist()


def test_route_matches_rule_and_sinks_partitioned(run):
    _, out_dir, golden, _ = run
    sink_root = os.path.join(out_dir, "sinks", "partition=0")
    routes = sorted(
        d.split("=", 1)[1] for d in os.listdir(sink_root) if d.startswith("route=")
    )
    # routes are sanitized (elastic.rs:156-182): leading '_' stripped, so
    # rule "_unmatched" lands in sink "route=unmatched"
    assert set(routes) <= {"tool_call", "error_line", "net_event", "status", "unmatched"}
    # dominant rule present
    assert "tool_call" in routes


def test_extracted_fields_are_typed(run):
    _, out_dir, _, _ = run
    t = pq.read_table(os.path.join(out_dir, "sinks"))
    s = t.schema
    assert s.field("x_timeout").type == pa.int64()
    assert s.field("x_latency").type == pa.float64()
    assert s.field("x_retry").type == pa.bool_()
    assert pa.types.is_timestamp(s.field("x_ts").type)
    # spot-check: error_line rows carry hex-parsed int codes
    err = t.filter(pc.equal(t["rule"], "error_line"))
    codes = err["x_code"].to_pylist()
    assert codes and all(isinstance(c, int) for c in codes)


def test_manifests_and_schemas_written(run):
    _, out_dir, _, res = run
    mdir = os.path.join(out_dir, "_manifest")
    names = sorted(os.listdir(mdir))
    assert "run.json" in names
    assert sum(n.startswith("partition=") for n in names) == 4
    assert os.path.isfile(os.path.join(out_dir, "rollup", "agg_counts.parquet"))
    # per-sink schema sidecars (ES index-mapping analog)
    schemas = os.listdir(os.path.join(out_dir, "_schemas"))
    assert any(s.startswith("route=") for s in schemas)


def test_generator_determinism():
    t1, g1 = generate_transcripts(2_000, seed=7)
    t2, g2 = generate_transcripts(2_000, seed=7)
    assert t1.equals(t2)
    assert g1.counts == g2.counts
    t3, _ = generate_transcripts(2_000, seed=8)
    assert not t1.equals(t3)


def test_extreme_hot_key_skew_correct(ray_session, tmp_path_factory):
    """90% of turns in 1% of conversations (north-rule hazard): counts
    still exact — per-block pre-combining means skew never reaches a
    shuffle."""
    d = str(tmp_path_factory.mktemp("skewed"))
    golden = write_transcripts(d, 20_000, n_files=8, hot_frac=0.9)
    from ulp_ray.pipelines.flagship import run_streaming_counts

    counts = run_streaming_counts(d)
    got = {(r["rule"], r["tool"], r["role"]): r["n"] for r in counts.to_pylist()}
    assert got == golden.counts


def test_template_route_fanout_e2e(ray_session, tmp_path_factory):
    """The reference's index-pattern feature end-to-end: a rule with a
    {{capture}} route template fans out per extracted value
    (src/type_map.rs:9-62 analog)."""
    from ulp_ray.rules import Capture, Rule, RuleRegistry

    reg = RuleRegistry(
        [
            Rule(
                "tool_call",
                r"Calling tool (?P<x_tool>\w+) with args path=(?P<x_path>\S+) "
                r"timeout=(?P<x_timeout>\d+)",
                (Capture("x_tool"), Capture("x_path"), Capture("x_timeout", "int")),
                route="tool_{{x_tool}}",
                prefilter="Calling tool ",
            )
        ]
    )
    d = str(tmp_path_factory.mktemp("transcripts"))
    write_transcripts(d, 4_000, n_files=4)
    out = str(tmp_path_factory.mktemp("run"))
    res = run_pipeline(d, out, registry=reg, partitions=2)
    assert res.rows_routed == 4_000
    routes = {
        dd.split("=", 1)[1]
        for p in ("partition=0", "partition=1")
        for dd in os.listdir(os.path.join(out, "sinks", p))
        if dd.startswith("route=")
    }
    # per-tool fan-out sinks plus the unmatched fallback
    assert {"tool_bash", "tool_read", "tool_search"} <= routes
    assert "unmatched" in routes
    # routed rows in tool_bash all extracted x_tool == bash
    t = pq.read_table(os.path.join(out, "sinks", "partition=0", "route=tool_bash"))
    assert set(t["x_tool"].to_pylist()) == {"bash"}


def test_per_route_schemas_reflect_route_captures(run):
    """Each route's _schema.json is that route's own merged dynamic
    schema (index_pattern_mappings analog, type_map.rs:160-172): the
    route's captures carry real types, other rules' captures stay null."""
    import json

    _, out_dir, _, _ = run

    def fields(route):
        p = os.path.join(out_dir, "_schemas", f"route={route}", "_schema.json")
        with open(p) as f:
            return {x["name"]: x["type"] for x in json.load(f)["fields"]}

    net = fields("net_event")
    assert net["x_ip"] == "string" and net["x_port"] == "int64"
    assert net["x_ts"] == "null"  # status's capture — absent on this route
    status = fields("status")
    assert status["x_ts"].startswith("timestamp")
    assert status["x_ip"] == "null"
    # the global rollup widens across routes
    with open(os.path.join(out_dir, "_schemas", "global.json")) as f:
        g = {x["name"]: x["type"] for x in json.load(f)["fields"]}
    assert g["x_ip"] == "string" and g["x_ts"].startswith("timestamp")


def test_null_text_rows_route_to_unmatched(ray_session, tmp_path_factory):
    """A Parquet input holding null ``text`` values runs through a whole
    flagship partition: those rows land in the unmatched route instead of
    failing the task (row-level error policy)."""
    table, _ = generate_transcripts(2_000, seed=11)
    null_at = pa.array([i % 97 == 0 for i in range(len(table))])
    n_null = sum(null_at.to_pylist())
    text = pc.if_else(null_at, pa.scalar(None, pa.string()), table["text"])
    table = table.set_column(table.schema.get_field_index("text"), "text", text)
    d = str(tmp_path_factory.mktemp("null_text"))
    pq.write_table(table, os.path.join(d, "part-00000.parquet"))
    out = str(tmp_path_factory.mktemp("run"))
    res = run_pipeline(d, out, partitions=1)
    assert res.rows_in == res.rows_routed == len(table)
    routed = pq.read_table(os.path.join(out, "sinks"))
    nulls = routed.filter(pc.is_null(routed["text"]))
    assert nulls.num_rows == n_null
    assert set(nulls["rule"].to_pylist()) == {"_unmatched"}
    assert set(nulls["route"].to_pylist()) == {"unmatched"}
    unmatched = sum(r["n"] for r in res.counts.to_pylist() if r["rule"] == "_unmatched")
    assert unmatched == pc.sum(pc.equal(routed["route"], "unmatched")).as_py()
