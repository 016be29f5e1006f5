"""Connected components: oracle = an in-test union-find (transitive
closure ground truth), exercised on cliques, chains, random graphs and
the dedup wiring (cluster losers)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from ulp_ray.stages import aggregate
from ulp_ray.stages.graph import component_losers, connected_components


def _union_find(pairs):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min-id representative per component
    comp = {}
    for n in list(parent):
        r = find(n)
        comp.setdefault(r, []).append(n)
    out = {}
    for members in comp.values():
        rep = min(members)
        for m in members:
            out[m] = rep
    return out


def _run(pairs, bound=None, **kw):
    """Components as a dict; ``bound`` sets the driver bound
    ``aggregate.DRIVER_FOLD_MAX_ROWS`` that picks the regime."""
    t = pa.table(
        {
            "id_a": pa.array([a for a, _ in pairs], pa.int64()),
            "id_b": pa.array([b for _, b in pairs], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    with pytest.MonkeyPatch.context() as m:
        if bound is not None:
            m.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", bound)
        df = connected_components(ds, **kw).to_pandas()
    return dict(zip(df["node"], df["component"]))


def test_two_cliques_and_bridge(ray_session):
    pairs = [(1, 3), (2, 3), (10, 11), (11, 12), (10, 12)]
    assert _run(pairs) == _union_find(pairs)


def test_long_chain_exceeds_one_round(ray_session):
    # diameter 9: forces multiple propagation rounds
    pairs = [(i, i + 1) for i in range(100, 110)]
    got = _run(pairs)
    assert got == _union_find(pairs)
    assert set(got.values()) == {100}


def test_random_graph_matches_union_find(ray_session):
    rng = np.random.default_rng(7)
    nodes = rng.choice(10_000, size=400, replace=False)
    pairs = [
        (int(nodes[i]), int(nodes[j]))
        for i, j in rng.integers(0, len(nodes), size=(300, 2))
        if i != j
    ]
    assert _run(pairs) == _union_find(pairs)


def test_duplicate_and_reversed_pairs_are_harmless(ray_session):
    pairs = [(5, 9), (9, 5), (5, 9), (9, 20)]
    got = _run(pairs)
    assert got == {5: 5, 9: 5, 20: 5}


def test_empty_pairs(ray_session):
    t = pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
    )
    out = connected_components(ray.data.from_arrow(t))
    assert out.count() == 0
    assert set(out.schema().names) == {"node", "component"}


def test_rejects_non_integer_ids(ray_session):
    t = pa.table({"id_a": ["x"], "id_b": ["y"]})
    with pytest.raises(ValueError, match="integer node ids"):
        connected_components(ray.data.from_arrow(t))


def test_component_losers_keeps_min_per_cluster(ray_session):
    # {1,2,3} + {7,8}: survivors 1 and 7, losers the rest
    pairs = [(1, 3), (2, 3), (7, 8)]
    t = pa.table(
        {
            "id_a": pa.array([a for a, _ in pairs], pa.int64()),
            "id_b": pa.array([b for _, b in pairs], pa.int64()),
        }
    )
    losers = sorted(
        component_losers(ray.data.from_arrow(t)).to_pandas()["node"].tolist()
    )
    assert losers == [2, 3, 8]


def test_max_iters_guard(ray_session, monkeypatch):
    # only the huge-V dataset fallback can realistically hit the guard
    # (the actor path pointer-jumps to closure every round, so 64 rounds
    # cover diameter ~2^64); force it with a zero driver bound and a
    # single round on a diameter-10 chain
    pairs = [(i, i + 1) for i in range(50, 60)]
    t = pa.table(
        {
            "id_a": pa.array([a for a, _ in pairs], pa.int64()),
            "id_b": pa.array([b for _, b in pairs], pa.int64()),
        }
    )
    monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(ray.data.from_arrow(t), max_iters=1)


def test_actor_path_long_chain(ray_session):
    """The label-only-exchange actor path (a driver bound between the
    201 nodes and the 400 symmetric edges) solves an adversarial chain —
    the shape the pre-r5 distributed rounds could only handle in
    diameter rounds — and matches union-find exactly."""
    pairs = [(i, i + 1) for i in range(1000, 1200)]  # diameter 200
    got = _run(pairs, bound=300)
    assert got == _union_find(pairs)
    assert set(got.values()) == {1000}


def test_dataset_path_pointer_jump_chain(ray_session):
    """The huge-V dataset fallback (a zero driver bound) converges on
    a diameter-40 chain within well under 40 hook rounds thanks to the
    per-round pointer jump (max_iters=10 would abort without it)."""
    pairs = [(i, i + 1) for i in range(300, 340)]
    got = _run(pairs, bound=0, max_iters=10)
    assert got == _union_find(pairs)


def test_distributed_path_matches_driver_path(ray_session):
    """The actor path (a driver bound between the 195 nodes and the 300
    symmetric edges) and the numpy driver solve agree exactly — and so
    do the dataset propagation rounds with their distributed min fold
    and separate convergence-sum pass (a zero driver bound)."""
    rng = np.random.default_rng(21)
    pairs = [
        (int(a), int(b))
        for a, b in rng.integers(0, 300, size=(150, 2))
        if a != b
    ]
    assert _run(pairs, bound=250) == _run(pairs)
    assert _run(pairs, bound=0) == _union_find(pairs)
    assert _run(pairs) == _union_find(pairs)


def test_actor_path_above_2m_edges_matches_driver_solve(ray_session, monkeypatch):
    """VERDICT r4 #5 done-criterion: a >2M-edge graph through the REAL
    distributed path (the default driver bound — 2×1.05M symmetric edges
    exceed it) equals the driver numpy solve."""
    rng = np.random.default_rng(11)
    a = rng.integers(0, 50_000, size=1_050_000, dtype=np.int64)
    b = rng.integers(0, 50_000, size=1_050_000, dtype=np.int64)
    keep = a != b
    t = pa.table({"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep])})
    ds = ray.data.from_arrow(t)
    dist = connected_components(ds).to_pandas()
    monkeypatch.setattr(aggregate, "DRIVER_FOLD_MAX_ROWS", 1 << 40)
    drv = connected_components(ds).to_pandas()
    got = dict(zip(dist["node"], dist["component"]))
    want = dict(zip(drv["node"], drv["component"]))
    assert got == want


def test_rejects_uint64_ids(ray_session):
    t = pa.table(
        {
            "id_a": pa.array([2**63 + 5], pa.uint64()),
            "id_b": pa.array([7], pa.uint64()),
        }
    )
    with pytest.raises(ValueError, match="uint64"):
        connected_components(ray.data.from_arrow(t))
