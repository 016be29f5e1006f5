"""Distributed connected components over a pair/edge Dataset.

Near-dup dedup emits PAIRS (``ngram_jaccard_pairs``, ``minhash_dedup``,
``embedding_neardup`` — `stages/dedup.py`), but similarity is not
transitive: pairs (1,3) and (2,3) put 1, 2, 3 in one duplicate CLUSTER
even though (1,2) was never emitted. Cluster-level dedup (keep one
representative per connected component — the semantics of the classic
web-scale MinHash dedup pipelines) therefore needs the transitive
closure of the pair graph. This module computes it as iterative
*hash-min label propagation*:

- every node starts labeled with its own id;
- each round, every node takes the min of its own label and its
  neighbors' labels (messages flow along the symmetric edge list);
- fixpoint: every node's label is the min id of its component.

Scale shape, three regimes, all cut at the one driver bound
``aggregate.DRIVER_FOLD_MAX_ROWS`` (2M, read at call time) that every
combiner fold obeys:

- **E ≤ the bound**: the materialized edge list solves ON THE DRIVER
  with vectorized hash-min + pointer jumping — O(log n) numpy rounds,
  no per-round Ray executions.
- **E above, V ≤ the bound** (the common dedup regime — pair graphs
  have far fewer touched nodes than edges): the LABEL-ONLY-EXCHANGE
  path. Edge blocks ship to a pool of resident actors EXACTLY ONCE
  (zero-copy block refs, converted to sorted numpy index arrays in
  ``__init__``); each round broadcasts the O(V) label vector via
  ``ray.put`` and every actor answers with its pre-reduced sparse
  (distinct-dst, min-label) pair — a ``np.minimum.reduceat`` over the
  resident shard, no Python loops. The driver folds the sparse minima
  and pointer-jumps the label forest to closure, so rounds are
  O(log diameter), and the O(E) edge rows never move after the
  initial placement.
- **V above the bound**: dataset propagation rounds — each round
  co-groups the materialized symmetric edge list with the current
  labels on ``src`` (``_bucket.co_group``) and folds the messages with
  the labels through ``aggregate.fold_partials`` (min label per node),
  followed by one POINTER-JUMP round (label-of-label over the O(V)
  label table only), so chain-shaped graphs converge in O(log
  diameter) rounds instead of O(diameter). Honest cost note: the
  co-group re-shuffles the O(E) fixed-width edge rows every hook
  round — the actor path above exists precisely to avoid that; this
  fallback engages only when even the label table exceeds the driver
  bound. The edge-REWRITING alternative for that regime is
  large-star/small-star (Kiveris et al., "Connected Components in
  MapReduce and Beyond", SoCC'14).

Convergence is detected exactly: labels only ever DECREASE (each node's
new label is min(own, incoming)), so the total label sum is strictly
decreasing until the fixpoint — equal sums ⇔ converged. The sum is
computed in decimal128(38) partials (int64 would overflow at
~10⁹ nodes × 2⁶³-scale ids), folded to a Python int on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote

__all__ = ["connected_components", "component_losers"]

_DEC = pa.decimal128(38, 0)


def _exact_label_sum(labels) -> int:
    """Exact total of the label column: per-block decimal128 partial
    sums (one row per block), Python-int fold on the driver."""
    from .._env import remote_env

    def partial(batch: pa.Table) -> pa.Table:
        s = pc.sum(batch["label"].cast(_DEC), min_count=0)
        return pa.table({"s": pa.array([s.as_py()], type=_DEC)})

    parts = labels.map_batches(
        partial, batch_format="pyarrow", batch_size=None, **remote_env()
    )
    total = 0
    for b in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        for v in b["s"]:
            total += int(v.as_py())
    return total


def _min_by_node(t: pa.Table) -> pa.Table:
    """Partial and fold of the label rollup: min(label) per node."""
    g = t.group_by(["node"]).aggregate([("label", "min")])
    return pa.table({"node": g["node"], "label": g["label_min"]})


class _EdgeShardImpl:
    """Resident edge shard for the label-only-exchange CC path.

    ``__init__`` (once per actor): fetch the shard's edge blocks,
    convert endpoints to indices into the sorted node array, sort by
    destination and precompute segment starts — so every ``propagate``
    is two C-level gathers + one ``np.minimum.reduceat``.
    """

    def __init__(self, block_refs, nodes):
        # ``nodes`` is passed as a top-level ObjectRef and auto-resolved
        # by Ray to a zero-copy plasma view; ``block_refs`` is a LIST of
        # refs (deliberately nested so they are NOT resolved up front)
        import ray

        srcs, dsts = [], []
        for t in ray.get(list(block_refs)):
            if len(t):
                srcs.append(
                    np.searchsorted(
                        nodes, t["src"].to_numpy(zero_copy_only=False)
                    )
                )
                dsts.append(
                    np.searchsorted(
                        nodes, t["dst"].to_numpy(zero_copy_only=False)
                    )
                )
        src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
        dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
        order = np.argsort(dst, kind="stable")
        dst_s = dst[order]
        self._src_s = src[order]
        if len(dst_s):
            starts = np.flatnonzero(np.r_[True, dst_s[1:] != dst_s[:-1]])
            self._uniq = dst_s[starts]
            self._starts = starts
        else:
            self._uniq = np.empty(0, np.int64)
            self._starts = np.empty(0, np.int64)

    def propagate(self, lab: "np.ndarray"):
        """One hook round over the resident shard: (distinct dst index,
        min incoming label) — pre-reduced, so the reply is O(distinct
        dst in shard), never O(shard edges)."""
        if not len(self._uniq):
            return self._uniq, self._uniq
        return self._uniq, np.minimum.reduceat(lab[self._src_s], self._starts)


def _actor_components(edges_raw, nodes: "np.ndarray", n_edges: int, max_iters: int):
    """Distributed solve with label-only exchange (V within the driver
    bound, E unbounded): edge rows ship to resident actors exactly
    once; each round moves 8·V label bytes out (one ``ray.put``,
    zero-copy read per co-located actor) and the sparse per-shard
    minima back. The driver folds and pointer-jumps to
    closure, so rounds are O(log diameter)."""
    import ray
    import ray.data

    nodes_ref = ray.put(nodes)
    refs = edges_raw.to_arrow_refs()
    # actors RESERVE their CPU for their whole lifetime (unlike tasks),
    # so the pool must never exceed the cluster's CPU count: a pool of
    # cpus×k would leave (k−1)/k of the actors pending forever and their
    # propagate futures unresolvable. Also bound by shard usefulness
    # (≥ ~250k edges per actor) so tiny graphs don't spawn idle actors.
    try:
        cpus = int(ray.cluster_resources().get("CPU", 1))
    except Exception:  # pragma: no cover - cluster probe
        cpus = 1
    n_actors = max(1, min(len(refs), cpus, -(-n_edges // 250_000)))
    shard_cls = remote(_EdgeShardImpl, num_cpus=1)
    actors = [
        shard_cls.remote(refs[i::n_actors], nodes_ref) for i in range(n_actors)
    ]
    try:
        lab = np.arange(len(nodes), dtype=np.int64)
        for _ in range(max_iters):
            lab_ref = ray.put(lab)
            futs = [a.propagate.remote(lab_ref) for a in actors]
            new = lab.copy()
            while futs:
                done, futs = ray.wait(futs, num_returns=1)
                uniq, red = ray.get(done[0])
                new[uniq] = np.minimum(new[uniq], red)
            while True:  # pointer-jump the label forest to closure
                j = new[new]
                if np.array_equal(j, new):
                    break
                new = j
            if np.array_equal(new, lab):
                break
            lab = new
        else:
            raise RuntimeError(
                f"connected_components did not converge in {max_iters} "
                "rounds — unreachable for any graph with ≤ 2^max_iters "
                "nodes given per-round pointer jumping; raise max_iters"
            )
    finally:
        for a in actors:
            ray.kill(a)
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "component": pa.array(nodes[lab], pa.int64()),
            }
        )
    )


def _driver_components(src: "np.ndarray", dst: "np.ndarray"):
    """Vectorized in-memory solve for small edge sets: hash-min label
    propagation with pointer jumping (Shiloach–Vishkin style), O(log n)
    rounds of O(E) numpy work. ``src``/``dst`` must be the symmetric
    edge list. Returns ``(nodes, components)`` int64 arrays."""
    import numpy as np

    nodes, edge_idx = np.unique(np.concatenate([src, dst]), return_inverse=True)
    src_i = edge_idx[: len(src)]
    dst_i = edge_idx[len(src):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        old = lab.copy()
        # hook: every node takes the min of its neighbors' labels
        np.minimum.at(lab, dst_i, old[src_i])
        # pointer jump: shortcut label chains (labels are node indices,
        # and nodes is sorted, so the min index IS the min node id)
        lab = np.minimum(lab, lab[lab])
        if np.array_equal(lab, old):
            break
    return nodes, nodes[lab]


def connected_components(
    pairs,
    id_a: str = "id_a",
    id_b: str = "id_b",
    buckets: int | None = None,
    max_iters: int = 64,
):
    """Connected components of the undirected graph given by ``pairs``.

    Returns a Dataset ``(node, component)`` — one row per node that
    appears in any pair, ``component`` = the smallest node id reachable
    from it. Nodes with no pairs don't appear (they are their own
    singleton components; callers union them in if needed —
    :func:`component_losers` does exactly that implicitly by treating
    absence as survival).

    Three regimes, cut at ``aggregate.DRIVER_FOLD_MAX_ROWS`` (module
    docstring for the full rationale): up to that many symmetric edges
    the materialized edge list solves on the driver (vectorized
    hash-min + pointer jumping); above it, with the node count within
    the same bound, the LABEL-ONLY-EXCHANGE actor path runs (edges
    placed once, O(V) label broadcast per round); only when even the
    node count exceeds the bound do the dataset propagation rounds run
    (a ``co_group`` hook over the edge list + pointer-jump rounds over
    the label table, each folded through ``fold_partials``). All paths
    are exact and pinned equal by tests.

    Node ids must be an integer type (they are compared with ``min`` and
    summed for the convergence check); dictionary-encode string ids
    upstream if needed. ``buckets=None`` resolves cluster-scaled with
    the rows-aware cap applied against the MATERIALIZED edge count
    (free to know, unlike the transformed input's) — the per-bucket
    fixed cost repeats every propagation round, so over-fan-out hurts
    this stage more than one-shot co-groups.
    """
    import ray

    from .._env import remote_env
    from . import aggregate
    from ._bucket import co_group, resolve_buckets

    # one driver bound for the edge list, the node array and the label
    # fold: the count_rollup discipline, read at call time
    bound = aggregate.DRIVER_FOLD_MAX_ROWS

    def min_rollup(ds):
        return aggregate.fold_partials(
            ds, ["node"], _min_by_node, _min_by_node
        ).materialize()

    def _check_types(names, types_):
        t = dict(zip(names, types_))
        for c in (id_a, id_b):
            ct = t.get(c)
            if ct is None or not pa.types.is_integer(ct):
                raise ValueError(
                    f"connected_components needs integer node ids; column "
                    f"{c!r} is {ct} — dictionary-encode string ids first"
                )
            if pa.types.is_unsigned_integer(ct) and ct.bit_width == 64:
                # 64-bit content-hash ids can exceed int64; a wrapped
                # cast would reorder MIN semantics — fail loudly instead
                raise ValueError(
                    f"connected_components: column {c!r} is uint64, which "
                    "can overflow the int64 label domain — reindex node "
                    "ids (or cast explicitly if values are < 2^63) first"
                )

    # validate on the driver ONLY when the schema is already known —
    # ``.schema()`` on a lazy pipeline (the usual ``ngram_jaccard_pairs``
    # feed) EXECUTES it, and the materialize below would then run it a
    # second time; lazy inputs validate inside the first batch instead
    known = pairs.schema(fetch_if_missing=False)
    if known is not None:
        _check_types(known.names, known.types)

    # symmetric edge list, materialized once and reused every round
    def sym(batch: pa.Table) -> pa.Table:
        _check_types(batch.schema.names, batch.schema.types)
        a = batch[id_a].cast(pa.int64()).combine_chunks()
        b = batch[id_b].cast(pa.int64()).combine_chunks()
        t = pa.table(
            {
                "src": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
            }
        )
        return t.filter(pc.and_(pc.is_valid(t["src"]), pc.is_valid(t["dst"])))

    edges_raw = pairs.map_batches(
        sym, batch_format="pyarrow", **remote_env()
    ).materialize()
    n_edges = edges_raw.count()
    if n_edges == 0:
        empty = pa.table(
            {"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())}
        )
        return ray.data.from_arrow(empty)
    if n_edges <= bound:
        # the count_rollup discipline: below the bound the whole
        # (fixed-width) edge list folds on the driver — a distributed
        # round costs one full Ray execution (union → sort-shuffle →
        # co-group) and repeats per graph diameter, which dwarfs a
        # numpy solve for small pair graphs. 2M edges ≈ 32 MB.
        cols = [
            pa.concat_tables(
                list(edges_raw.iter_batches(batch_format="pyarrow", batch_size=None))
            )[c].to_numpy(zero_copy_only=False)
            for c in ("src", "dst")
        ]
        nodes, comps = _driver_components(cols[0], cols[1])
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "component": pa.array(comps, pa.int64()),
                }
            )
        )

    # initial labels: every node labels itself (distinct src covers all
    # nodes because the edge list is symmetric)
    def self_label(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["src"]).aggregate([])
        return pa.table({"node": g["src"], "label": g["src"]})

    labels = min_rollup(
        edges_raw.map_batches(self_label, batch_format="pyarrow", **remote_env())
    )
    n_nodes = labels.count()
    if n_nodes <= bound:
        # the common dedup regime (V ≪ E): label-only exchange — the
        # node array obeys the same driver-memory discipline as the
        # count_rollup fold (≤ bound × 8 bytes)
        parts = [
            b["node"].combine_chunks().to_numpy(zero_copy_only=False)
            for b in labels.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        nodes = np.sort(np.concatenate(parts))
        return _actor_components(edges_raw, nodes, n_edges, max_iters)
    prev_sum = _exact_label_sum(labels)

    # huge-V fallback: dataset propagation rounds (hook over the padded
    # edge list + one pointer-jump round over the label table)
    # the edge count is free once materialized — resolve the bucket
    # count rows-aware even though the input was a transformed Dataset
    buckets = resolve_buckets(buckets, n_edges)

    # co-group schemas, given: schema() would run the lazy relabels
    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    label_schema = pa.schema([("src", pa.int64()), ("label", pa.int64())])

    def as_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"src": batch["node"], "label": batch["label"]})

    def as_jump_edges(batch: pa.Table) -> pa.Table:
        # the label table REINTERPRETED as directed edges label → node:
        # co-grouping them with the labels themselves delivers
        # label[label[node]] — one pointer jump, O(V) rows only
        return pa.table({"src": batch["label"], "dst": batch["node"]})

    def propagate(eg: pa.Table, ng: pa.Table) -> pa.Table:
        # one vectorized body per bucket: edges (src, dst) ⋈ labels
        # (src=node, label) on src → message (node=dst, label)
        out = eg.to_pandas().merge(ng.to_pandas(), on="src", how="inner")
        msg = pa.table(
            {
                "node": pa.array(out["dst"].to_numpy(), pa.int64()),
                "label": pa.array(out["label"].to_numpy(), pa.int64()),
            }
        )
        return msg

    # block-count discipline for the iterated label table: a sort-based
    # shuffle emits ~as many blocks as it receives, so without a bound
    # the recurrence blocks(labels)' = blocks(edges) + 2·blocks(labels)
    # grows EXPONENTIALLY across rounds (measured: 121 label rows spread
    # over 1555 blocks by round 6 — 1555 tasks per tiny map). Coalesce
    # the materialized labels whenever they fragment past 2× the bucket
    # fan-out; one bounded O(V) exchange per round buys back thousands
    # of per-block task launches.
    label_blocks = max(1, min(int(buckets), 64))

    def one_round(edge_side, labels_in):
        as_src = labels_in.map_batches(
            as_labels, batch_format="pyarrow", **remote_env()
        )
        msgs = co_group(
            [(edge_side, edge_schema), (as_src, label_schema)],
            ["src"],
            propagate,
            buckets,
        )
        new_labels = min_rollup(msgs.union(labels_in))
        if new_labels.num_blocks() > 2 * label_blocks:
            new_labels = new_labels.repartition(label_blocks).materialize()
        return new_labels, _exact_label_sum(new_labels)

    for it in range(max_iters):
        # hook: propagate along the resident real edges
        labels, hook_sum = one_round(edges_raw, labels)
        if hook_sum == prev_sum:
            # hook fixpoint ⇒ labels constant per component ⇒ done (a
            # jump could not change anything either)
            break
        prev_sum = hook_sum
        if it == 0:
            # near-clique dedup graphs converge in 1-2 hooks — don't pay
            # a jump exchange before the second hook has even run
            continue
        # compress: one pointer jump — only the O(V) label table moves,
        # so chain-shaped graphs converge in O(log diameter) rounds
        jump_edges = labels.map_batches(
            as_jump_edges, batch_format="pyarrow", **remote_env()
        )
        labels, prev_sum = one_round(jump_edges, labels)
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds "
            "(with per-round pointer jumping this needs a graph of "
            "diameter ≳ 2^max_iters — raise max_iters)"
        )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "component": batch["label"]})

    return labels.map_batches(rename, batch_format="pyarrow", **remote_env())


def component_losers(pairs, id_a: str = "id_a", id_b: str = "id_b", **kw):
    """Ids to DROP for cluster-level dedup: every node of the pair graph
    except the min-id representative of its component. The complement of
    the survivors under transitive-closure semantics — feed to
    ``bucketed_anti_join`` exactly like a pair-loser set. Nodes absent
    from ``pairs`` never appear (they survive implicitly)."""
    comp = connected_components(pairs, id_a=id_a, id_b=id_b, **kw)
    return comp.filter(expr="node != component").select_columns(["node"])
