"""Message-level execution of the §5 case-1 cluster-graph simulation.

The §5 light spanner *simulates* the [EN17b] spanner on a cluster graph
G_i whose vertices are MST clusters.  Case 1 implements each [EN17b]
round in three phases over the communication graph G:

1. **Local phase** — each vertex computes, from the last broadcast, the
   maximum ``(m(B), s(B))`` over the clusters B adjacent to *it*;
2. **Convergecast phase** — the per-cluster maxima are aggregated to the
   BFS root, each tree vertex forwarding one message per cluster;
3. **Broadcast phase** — the root announces the new ``(s(A), m(A))`` of
   every cluster to the whole graph.

A final convergecast collects the spanner-edge candidates ("Consider a
vertex v ∈ A.  For every cluster B ... v will send ((u,v),(A,B))", §5).

This module runs those phases *natively* on the CONGEST simulator (the
keyed-max convergecast of :mod:`repro.congest.keyed_aggregate`, the
pipelined broadcast of :mod:`repro.congest.pipeline`), measuring real
rounds, and certifies at every round that the message-level state equals
the abstract cluster-level [EN17b] state — the simulation that the
ledger-based :func:`repro.core.light_spanner` charges for.  The
test-suite additionally checks the final edge set coincides with the
pure :func:`repro.spanners.elkin_neiman_spanner` run on the cluster
graph under the same shifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.congest.bfs import BFSTree
from repro.congest.keyed_aggregate import keyed_max_convergecast
from repro.congest.pipeline import broadcast_messages
from repro.congest.simulator import SyncNetwork
from repro.determinism import ensure_rng
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.spanners.elkin_neiman import sample_shifts

Cluster = Hashable


class ConvergecastInvariantError(RuntimeError):
    """The keyed convergecast lost a cluster's maximum.

    Every vertex of a cluster submits its best neighbouring message and
    the convergecast keeps each key's maximum, so the root must hold the
    same maximum the abstract [EN17b] round computes.  A typed error
    rather than an ``assert``, so ``python -O`` keeps it.
    """


@total_ordering
class _EdgeCandidate:
    """Convergecast value for edge collection: max value, then *min* via.

    [EN17b]'s tie-break (both in our pure and native implementations)
    keeps the lowest-id delivering neighbour on equal values; a plain
    tuple max would keep the highest, so the via comparison is inverted.
    """

    __slots__ = ("val", "via")

    def __init__(self, val: float, via: str) -> None:
        self.val = val
        self.via = via

    def __eq__(self, other) -> bool:
        return (self.val, self.via) == (other.val, other.via)

    def __gt__(self, other) -> bool:
        if self.val != other.val:
            return self.val > other.val
        return self.via < other.via  # prefer the smaller via on ties

    def __lt__(self, other) -> bool:
        return other > self and other != self

    def __repr__(self) -> str:
        return f"_EdgeCandidate({self.val!r}, {self.via!r})"


@dataclass
class ClusterSimulationResult:
    """Output of :func:`simulate_case1_bucket`.

    Attributes
    ----------
    edges:
        The selected cluster-graph spanner edges (frozenset pairs of
        cluster ids) — provably identical to the abstract [EN17b] run.
    rounds:
        Total *measured* communication rounds across all phases.
    round_breakdown:
        Per-[EN17b]-round (convergecast, broadcast) measured rounds.
    shifts:
        The exponential shifts used.
    cluster_graph:
        The cluster-level adjacency the simulation ran on — the abstract
        graph a reference [EN17b] run must use to certify the edges.
    """

    edges: Set[FrozenSet[Cluster]]
    rounds: int
    round_breakdown: List[Tuple[int, int]] = field(default_factory=list)
    shifts: Dict[Cluster, float] = field(default_factory=dict)
    cluster_graph: Dict[Cluster, Set[Cluster]] = field(default_factory=dict)


def simulate_case1_bucket(
    graph: WeightedGraph,
    tree: BFSTree,
    cluster_of: Dict[Vertex, Cluster],
    k: int,
    rng: Optional[random.Random] = None,
    shifts: Optional[Dict[Cluster, float]] = None,
    bucket_edges: Optional[List[Tuple[Vertex, Vertex]]] = None,
    network: Optional[SyncNetwork] = None,
) -> ClusterSimulationResult:
    """Run the case-1 simulation of one bucket at message level.

    Parameters
    ----------
    graph:
        The communication graph G.
    tree:
        The BFS tree τ used for convergecasts/broadcasts.
    cluster_of:
        The bucket's clustering (§5 case 1).
    bucket_edges:
        The E_i edges defining cluster adjacency; defaults to all edges
        of G.
    network:
        Reuse an existing :class:`SyncNetwork` over ``graph`` for every
        phase (e.g. to accumulate lifetime traffic counters or trace
        messages); a fresh network by default.

    Raises
    ------
    ValueError
        If ``k < 1`` or some vertex lacks a cluster.
    ConvergecastInvariantError
        If a round's convergecast delivers a cluster maximum that differs
        from the abstract one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for v in graph.vertices():
        if v not in cluster_of:
            raise ValueError(f"vertex {v!r} has no cluster")
    rng = ensure_rng(rng)

    if bucket_edges is None:
        bucket_edges = [(u, v) for u, v, _ in graph.edges()]
    # vertex-level adjacency to foreign clusters, via E_i edges only
    adjacent_clusters: Dict[Vertex, Set[Cluster]] = {v: set() for v in graph.vertices()}
    cluster_graph: Dict[Cluster, Set[Cluster]] = {
        c: set() for c in sorted(set(cluster_of.values()), key=repr)
    }
    for u, v in bucket_edges:
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue
        adjacent_clusters[u].add(cv)
        adjacent_clusters[v].add(cu)
        cluster_graph[cu].add(cv)
        cluster_graph[cv].add(cu)

    clusters = sorted(cluster_graph, key=repr)
    if shifts is None:
        # rt samples a value r_A for every cluster and broadcasts (§5)
        shifts = sample_shifts(clusters, k, rng)
    by_repr = {repr(c): c for c in clusters}

    # the globally-known cluster table (established by broadcasts)
    m: Dict[Cluster, float] = dict(shifts)
    source: Dict[Cluster, Cluster] = {c: c for c in clusters}
    # per-vertex local per-source tracking: src -> (val, via-cluster);
    # purely local knowledge (broadcast table + own incident edges)
    best_v: Dict[Vertex, Dict[Cluster, Tuple[float, Cluster]]] = {
        v: {} for v in graph.vertices()
    }

    net = network if network is not None else SyncNetwork(graph)
    total_rounds = 0
    breakdown: List[Tuple[int, int]] = []

    for _round in range(k):
        outgoing = {c: (source[c], m[c] - 1.0) for c in clusters}

        # local: every vertex records, per source, the best message among
        # the clusters adjacent to it (ties: lowest via id, matching the
        # pure/native [EN17b] tie-break)
        inputs: Dict[Vertex, Dict[Cluster, Tuple[float, str]]] = {}
        for v in graph.vertices():
            candidate = None
            for b in sorted(adjacent_clusters[v], key=repr):
                src, val = outgoing[b]
                cur = best_v[v].get(src)
                if cur is None or val > cur[0]:
                    best_v[v][src] = (val, b)
                entry = (val, repr(src))
                if candidate is None or entry > candidate:
                    candidate = entry
            if candidate is not None:
                inputs[v] = {cluster_of[v]: candidate}
        total_rounds += 1

        # convergecast phase: per-cluster maxima to the root (measured)
        merged, cc_rounds = keyed_max_convergecast(graph, tree, inputs, network=net)
        total_rounds += cc_rounds

        # certification: the message-level maxima equal the abstract ones
        for a in clusters:
            if cluster_graph[a]:
                expected = max(outgoing[b][1] for b in cluster_graph[a])
                got = merged.get(a)
                if got is None or got[0] != expected:
                    raise ConvergecastInvariantError(
                        f"convergecast must deliver every cluster's maximum, but "
                        f"cluster {a!r} got {got!r} where the abstract round has "
                        f"{expected!r}"
                    )

        for a, (val, src_r) in merged.items():
            if val > m[a]:
                m[a] = val
                source[a] = by_repr[src_r]

        # broadcast phase: the root announces the new table (measured)
        payloads = {tree.root: [(repr(c), m[c]) for c in clusters]}
        _, bc_rounds = broadcast_messages(graph, tree, payloads, network=net)
        total_rounds += bc_rounds
        breakdown.append((cc_rounds, bc_rounds))

    # edge collection: every vertex proposes its local candidates; the
    # keyed convergecast dedups per (cluster, source) pair (measured)
    edge_inputs: Dict[Vertex, Dict[Tuple[str, str], _EdgeCandidate]] = {}
    for v in graph.vertices():
        a = cluster_of[v]
        proposals = {}
        for src, (val, via) in best_v[v].items():
            if src == a:
                continue
            if val >= m[a] - 1.0:
                proposals[(repr(a), repr(src))] = _EdgeCandidate(val, repr(via))
        if proposals:
            edge_inputs[v] = proposals
    merged_edges, ec_rounds = keyed_max_convergecast(
        graph, tree, edge_inputs, network=net
    )
    total_rounds += ec_rounds

    edges: Set[FrozenSet[Cluster]] = set()
    for (a_r, src_r), cand in merged_edges.items():
        a = by_repr[a_r]
        if cand.val >= m[a] - 1.0:
            edges.add(frozenset((a, by_repr[cand.via])))
    return ClusterSimulationResult(
        edges=edges, rounds=total_rounds, round_breakdown=breakdown,
        shifts=shifts, cluster_graph=cluster_graph,
    )
