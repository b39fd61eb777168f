"""Baswana–Sen randomized (2k−1)-spanner [BS07].

§5 of the paper uses this algorithm verbatim for the low-weight bucket
``E' = {e : w(e) <= L/n}``: it bounds only the *number* of edges, but on E′
that suffices for lightness because each edge is so light.

The algorithm (weighted version): maintain a clustering, initially every
vertex its own cluster.  In each of ``k − 1`` phases, cluster centers are
sampled with probability ``n^{-1/k}``; a vertex adjacent to a sampled
cluster joins the nearest one (by lightest edge) and adds that edge plus
the lightest edge to every neighbouring cluster that beats it; a vertex
with no sampled neighbour adds the lightest edge to *every* neighbouring
cluster and retires.  A final phase connects every vertex to each adjacent
surviving cluster.  Stretch 2k−1 holds deterministically; the edge count is
O(k·n^{1+1/k}) in expectation.

Round cost in CONGEST: O(k) (the paper, footnote 9).
"""

from __future__ import annotations

import random

from typing import Dict, Hashable, Optional, Tuple, Union

from repro.congest.ledger import RoundLedger
from repro.determinism import ensure_rng
from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import WeightedGraph
from repro.mst.kruskal import edge_sort_key

Vertex = Hashable

#: Rounds charged per phase of the distributed implementation (constant
#: work per phase: sampling announcement, cluster-join, edge selection).
_ROUNDS_PER_PHASE = 3


def baswana_sen_spanner(
    graph: Union[WeightedGraph, CSRGraph],
    k: int,
    rng: Optional[random.Random] = None,
    ledger: Optional[RoundLedger] = None,
) -> WeightedGraph:
    """Build a (2k−1)-spanner of ``graph`` with expected O(k·n^{1+1/k}) edges.

    The "remaining" edge set the algorithm repeatedly scans and prunes is
    kept as the input's frozen CSR view plus a per-arc alive mask: cluster
    scans are integer-indexed row sweeps, and retiring an edge flips two
    bytes (the arc and its mirror) instead of two dict deletions.

    Parameters
    ----------
    graph:
        The input graph — a :class:`WeightedGraph` (frozen internally) or
        an already-frozen :class:`CSRGraph`.
    k:
        Stretch parameter (an integer >= 1); k = 1 returns the graph
        itself.
    rng:
        Random source (fresh unseeded one if omitted).
    ledger:
        Optional round ledger; charged ``3k`` rounds (the O(k) CONGEST
        cost with the library's fixed constant).

    Raises
    ------
    ValueError
        If ``k`` is not an integer >= 1.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if ledger is not None:
        ledger.charge("baswana-sen", _ROUNDS_PER_PHASE * k)
    csr = graph.freeze()
    if k == 1:
        return csr.to_weighted()
    rng = ensure_rng(rng)

    n = csr.n
    p = n ** (-1.0 / k) if n > 1 else 1.0
    indptr, indices, weights, verts = csr.indptr, csr.indices, csr.weights, csr.verts
    index_of = csr.index_of
    mirror = csr.mirror()
    alive = bytearray(b"\x01" * len(indices))
    spanner = WeightedGraph(verts)
    center: Dict[Vertex, Vertex] = {v: v for v in verts}

    def lightest_per_cluster(v: Vertex) -> Dict[Vertex, Tuple[float, Vertex]]:
        """Lightest remaining edge from ``v`` to each adjacent cluster.

        Weight-first comparison; the (deterministic) ``edge_sort_key``
        repr tie-break is only materialised on exact weight ties.
        """
        best: Dict[Vertex, Tuple[float, Vertex]] = {}
        i = index_of(v)
        a, b = indptr[i], indptr[i + 1]
        for s, ui in enumerate(indices[a:b], a):
            if not alive[s]:
                continue
            u = verts[ui]
            cu = center.get(u)
            if cu is None:
                continue
            w = weights[s]
            cur = best.get(cu)
            if cur is None or w < cur[0] or (
                w == cur[0] and edge_sort_key(v, u, w) < edge_sort_key(v, cur[1], cur[0])
            ):
                best[cu] = (w, u)
        return best

    def drop_edges_to_clusters(v: Vertex, clusters: set) -> None:
        """Retire all of ``v``'s remaining edges into any of ``clusters``
        (one row scan for the whole batch)."""
        i = index_of(v)
        a, b = indptr[i], indptr[i + 1]
        for s, ui in enumerate(indices[a:b], a):
            if alive[s] and center.get(verts[ui]) in clusters:
                alive[s] = 0
                alive[mirror[s]] = 0

    for _phase in range(1, k):
        centers = set(center.values())
        sampled = {c for c in centers if rng.random() < p}
        new_center: Dict[Vertex, Vertex] = {
            v: c for v, c in center.items() if c in sampled
        }
        # all vertices decide on the same snapshot of the alive mask (the
        # distributed algorithm is synchronous); drops apply afterwards
        additions = []
        drops = []
        for v in sorted(center, key=repr):
            if center[v] in sampled:
                continue
            best = lightest_per_cluster(v)
            sampled_adjacent = {c: e for c, e in best.items() if c in sampled}
            if not sampled_adjacent:
                # no sampled neighbour: connect to every adjacent cluster, retire
                for c, (w, u) in best.items():
                    additions.append((v, u, w))
                    drops.append((v, c))
            else:
                c_star, (w_star, u_star) = min(
                    sampled_adjacent.items(),
                    key=lambda item, v=v: edge_sort_key(v, item[1][1], item[1][0]),
                )
                additions.append((v, u_star, w_star))
                new_center[v] = c_star
                drops.append((v, c_star))
                for c, (w, u) in best.items():
                    if c == c_star:
                        continue
                    if w < w_star or (
                        w == w_star
                        and edge_sort_key(v, u, w) < edge_sort_key(v, u_star, w_star)
                    ):
                        additions.append((v, u, w))
                        drops.append((v, c))
        for v, u, w in additions:
            spanner.add_edge(v, u, w)
        drops_by_vertex: Dict[Vertex, set] = {}
        for v, c in drops:
            drops_by_vertex.setdefault(v, set()).add(c)
        for v, clusters in drops_by_vertex.items():
            drop_edges_to_clusters(v, clusters)
        center = new_center
        # intra-cluster edges are never needed again
        for i in range(n):
            ci = center.get(verts[i])
            if ci is None:
                continue
            for s in range(indptr[i], indptr[i + 1]):
                if alive[s] and indices[s] > i and center.get(verts[indices[s]]) == ci:
                    alive[s] = 0
                    alive[mirror[s]] = 0

    # final phase: every vertex buys the lightest edge to each adjacent cluster
    for v in sorted(verts, key=repr):
        best = lightest_per_cluster(v)
        for _c, (w, u) in best.items():
            spanner.add_edge(v, u, w)
    return spanner
