"""Sequential MST (Kruskal) — the ground truth the distributed MST is
validated against, and the direct source of the tree T for the composed
constructions (DESIGN.md, "Substitutions").

Edge comparison uses the total order ``(weight, canonical endpoints)`` so
the MST is *unique* even with repeated weights; the Borůvka construction
uses the same order, hence both produce the identical tree.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import WeightedGraph, canonical_edge

Vertex = Hashable


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    def __init__(self) -> None:
        self._parent: Dict[Vertex, Vertex] = {}
        self._size: Dict[Vertex, int] = {}

    def add(self, v: Vertex) -> None:
        """Register ``v`` as a singleton (no-op if present)."""
        if v not in self._parent:
            self._parent[v] = v
            self._size[v] = 1

    def find(self, v: Vertex) -> Vertex:
        """Representative of ``v``'s set."""
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:  # path compression
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, u: Vertex, v: Vertex) -> bool:
        """Merge the sets of ``u`` and ``v``; False if already merged."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self._size[ru] < self._size[rv]:
            ru, rv = rv, ru
        self._parent[rv] = ru
        self._size[ru] += self._size[rv]
        return True

    def same(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``u`` and ``v`` are in the same set."""
        return self.find(u) == self.find(v)


def edge_sort_key(u: Vertex, v: Vertex, w: float) -> Tuple[float, str, str]:
    """Total order on edges: weight, then canonical endpoint names."""
    a, b = canonical_edge(u, v)
    return (w, repr(a), repr(b))


def _kruskal_edges(csr: CSRGraph) -> List[Tuple[int, int, float]]:
    """The MST of ``csr`` as ``(i, j, w)`` index triples, ``i < j``, in
    the order Kruskal accepts them.

    One stable sort keyed on weight runs over the slot numbers of the
    edges, which ascend in ``csr.edges()`` order; each run of equal
    weights is then re-sorted by :func:`edge_sort_key`, which yields
    exactly the order of ``sorted(csr.edges(), key=edge_sort_key)``.
    """
    indptr, indices, weights, verts = csr.indptr, csr.indices, csr.weights, csr.verts
    n = len(verts)
    heads = [0] * len(indices)  # heads[s]: the vertex whose row holds slot s
    for i in range(n):
        a, b = indptr[i], indptr[i + 1]
        heads[a:b] = [i] * (b - a)
    order = sorted(
        [s for s, (i, j) in enumerate(zip(heads, indices)) if i < j],
        key=weights.__getitem__,
    )
    uf = UnionFind()
    for i in range(n):
        uf.add(i)
    tree: List[Tuple[int, int, float]] = []
    start, total = 0, len(order)
    while start < total and len(tree) < n - 1:
        w = weights[order[start]]
        end = start + 1
        while end < total and weights[order[end]] == w:
            end += 1
        run = order[start:end]
        if len(run) > 1:
            run.sort(key=lambda s: edge_sort_key(verts[heads[s]], verts[indices[s]], w))
        for s in run:
            i, j = heads[s], indices[s]
            if uf.union(i, j):
                tree.append((i, j, w))
                if len(tree) == n - 1:
                    break
        start = end
    if n > 0 and len(tree) != n - 1:
        raise ValueError("graph is disconnected; MST does not exist")
    return tree


def kruskal_mst(graph: "WeightedGraph | CSRGraph") -> WeightedGraph:
    """The unique MST of ``graph`` under the deterministic edge order.

    Accepts a :class:`WeightedGraph` (frozen to its cached CSR view) or a
    :class:`~repro.graphs.csr.CSRGraph` directly.  The tree's index
    edges are computed once per frozen graph and cached on it, so the
    constructions and the reports that all ask for the MST of one
    unchanged graph share one Kruskal run; a mutation drops the view and
    its cached tree together.

    Returns
    -------
    WeightedGraph
        A fresh tree spanning all of ``graph``'s vertices, its edges
        added in the order Kruskal accepts them.

    Raises
    ------
    ValueError
        If ``graph`` is disconnected (no spanning tree exists).
    """
    csr = graph.freeze() if isinstance(graph, WeightedGraph) else graph
    verts = csr.verts
    tree = WeightedGraph(verts)
    for i, j, w in csr.mst_edges(_kruskal_edges):
        tree.add_edge(verts[i], verts[j], w)
    return tree
