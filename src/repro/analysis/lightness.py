"""Lightness and sparsity — the paper's weight/size metrics (§1).

Lightness of H = ``w(H) / w(MST(G))``; sparsity = number of edges.  The
MST weight is computed with the library's deterministic Kruskal so every
benchmark normalizes against the same tree.
"""

from __future__ import annotations

from repro.graphs.weighted_graph import WeightedGraph
from repro.mst.kruskal import mst_weight


def lightness(graph: WeightedGraph, subgraph: WeightedGraph) -> float:
    """``w(subgraph) / w(MST(graph))``, both read from frozen views.

    ``w(subgraph)`` is the sum of the subgraph's frozen weight column
    (every edge twice, halved) and ``w(MST(graph))`` the sum of the MST
    triples that :func:`~repro.mst.kruskal.kruskal_mst` caches on the
    graph's view, so no tree is copied, and a graph whose MST a
    construction already found runs no Kruskal.  Both sums add the same
    weights as a walk over the label-level edge lists, in another order,
    so the value can differ from that walk's by round-off in its last
    bits.  A zero-weight MST (no edges) gives 1.0 for a weightless
    subgraph and ``inf`` otherwise.

    Raises
    ------
    ValueError
        If ``graph`` is disconnected (it has no MST).
    """
    denom = mst_weight(graph)
    view = subgraph.freeze()
    num = view.total_weight()
    if denom == 0:
        return 1.0 if num == 0 else float("inf")
    return num / denom


def sparsity(subgraph: WeightedGraph) -> int:
    """Number of edges of the subgraph (the paper's "size" column)."""
    return subgraph.m
