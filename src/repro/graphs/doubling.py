"""Doubling-dimension utilities (Definitions of §1.3 and Lemma 6).

A graph has doubling dimension ``ddim`` if every ball ``B(v, 2r)`` can be
covered by ``2^ddim`` balls of radius ``r``.  The §7 spanner's lightness and
sparsity bounds are parameterized by ``ddim`` through the packing property
(Lemma 6): a ``r``-separated set inside a radius-``R`` ball has at most
``(2R/r)^{O(ddim)}`` points.

These routines compute empirical estimates used by the test-suite (to check
the generators really produce low-ddim graphs) and by the benchmarks (to
report the measured packing constants next to the paper's bounds).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Set

from repro.graphs.shortest_paths import all_pairs_shortest_paths, dijkstra
from repro.graphs.weighted_graph import Vertex, WeightedGraph


def ball(graph: WeightedGraph, center: Vertex, radius: float) -> Set[Vertex]:
    """``B_G(v, r) = {u : d_G(u, v) <= r}`` (footnote 3 of the paper)."""
    dist, _ = dijkstra(graph, center)
    return {u for u, d in dist.items() if d <= radius}


def greedy_net_of_set(
    dist_from: Dict[Vertex, Dict[Vertex, float]], points: Iterable[Vertex], r: float
) -> List[Vertex]:
    """Greedy ``r``-net of ``points`` given a (partial) distance oracle.

    Sequential greedy: scan points, keep those farther than ``r`` from all
    kept points.  This is the inherently-sequential baseline the paper's §6
    distributed net construction replaces.
    """
    net: List[Vertex] = []
    for p in points:
        if all(dist_from[q].get(p, math.inf) > r for q in net):
            net.append(p)
    return net


def packing_number(graph: WeightedGraph, center: Vertex, radius: float, separation: float) -> int:
    """Max size of a ``separation``-separated subset of ``B(center, radius)``.

    Computed greedily (a 2-approximation of the true packing number, and an
    exact witness of Lemma 6's *shape*: the count must be bounded by
    ``(2*radius/separation)^{O(ddim)}``).
    """
    members = sorted(ball(graph, center, radius), key=repr)
    dist_from = {v: dijkstra(graph, v)[0] for v in members}
    return len(greedy_net_of_set(dist_from, members, separation))


#: centers :func:`doubling_dimension_estimate` samples
ESTIMATE_CENTERS = 8


def doubling_dimension_estimate(graph: WeightedGraph) -> float:
    """Empirical doubling-dimension estimate.

    For :data:`ESTIMATE_CENTERS` evenly spaced centers and doubling
    radii, count the greedy number of radius-``r`` balls needed to cover
    ``B(v, 2r)`` (upper-bounded by a greedy ``r``-net of the ball) and
    return ``log2`` of the worst count.
    Exact on small graphs; an estimate (not a certificate) in general.
    """
    if graph.n <= 1:
        return 0.0
    apsp = all_pairs_shortest_paths(graph)
    vertices = sorted(graph.vertices(), key=repr)
    step = max(1, len(vertices) // ESTIMATE_CENTERS)
    centers = vertices[::step][:ESTIMATE_CENTERS]
    diameter = max(max(d.values()) for d in apsp.values())
    worst = 1
    r = max(1.0, diameter / 64)
    while r <= diameter:
        for c in centers:
            members = [u for u, d in apsp[c].items() if d <= 2 * r]
            net = greedy_net_of_set(apsp, members, r)
            worst = max(worst, len(net))
        r *= 2
    return math.log2(worst)
