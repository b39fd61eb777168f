"""Least-Element (LE) lists — Definition 1 of the paper.

Given a permutation π on a vertex subset A, the LE list of v is::

    LE(v) = {(u, d(u, v)) : u ∈ A, no w ∈ A with d(v, w) <= d(v, u)
                                         and π(w) < π(u)}

i.e. u joins v's list iff u is first in π among all A-vertices within
distance d(v, u) of v.  [KKM+12]: with a uniformly random π, every list
has O(log |A|) entries w.h.p.

[FL16] compute LE lists in CONGEST, not for G itself but for a graph H
with ``d_G <= d_H <= (1+δ)·d_G`` (Theorem 4 of the paper).  Per DESIGN.md,
"Substitutions", we realize H concretely — G with every weight rounded up to
the next power of (1+δ) — and compute *exact* LE lists on it with Cohen's
pruned-Dijkstra sweep: process u in increasing π order; Dijkstra from u,
pruned at vertices whose current best (earlier-π) distance is <= the
tentative one.  The round cost is charged with the [FL16] bound
``(√n + D) · 2^{Õ(√(log n · log(1/δ)))}``.
"""

from __future__ import annotations

import heapq
import math
import random

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.congest.ledger import RoundLedger
from repro.determinism import ensure_rng
from repro.graphs.csr import round_up_weights
from repro.graphs.weighted_graph import Vertex, WeightedGraph

INF = float("inf")


@dataclass
class LEListResult:
    """LE lists w.r.t. a (1+δ)-approximating graph H.

    Attributes
    ----------
    lists:
        Vertex → list of ``(u, d_H(u, v))`` entries in increasing-π /
        decreasing-distance order (the natural Cohen order).
    pi:
        The permutation used: vertex → rank.
    delta:
        The approximation parameter of H.
    rounds:
        Charged CONGEST rounds ([FL16] cost).
    """

    lists: Dict[Vertex, List[Tuple[Vertex, float]]]
    pi: Dict[Vertex, int]
    delta: float
    rounds: int = 0

    def max_list_length(self) -> int:
        """Longest LE list (w.h.p. O(log n) for uniform π — [KKM+12])."""
        return max((len(lst) for lst in self.lists.values()), default=0)


def fl16_round_cost(n: int, height: int, delta: float) -> int:
    """Charged rounds for one [FL16] LE-list computation.

    ``(√n + D) · 2^{Õ(√(log n · log(1/δ)))}`` with the Õ's polylog taken
    as 1 and the constant in the exponent as 1 (fixed once, library-wide).
    """
    if n <= 1:
        return 1
    sqrt_n = math.isqrt(n - 1) + 1
    exponent = math.ceil(math.sqrt(math.log2(n + 1) * math.log2(1.0 / max(delta, 1e-9) + 2)))
    return (sqrt_n + height) * (2 ** exponent)


def _rounded_graph(graph: WeightedGraph, delta: float) -> WeightedGraph:
    """The concrete H of Theorem 4: weights rounded up to powers of 1+δ."""
    if delta <= 0:
        return graph
    weights = [w for _u, _v, w in graph.edges()]
    rounded = dict(zip(weights, round_up_weights(weights, delta)))
    return graph.reweighted(lambda _u, _v, w: rounded[w])


def compute_le_lists(
    graph: WeightedGraph,
    active: Iterable[Vertex],
    delta: float = 0.0,
    rng: Optional[random.Random] = None,
    pi: Optional[Dict[Vertex, int]] = None,
    bfs_height: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    phase: str = "le-lists",
) -> LEListResult:
    """Compute LE lists of every vertex w.r.t. the active set A.

    Parameters
    ----------
    graph:
        The underlying graph G.
    active:
        The set A ⊆ V the permutation ranges over (Theorem 4's adaptation:
        "their algorithm was given in the case A = V, but it is a simple
        adaptation").  Lists are computed for *all* vertices of G.
    delta:
        Approximation parameter of H (0 = exact distances).
    rng / pi:
        Either a random source (a uniform permutation is sampled, as
        Theorem 4 does) or an explicit permutation (vertex → rank).
    """
    active = list(active)
    if pi is None:
        rng = ensure_rng(rng)
        order = list(active)
        rng.shuffle(order)
        pi = {v: i for i, v in enumerate(order)}
    else:
        order = sorted(active, key=lambda v: pi[v])

    n = graph.n
    height = bfs_height if bfs_height is not None else (math.isqrt(max(n - 1, 0)) + 1)
    led = ledger if ledger is not None else RoundLedger()
    rounds = led.charge(phase, fl16_round_cost(n, height, max(delta, 1e-6)))

    h = _rounded_graph(graph, delta)

    # Cohen's sweep: best[v] = smallest d_H(u, v) over earlier-π u.
    best: Dict[Vertex, float] = {v: INF for v in graph.vertices()}
    lists: Dict[Vertex, List[Tuple[Vertex, float]]] = {v: [] for v in graph.vertices()}
    for u in order:
        # pruned Dijkstra from u: stop at vertices already dominated
        dist: Dict[Vertex, float] = {u: 0.0}
        heap: List[Tuple[float, int, Vertex]] = [(0.0, 0, u)]
        counter = 1
        settled = set()
        while heap:
            d, _, x = heapq.heappop(heap)
            if x in settled:
                continue
            settled.add(x)
            if d >= best[x]:
                continue  # an earlier-π vertex is at least as close: prune
            lists[x].append((u, d))
            best[x] = d
            for y, w in h.neighbor_items(x):
                nd = d + w
                if nd < dist.get(y, INF) and nd < best[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, counter, y))
                    counter += 1
    return LEListResult(lists=lists, pi=pi, delta=delta, rounds=rounds)


def first_in_ball(
    result: LEListResult, v: Vertex, radius: float
) -> Optional[Vertex]:
    """The first vertex in π among active vertices with ``d_H(u, v) <= radius``.

    This is the §6 membership test: v joins the net iff
    ``first_in_ball(result, v, Δ) == v``.  Returns None when no list entry
    is within ``radius`` (possible when v itself is not active).
    """
    candidates = [(result.pi[u], u) for u, d in result.lists[v] if d <= radius]
    if not candidates:
        return None
    return min(candidates)[1]
