"""Pure-Python SSSP kernel over raw CSR arrays.

This is the always-available fallback behind ``kernel="python"``: a
binary-heap Dijkstra that operates directly on the three frozen CSR
arrays — ``indptr``/``indices``/``weights`` — without touching vertex
labels or any :class:`~repro.graphs.weighted_graph.WeightedGraph`
machinery.  Because it only *indexes* its inputs, it accepts Python
lists, ``array('d')`` columns from :class:`~repro.graphs.csr.CSRGraph`,
and the ``memoryview`` columns an mmap-ed
:class:`~repro.kernels.binfmt.PackedGraph` exposes, all interchangeably.

The one heap loop is :class:`Search`, which pauses at a radius and
resumes: :func:`sssp` runs it to the end, the greedy nets run it capped
at their radius, and the §6–§7 explorations resume it across scales.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

INF = float("inf")

#: parent-array sentinels
PARENT_SOURCE = -1
PARENT_UNREACHED = -2


class Search:
    """A Dijkstra from ``sources``, every one at label 0, paused at a
    radius: :meth:`resume` continues it to a larger one.  Its lists, by
    dense vertex index: ``dist``, the label (final up to the last
    radius, tentative above it, ``inf`` where no path was seen);
    ``parent``, the predecessor on that path (``-1`` at a source, ``-2``
    where no path was seen; final where the label is); and ``reached``,
    the settled indices in settle order.  Weights are non-negative, so
    settled labels never decrease: a search resumed at a larger radius
    is, list for list, the search started there.

    Cap contract: no label above ``cap`` is ever set, so once resumed
    past ``cap`` the search has settled the ball ``B(sources, cap)`` at
    exact distances and left every other vertex at ``inf``, parent
    ``-2``: the ball the greedy nets mark covered.
    """

    __slots__ = ("dist", "parent", "reached", "_heap", "_columns", "_cap")

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
        sources: Sequence[int],
        cap: float = INF,
    ) -> None:
        n = len(indptr) - 1
        self.dist: List[float] = [INF] * n
        self.parent: List[int] = [PARENT_UNREACHED] * n
        self.reached: List[int] = []
        self._heap: List[Tuple[float, int]] = []
        self._columns = (indptr, indices, weights)
        self._cap = cap
        for s in sources:
            if self.parent[s] != PARENT_SOURCE:
                self.dist[s] = 0.0
                self.parent[s] = PARENT_SOURCE
                self._heap.append((0.0, s))
        heapq.heapify(self._heap)

    def resume(self, radius: float) -> None:
        """Settle every vertex whose label is at most ``radius``, by
        label and then index, appending each to ``reached``.  A radius
        no larger than the last one settles nothing."""
        heap, dist, parent, cap = self._heap, self.dist, self.parent, self._cap
        indptr, indices, weights = self._columns
        push, pop, settle = heapq.heappush, heapq.heappop, self.reached.append
        while heap and heap[0][0] <= radius:
            d, u = pop(heap)
            if d > dist[u]:
                continue  # stale entry
            settle(u)
            a, b = indptr[u], indptr[u + 1]
            for v, w in zip(indices[a:b], weights[a:b]):
                nd = d + w
                if nd < dist[v] and nd <= cap:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))


def sssp(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
) -> Tuple[List[float], List[int]]:
    """One SSSP run with every vertex of ``sources`` at distance 0: a
    :class:`Search` run to the end.

    Returns flat ``(dist, parent)`` lists of length ``n``; ``parent[v]``
    is ``-1`` for sources, ``-2`` for unreached vertices, else the
    predecessor index on a shortest path.  Duplicate sources are
    harmless.
    """
    search = Search(indptr, indices, weights, sources)
    search.resume(INF)
    return search.dist, search.parent


def sssp_matrix(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
) -> List[List[float]]:
    """Batched SSSP: one distance row per source.

    The fallback simply loops single-source runs; the numpy kernel
    settles all rows in one array-level pass.
    """
    return [sssp(indptr, indices, weights, (s,))[0] for s in sources]


def residual(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    dist: Sequence[float],
) -> Tuple[float, int]:
    """Fixed-point residual of one distance row.

    Returns ``(max_violation, unsettled_arcs)``: the largest positive
    ``dist[v] - (dist[u] + w(u,v))`` over arcs with both endpoints
    finite, and the number of arcs whose tail is finite but whose head
    is still ``inf``.  ``(0.0, 0)`` certifies ``dist`` as a
    Bellman-Ford fixed point — which, for relaxation-built rows (every
    finite entry is witnessed by a real path), means the row is exact.
    """
    worst = 0.0
    unsettled = 0
    n = len(indptr) - 1
    for u in range(n):
        du = dist[u]
        if du == INF:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            dv = dist[indices[e]]
            if dv == INF:
                unsettled += 1
                continue
            violation = dv - du - weights[e]
            if violation > worst:
                worst = violation
    return worst, unsettled
