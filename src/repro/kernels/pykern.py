"""Pure-Python SSSP kernel over raw CSR arrays.

This is the always-available fallback behind ``kernel="python"``: a
binary-heap Dijkstra that operates directly on the three frozen CSR
arrays — ``indptr``/``indices``/``weights`` — without touching vertex
labels or any :class:`~repro.graphs.weighted_graph.WeightedGraph`
machinery.  Because it only *indexes* its inputs, it accepts Python
lists, ``array('d')`` columns from :class:`~repro.graphs.csr.CSRGraph`,
and the ``memoryview`` columns an mmap-ed
:class:`~repro.kernels.binfmt.PackedGraph` exposes, all interchangeably.

Cap contract: with a finite ``cap``, :func:`sssp` settles every vertex
whose true distance is ``<= cap`` exactly and never sets a label above
the cap, so every entry beyond it is ``inf`` with parent ``-2``: the
ball ``B(sources, cap)`` exactly, which is what the greedy nets of
:func:`repro.core.nets.greedy_net` mark covered.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

INF = float("inf")

#: parent-array sentinels
PARENT_SOURCE = -1
PARENT_UNREACHED = -2


def sssp(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
    cap: Optional[float] = None,
) -> Tuple[List[float], List[int]]:
    """One SSSP run with every vertex of ``sources`` at distance 0.

    Returns flat ``(dist, parent)`` lists of length ``n``; ``parent[v]``
    is ``-1`` for sources, ``-2`` for unreached vertices, else the
    predecessor index on a shortest path.  Duplicate sources are
    harmless.  A label above ``cap`` is never set, so vertices farther
    than ``cap`` from every source come back unreached.
    """
    n = len(indptr) - 1
    bound = INF if cap is None else cap
    dist: List[float] = [INF] * n
    parent: List[int] = [PARENT_UNREACHED] * n
    heap: List[Tuple[float, int]] = []
    for s in sources:
        if dist[s] != 0.0:
            dist[s] = 0.0
            parent[s] = PARENT_SOURCE
            heap.append((0.0, s))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry
        a, b = indptr[u], indptr[u + 1]
        for v, w in zip(indices[a:b], weights[a:b]):
            nd = d + w
            if nd < dist[v] and nd <= bound:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return dist, parent


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
