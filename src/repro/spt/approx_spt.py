"""(1+ε)-approximate shortest-path tree — the [BKKL17] stand-in.

Per DESIGN.md, "Substitutions", the approximation is made *real* rather than
cosmetic: edge weights are rounded **up** to integer powers of ``(1+ε)``
before the tree is selected, and the returned ``dist`` values are the true
(unrounded) weights of the chosen tree paths.  Consequences:

* every tree path is a genuine path of G whose weight ``dist[v]`` satisfies
  ``d_G(rt, v) <= dist[v] <= (1+ε) · d_G(rt, v)`` — Equation (1) of the
  paper, with the upper bound typically *attained* (downstream analyses are
  exercised against an actually-inexact SPT);
* the tree generally differs from the exact SPT, as [BKKL17]'s would.

The bounded search of §6–§7, :func:`bounded_approx_spt`, prunes on the
rounded labels and returns them; a path's true weight is at most its
label.

Round cost: [BKKL17] give Õ((√n + D)/poly ε); we charge
``(ceil(sqrt(n)) + height) · ceil(log2(n+1))^2 · ceil(1/ε)`` — the same
measured-quantity convention as every other ledger charge (constants fixed
once, uniform across constructions).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.congest.ledger import RoundLedger
from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.kernels import pykern
from repro.spt.tree import SPTree

INF = float("inf")


def bkkl_round_cost(n: int, height: int, eps: float) -> int:
    """Charged rounds for one [BKKL17] approximate-SPT invocation."""
    if n <= 1:
        return 1
    sqrt_n = math.isqrt(n - 1) + 1
    polylog = math.ceil(math.log2(n + 1)) ** 2
    return (sqrt_n + height) * polylog * math.ceil(1.0 / max(eps, 1e-9))


def approx_spt(
    graph: WeightedGraph,
    root: Vertex,
    eps: float,
    bfs_height: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    phase: str = "approx-spt",
) -> SPTree:
    """Build a (1+ε)-approximate SPT rooted at ``root``.

    Parameters
    ----------
    graph:
        Connected weighted graph.
    eps:
        Approximation parameter; ``eps = 0`` degenerates to the exact SPT.
    bfs_height:
        BFS-tree height for the round charge (default: ``isqrt(n)``).
    ledger:
        Optional ledger to charge; a fresh one is used otherwise.
    phase:
        Ledger phase name.

    Raises
    ------
    ValueError
        If ``root`` is not a vertex or the graph is disconnected.

    Notes
    -----
    The tree is selected by one :func:`repro.kernels.pykern.sssp` run
    over the frozen graph's :meth:`CSRGraph.rounded_weights` column, the
    same cached column the §7 explorations relax over, so no rounded
    copy of the graph is built.
    """
    if not graph.has_vertex(root):
        raise ValueError(f"root {root!r} is not a vertex of the graph")
    n = graph.n
    height = bfs_height if bfs_height is not None else (math.isqrt(max(n - 1, 0)) + 1)
    led = ledger if ledger is not None else RoundLedger()
    rounds = led.charge(phase, bkkl_round_cost(n, height, max(eps, 1e-9)))

    csr = graph.freeze()
    _, parent_idx = pykern.sssp(
        csr.indptr, csr.indices, csr.rounded_weights(eps), [csr.index_of(root)], None
    )
    verts = csr.verts
    parent: Dict[Vertex, Optional[Vertex]] = {}
    for i, p in enumerate(parent_idx):
        if p == pykern.PARENT_UNREACHED:
            raise ValueError(f"graph disconnected: approximate SPT from {root!r} failed")
        parent[verts[i]] = None if p == pykern.PARENT_SOURCE else verts[p]

    # true weights of the chosen tree paths
    dist: Dict[Vertex, float] = {root: 0.0}
    order: List[Vertex] = [root]
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    idx = 0
    while idx < len(order):
        u = order[idx]
        idx += 1
        for c in children[u]:
            dist[c] = dist[u] + graph.weight(u, c)
            order.append(c)

    return SPTree(root=root, parent=parent, dist=dist, rounds=rounds)


class BoundedSPT:
    """A (1+ε)-approximate exploration over the frozen view's dense
    indices, paused at a radius; :meth:`resume` continues it to a larger
    one.  Built by :func:`bounded_approx_spt`, which documents the
    fields.  It keeps no source index per vertex: a path's source is
    where its ``parent`` walk ends."""

    __slots__ = ("dist", "parent", "reached", "_heap", "_columns")

    def __init__(self, csr: CSRGraph, sources: Iterable[Vertex], eps: float) -> None:
        n = csr.n
        self.dist: List[float] = [INF] * n
        self.parent: List[int] = [pykern.PARENT_UNREACHED] * n
        self.reached: List[int] = []
        self._heap: List[Tuple[float, int]] = []
        self._columns = (csr.indptr, csr.indices, csr.rounded_weights(eps))
        for s in sources:
            i = csr.index_of(s)
            if self.parent[i] != pykern.PARENT_SOURCE:  # a repeated source starts once
                self.dist[i] = 0.0
                self.parent[i] = pykern.PARENT_SOURCE
                self._heap.append((0.0, i))
        heapq.heapify(self._heap)

    def resume(self, radius: float) -> None:
        """Settle every vertex whose label is at most ``radius``, in
        ``(label, index)`` order, appending each to ``reached``.  A
        radius no larger than the last one settles nothing."""
        heap, dist, parent = self._heap, self.dist, self.parent
        indptr, indices, rounded = self._columns
        push, pop, settle = heapq.heappush, heapq.heappop, self.reached.append
        while heap and heap[0][0] <= radius:
            d, u = pop(heap)
            if d > dist[u]:
                continue  # stale entry
            settle(u)
            a, b = indptr[u], indptr[u + 1]
            for v, r in zip(indices[a:b], rounded[a:b]):
                nd = d + r
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(heap, (nd, v))


def bounded_approx_spt(
    graph: "WeightedGraph | CSRGraph",
    sources: Iterable[Vertex],
    radius: float,
    eps: float,
) -> BoundedSPT:
    """Multi-source ``radius``-bounded (1+ε)-approximate shortest paths.

    The §7 doubling spanner runs, from every net point in parallel, a
    2Δ-bounded (1+ε)-approximate exploration; this starts its sequential
    core (:func:`repro.core.doubling_spanner.doubling_spanner` charges its
    rounds, and resumes it at every larger scale).

    Returns
    -------
    BoundedSPT:
        Lists indexed by the frozen view's dense vertex index
        (``csr.verts[i]`` is vertex ``i``), with
        :func:`repro.kernels.pykern.sssp`'s sentinels:
        ``dist[i]`` — the label: the rounded weight of the chosen path
        from the nearest source; final where it is at most the radius
        last resumed to, tentative above it, ∞ where no path was seen;
        ``parent[i]`` — predecessor index on that path, ``-1`` at a
        source and ``-2`` where no path was seen; final where the label
        is;
        ``reached`` — the indices the search settled, those whose label
        is at most that radius, each once, in ``(label, index)`` order.

    Raises
    ------
    ValueError
        If ``radius`` is NaN or negative (0 and ∞ are valid), or ``eps``
        is NaN.
    KeyError
        If a source is not a vertex.

    Notes
    -----
    One label: Dijkstra over :meth:`CSRGraph.rounded_weights`, every
    weight rounded up to a power of (1+ε), popping while the smallest
    label is at most the radius.  A reported path's true weight is at
    most its rounded weight, so at most the radius and within (1+ε) of
    the distance, and every vertex within ``radius/(1+ε)`` is settled
    (DESIGN.md, "§7 doubling spanner").  Weights are positive, so a
    settled label and its parent never change, and pops follow
    ``(label, index)`` order whatever the push order: a search resumed
    at a larger radius is, list for list, the search started there.  A
    :class:`WeightedGraph` input is frozen to its cached CSR view first,
    so :func:`repro.core.nets.build_net` and the doubling spanner run
    the same loop.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be a number >= 0, got {radius!r}")
    if math.isnan(eps):
        raise ValueError(f"eps must not be NaN, got {eps!r}")
    search = BoundedSPT(graph.freeze(), sources, eps)
    search.resume(radius)
    return search
