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

Round cost: [BKKL17] give Õ((√n + D)/poly ε); we charge
``(ceil(sqrt(n)) + height) · ceil(log2(n+1))^2 · ceil(1/ε)`` — the same
measured-quantity convention as every other ledger charge (constants fixed
once, uniform across constructions).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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


class BoundedSPT(NamedTuple):
    """Result of :func:`bounded_approx_spt`, over the frozen view's dense
    indices; the fields are documented there.  It holds what its callers
    read (the §7 scale loop reads ``parent``, ``reached`` and ``clip``,
    the §6 nets ``parent``) and no source index per vertex: a path's
    source is where its ``parent`` walk ends."""

    dist: List[float]
    parent: List[int]
    reached: List[int]
    clip: float


def bounded_approx_spt(
    graph: "WeightedGraph | CSRGraph",
    sources: Iterable[Vertex],
    radius: float,
    eps: float,
) -> BoundedSPT:
    """Multi-source ``radius``-bounded (1+ε)-approximate shortest paths.

    The §7 doubling spanner runs, from every net point in parallel, a
    2Δ-bounded (1+ε)-approximate exploration; this is its sequential core
    (:func:`repro.core.doubling_spanner.doubling_spanner` charges its rounds).

    Returns
    -------
    BoundedSPT(dist, parent, reached, clip):
        Lists indexed by the frozen view's dense vertex index
        (``csr.verts[i]`` is vertex ``i``), with
        :func:`repro.kernels.pykern.sssp`'s sentinels:
        ``dist[i]`` — weight (true weights) of the chosen path from the
        nearest source, at most ``radius``, or ∞ where unreached;
        ``parent[i]`` — predecessor index on that path, ``-1`` at a
        source and ``-2`` where unreached;
        ``reached`` — the indices the search settled, each once, in the
        order it settled them;
        ``clip`` — the smallest true path weight the radius test turned
        away on a relaxation that would have lowered a label, or ∞ when
        it turned none away; above ``radius`` unless both are ∞.

    Raises
    ------
    ValueError
        If ``radius`` is NaN or negative (0 and ∞ are valid), or ``eps``
        is NaN.
    KeyError
        If a source is not a vertex.

    Notes
    -----
    Paths are selected under weights rounded up to powers of (1+ε) but
    pruned by *true* accumulated weight against ``radius``, so every
    reported path genuinely fits the bound while its weight is within
    (1+ε) of optimal among radius-bounded paths.

    The radius enters the search only through that pruning test.  A
    relaxation it accepts at ``radius`` it accepts at any larger radius,
    and one it rejects at ``radius`` stays rejected below ``clip``; a
    relaxation that would not lower a label is rejected at every radius.
    So a call with any radius in ``[radius, clip)`` pops the same heap
    entries in the same sequence, sets the same labels from every row,
    and returns an equal result — ``reached`` and ``clip`` included.
    The §7 construction uses this to skip repeated explorations across
    scales.  A :class:`WeightedGraph` input is frozen to its cached CSR
    view first, so :func:`repro.core.nets.build_net` and the doubling
    spanner run the same loop.  The search relaxes over
    :meth:`CSRGraph.rounded_weights`, the rounded column cached on the
    frozen graph, so every weight is rounded once per ε rather than once
    per relaxation.  The result is the arrays the search fills, with no
    label translation: a caller turns an index into a label through
    ``csr.verts`` where it needs one.

    A row scanned twice before at this ε is read in ascending true
    weight (:meth:`CSRGraph.weight_sorted_rows`, sorted on its third scan
    and cached on the view) and stops at the radius: past it, only the
    first arc that would lower a label can set ``clip``.  Within a row
    each relaxation touches another neighbour and reads only labels set
    before the row, and heap entries order by ``(rounded distance,
    index)``, so the row order changes no output, bit for bit.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be a number >= 0, got {radius!r}")
    if math.isnan(eps):
        raise ValueError(f"eps must not be NaN, got {eps!r}")
    csr = graph.freeze()
    n = csr.n
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    rounded = csr.rounded_weights(eps)
    scanned, by_weight = csr.weight_sorted_rows(eps)
    dist: List[float] = [INF] * n
    true_dist: List[float] = [INF] * n
    parent: List[int] = [pykern.PARENT_UNREACHED] * n
    reached: List[int] = []
    heap: List[Tuple[float, int]] = []
    clip = INF
    for s in sources:
        i = csr.index_of(s)
        if parent[i] != pykern.PARENT_SOURCE:  # a repeated source starts once
            dist[i] = 0.0
            true_dist[i] = 0.0
            parent[i] = pykern.PARENT_SOURCE
            heap.append((0.0, i))
    heapq.heapify(heap)
    push, pop, settle = heapq.heappush, heapq.heappop, reached.append
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry
        settle(u)
        tu = true_dist[u]
        row = by_weight[u]
        if row is None:
            a, b = indptr[u], indptr[u + 1]
            if scanned[u] < 2:
                # the first two scans of this row at this ε: slot order, to the end
                scanned[u] += 1
                for v, w, r in zip(indices[a:b], weights[a:b], rounded[a:b]):
                    nd = d + r
                    if nd < dist[v]:
                        nt = tu + w
                        if nt <= radius:
                            dist[v] = nd
                            true_dist[v] = nt
                            parent[v] = u
                            push(heap, (nd, v))
                        elif nt < clip:
                            clip = nt
                continue
            row = by_weight[u] = sorted(zip(weights[a:b], indices[a:b], rounded[a:b]))
        # ascending w gives ascending tu + w, so once the radius turns an
        # arc away it turns away every later one, and only the first of
        # them that would lower a label can set clip
        for w, v, r in row:
            nt = tu + w
            if nt <= radius:
                nd = d + r
                if nd < dist[v]:
                    dist[v] = nd
                    true_dist[v] = nt
                    parent[v] = u
                    push(heap, (nd, v))
            elif nt >= clip:
                break
            elif d + r < dist[v]:
                clip = nt
                break
    return BoundedSPT(true_dist, parent, reached, clip)
