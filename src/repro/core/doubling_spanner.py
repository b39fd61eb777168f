"""Light (1+ε)-spanners for doubling graphs — §7 (Theorem 5).

For every distance scale ``Δ = w_min·(1+ε)^i``, ``i = 0…⌈log_{1+ε}(w(T)/w_min)⌉``
(``w_min`` the lightest edge weight, ``w(T)`` the MST weight, so the
number of scales depends on ``w(T)/w_min`` alone; a graph with no edge
runs one scale, Δ = 1):

1. build a net whose covering radius is ``ε·Δ/2`` (via Theorem 3 with
   δ = 1/2, i.e. a ``(εΔ/2, 2εΔ/9)``-net — our net parametrization with
   ``Δ_net = εΔ/3``), and
2. from every net point run a ``2Δ``-bounded (1+ε)-approximate
   shortest-path exploration of G, adding to the spanner the *actual
   path* to every other net point discovered within the bound.  The
   paper runs these explorations over [EN16] path-reporting hopsets;
   none is built here, each scale charges [EN16]'s formula instead
   (DESIGN.md, "Substitutions").

Guarantees: stretch ``1 + 30ε`` for ε < 1/8 (the paper's induction with
its constant c = 30), lightness ``ε^{−O(ddim)}·log n`` by the packing
property (Lemma 6) plus Claim 7, sparsity ``n·ε^{−O(ddim)}·log n``, and
``(√n + D)·ε^{−Õ(√log n + ddim)}`` rounds — each scale charges the net
construction, the [EN16] hopset the explorations would run over, and the
overlapped bounded explorations.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.congest.bfs import build_bfs_tree
from repro.congest.ledger import RoundLedger
from repro.core.nets import build_net, greedy_net
from repro.determinism import ensure_rng
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.kernels.pykern import Search
from repro.mst.kruskal import kruskal_mst
from repro.spt.approx_spt import bounded_approx_spt


#: a net point's exploration and the walked set of its tree, over the
#: frozen view's dense indices
_Memo = Tuple[Search, Set[int]]


def en16_round_cost(n: int, height: int, beta: int) -> int:
    """Charged rounds for building an [EN16] hopset: O((√n + D)·β²)."""
    sqrt_n = math.isqrt(max(n - 1, 0)) + 1
    return (sqrt_n + height) * beta * beta


def bounded_exploration_cost(
    n: int, height: int, beta: int, overlap: int, skeleton_size: int
) -> int:
    """Charged rounds for parallel Δ-bounded multi-source explorations (§7.2).

    One Bellman–Ford iteration = 2√n rounds of edge relaxation plus a
    Lemma-1 broadcast of the √(n ln n) skeleton estimates; β iterations,
    multiplied by the measured source-overlap factor (the max number of
    explorations any vertex participates in — bounded by the packing
    property, Lemma 6).
    """
    sqrt_n = math.isqrt(max(n - 1, 0)) + 1
    per_iteration = 2 * sqrt_n + skeleton_size + height
    return beta * per_iteration * max(1, overlap)


@dataclass
class ScaleStats:
    """Per-scale diagnostics for the benchmarks."""

    index: int
    scale: float  # Δ = w_min·(1+ε)^i
    net_size: int
    paths_added: int
    max_overlap: int  # max explorations any vertex participated in
    rounds: int


@dataclass
class DoublingSpannerResult:
    """Output of :func:`doubling_spanner`.

    Attributes
    ----------
    spanner:
        The (1+O(ε))-spanner (a subgraph: every edge lies on an
        explored G-path).
    stretch_bound:
        The guarantee 1 + 30ε (paper's constant, valid for ε < 1/8).
    scales:
        Per-scale statistics.
    ledger:
        Round accounting (Theorem 5 target:
        (√n + D)·ε^{−Õ(√log n + ddim)}).
    """

    spanner: WeightedGraph
    eps: float
    stretch_bound: float
    scales: List[ScaleStats]
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        """Total charged CONGEST rounds."""
        return self.ledger.total


def doubling_spanner(
    graph: WeightedGraph,
    eps: float,
    rng: Optional[random.Random] = None,
    net_method: str = "distributed",
) -> DoublingSpannerResult:
    """Build the §7 light (1 + 30ε)-spanner.

    Parameters
    ----------
    eps:
        Scale parameter, in (0, 1/8) for the paper's stretch constant.
    net_method:
        ``"distributed"`` — the Theorem-3 net construction (full round
        accounting); ``"greedy"`` — the sequential greedy net (same
        covering/separation guarantees; use for larger experiment sizes,
        net rounds then charged at the Theorem-3 formula directly).

    Raises
    ------
    ValueError
        On invalid parameters, on a graph with no vertices, and on a
        disconnected graph (raised by the BFS tree, naming a vertex it
        did not reach).
    """
    if not 0 < eps < 0.125:
        raise ValueError(f"eps must be in (0, 1/8), got {eps}")
    if net_method not in ("distributed", "greedy"):
        raise ValueError(f"unknown net_method {net_method!r}")
    n = graph.n
    if n == 0:
        raise ValueError("doubling_spanner needs a graph with at least one vertex")
    rng = ensure_rng(rng)
    csr = graph.freeze()  # shared by every per-net-point exploration
    verts, index_of, order = csr.verts, csr.index_of, csr.repr_order()
    root = verts[order[0]]  # the first vertex of least repr

    ledger = RoundLedger()
    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height

    mst_weight = kruskal_mst(graph).total_weight()
    spanner = WeightedGraph(graph.vertices())
    scales: List[ScaleStats] = []
    # net points are visited, and walked to, by ascending repr; rank[i]
    # orders vertex i's repr, and equal reprs share a rank
    rank = [0] * n
    for prev, j in zip(order, order[1:]):
        rank[j] = rank[prev] + (repr(verts[j]) != repr(verts[prev]))

    base = 1.0 + eps
    # the scales start at the lightest edge, so that edge is explored,
    # and end at w(T); with no edge (n = 1) one scale at Δ = 1 visits
    # the lone vertex.  w(T)/w_min may pass the float range while both
    # weights are in it, and then the logarithms are subtracted.
    if csr.m:
        w_min = csr.min_weight()
        ratio = mst_weight / w_min
        span = (math.log(ratio, base) if ratio < math.inf
                else math.log(mst_weight, base) - math.log(w_min, base))
        num_scales = math.ceil(span) + 1
    else:
        w_min, num_scales = 1.0, 1
    delta = 0.5  # the paper's "e.g., we can take δ = 1/2"
    skeleton_size = max(1, math.ceil(math.sqrt(n * max(math.log(n + 1), 1.0))))
    beta = max(1, math.ceil(math.log2(n + 1)))  # charged [EN16] hopbound
    # net-point index -> its exploration and walked set.  Each search
    # starts the first time its point joins the net and resumes at every
    # later scale the point is in it: the radius 2Δ grows with the
    # scale, and a search resumed at a larger radius equals the search
    # started there, so no search runs twice.
    explored: List[Optional[_Memo]] = [None] * n
    # carried from scale to scale: the path count of each net point's
    # last walk, and per vertex how many of the last net's explorations
    # reached it
    paths: List[int] = [0] * n
    load: List[int] = [0] * n
    last_net: Set[int] = set()
    max_overlap = 0

    for i in range(num_scales):
        try:
            scale = w_min * base ** i
        except OverflowError:  # (1+ε)^i alone passes the float range
            scale = math.exp(math.log(w_min) + i * math.log(base))
        scale_ledger = RoundLedger()

        # --- net with covering radius εΔ/2 (Δ_net = εΔ/3, δ = 1/2) ---
        net_param = eps * scale / 3.0
        if net_method == "distributed":
            net_res = build_net(graph, net_param, delta, rng, root=root)
            net_points: Set[Vertex] = net_res.points
            scale_ledger.merge(net_res.ledger, prefix=f"scale{i}:net:")
        else:
            net_points = greedy_net(graph, net_param)
            from repro.lelists.le_lists import fl16_round_cost

            iters = math.ceil(math.log2(n + 2))
            scale_ledger.charge(
                f"scale{i}:net", iters * fl16_round_cost(n, height, delta)
            )

        # --- [EN16] hopset for this scale's explorations (charged, not built) ---
        scale_ledger.charge(f"scale{i}:hopset", en16_round_cost(n, height, beta))

        # --- 2Δ-bounded explorations from every net point ---
        radius = 2.0 * scale
        # in the set's own order, so paths enter the spanner in that order
        net = [index_of(v) for v in net_points]
        net_set = set(net)
        left = last_net - net_set
        for u in left:  # an exploration leaves the count with its net point
            gone = explored[u]
            if gone is not None:  # always: the last net was explored
                for x in gone[0].reached:
                    load[x] -= 1
        changed = bool(left)
        same_net = net_set == last_net
        paths_added = 0
        for u in sorted(net, key=rank.__getitem__):
            memo = explored[u]
            if memo is None:
                memo = explored[u] = (
                    bounded_approx_spt(csr, [verts[u]], radius, eps), set())
                grown = memo[0].reached
            else:
                start = len(memo[0].reached)
                memo[0].resume(radius)
                grown = memo[0].reached[start:]
            # a net point that stays keeps its settled vertices in the
            # count, and over an unchanged net (where every point stays)
            # a tree that settled nothing new adds no path its last walk
            # did not, so only its path count is read again
            counted = u in last_net
            for x in grown if counted else memo[0].reached:
                load[x] += 1
            if grown or not counted:
                changed = True
            if grown or not same_net:
                paths[u] = _walk(spanner, graph, verts, net, rank, u, memo, radius)
            paths_added += paths[u]
        if changed:
            max_overlap = max(load)
        last_net = net_set
        scale_ledger.charge(
            f"scale{i}:explorations",
            bounded_exploration_cost(n, height, beta, max_overlap, skeleton_size),
        )

        ledger.merge(scale_ledger)
        scales.append(
            ScaleStats(
                index=i,
                scale=scale,
                net_size=len(net_points),
                paths_added=paths_added,
                max_overlap=max_overlap,
                rounds=scale_ledger.total,
            )
        )

    return DoublingSpannerResult(
        spanner=spanner,
        eps=eps,
        stretch_bound=1.0 + 30.0 * eps,
        scales=scales,
        ledger=ledger,
    )


def _walk(spanner: WeightedGraph, graph: WeightedGraph, verts: Sequence[Vertex],
          net: List[int], rank: List[int], u: int, memo: _Memo, radius: float) -> int:
    """Add to ``spanner`` the path to ``u`` from every net point ranked
    above it that ``u``'s search settled, a label at most ``radius``, in
    ``net``'s order, and return how many paths that is.  An unsettled
    point may hold a tentative label and parent, so the label is what
    is tested.  A vertex in the tree's walked set leads to ``u`` over
    edges a walk of this tree added, so a walk stops there; a label is
    looked up only to ask for, and add, an edge."""
    search, walked = memo
    label, parent = search.dist, search.parent
    rank_u = rank[u]
    count = 0
    for v in net:
        if rank[v] <= rank_u or label[v] > radius:
            continue
        node = v
        while node not in walked and parent[node] >= 0:
            walked.add(node)
            prev = parent[node]
            a, b = verts[prev], verts[node]
            if not spanner.has_edge(a, b):
                spanner.add_edge(a, b, graph.weight(a, b))
            node = prev
        count += 1
    return count
