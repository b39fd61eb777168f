"""Light (1+ε)-spanners for doubling graphs — §7 (Theorem 5).

For every distance scale ``Δ = (1+ε)^i`` from ``min(1, w_min)`` (``w_min``
the lightest edge weight, rounded down to a power of 1+ε) up to the MST
weight:

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
from repro.kernels.pykern import PARENT_UNREACHED
from repro.mst.kruskal import kruskal_mst
from repro.spt.approx_spt import bounded_approx_spt


#: a net point's last exploration: clip, parent list, reached list and
#: walked set, over the frozen view's dense indices
_Memo = Tuple[float, List[int], List[int], Set[int]]


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
    scale: float  # Δ = (1+ε)^i; i < 0 only when some edge is lighter than 1
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
    root = min(graph.vertices(), key=repr)

    ledger = RoundLedger()
    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height

    mst_weight = kruskal_mst(graph).total_weight()
    spanner = WeightedGraph(graph.vertices())
    scales: List[ScaleStats] = []
    csr = graph.freeze()  # shared by every per-net-point exploration
    verts, index_of = csr.verts, csr.index_of
    # net points are visited, and walked to, by ascending repr; rank[i]
    # orders vertex i's repr, and equal reprs share a rank
    reprs = [repr(v) for v in verts]
    order = {r: k for k, r in enumerate(sorted(set(reprs)))}
    rank = [order[r] for r in reprs]

    base = 1.0 + eps
    num_scales = max(1, math.ceil(math.log(max(mst_weight, base), base))) + 1
    # the smallest scale must not exceed the lightest edge, or edges
    # lighter than 1 are never explored
    first_scale = min(0, math.floor(math.log(csr.min_weight(), base))) if csr.m else 0
    delta = 0.5  # the paper's "e.g., we can take δ = 1/2"
    skeleton_size = max(1, math.ceil(math.sqrt(n * max(math.log(n + 1), 1.0))))
    beta = max(1, math.ceil(math.log2(n + 1)))  # charged [EN16] hopbound
    # net-point index -> its last exploration.  The search repeats itself
    # decision for decision at every radius below its clip, and the
    # radius 2·(1+ε)^i grows strictly with i, so an exploration re-runs
    # only once the radius reaches its clip.
    explored: List[Optional[_Memo]] = [None] * n
    # carried from scale to scale: the path count of each net point's
    # last walk, and per vertex how many of the last net's explorations
    # reached it
    paths: List[int] = [0] * n
    load: List[int] = [0] * n
    last_net: Set[int] = set()
    max_overlap = 0

    for i in range(first_scale, num_scales):
        scale = base ** i
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
                for x in gone[2]:
                    load[x] -= 1
        changed = bool(left)
        same_net = net_set == last_net
        paths_added = 0
        for u in sorted(net, key=rank.__getitem__):
            memo = explored[u]
            # a net point that stays keeps its tree in the count, and over
            # an unchanged net that tree's last walk added every path a
            # walk would add now, so only its path count is read again
            counted, known = u in last_net, same_net
            if memo is None or radius >= memo[0]:
                if memo is not None and counted:
                    for x in memo[2]:
                        load[x] -= 1
                run = bounded_approx_spt(csr, [verts[u]], radius, eps)
                memo = explored[u] = (run.clip, run.parent, run.reached, set())
                counted = known = False
            if not counted:
                for x in memo[2]:
                    load[x] += 1
                changed = True
            if not known:
                paths[u] = _walk(spanner, graph, verts, net, rank, u, memo)
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
          net: List[int], rank: List[int], u: int, memo: _Memo) -> int:
    """Add to ``spanner`` the path to ``u`` from every net point ranked
    above it that ``u``'s tree reached, in ``net``'s order, and return
    how many paths that is.  A vertex in the tree's walked set leads to
    ``u`` over edges a walk of this tree added, so a walk stops there; a
    label is looked up only to ask for, and add, an edge."""
    _clip, parent, _reached, walked = memo
    rank_u, unreached = rank[u], PARENT_UNREACHED
    count = 0
    for v in net:
        if rank[v] <= rank_u or parent[v] == unreached:
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
