"""Shallow-Light Trees in CONGEST — §4 of the paper (Theorem 1).

The construction, exactly as §4 stages it:

1. MST ``T`` and its Euler traversal ``L`` (§3); an approximate SPT
   ``T_rt`` (Equation (1)) via the [BKKL17] stand-in.
2. **Two-phase break-point selection** (§4.1).  With ``α = ⌈√n⌉``, the
   anchor set ``BP′ = {x_0, x_α, x_2α, ...}`` splits L into O(√n)
   intervals.  *Phase 1 (local, parallel):* inside each interval a
   sequential scan adds ``x_j`` to BP₁ when
   ``R_{x_j} − R_y > ε · d_{T_rt}(rt, x_j)``  (Equation (2); ``y`` = latest
   of anchor/BP₁ seen in the interval).  *Phase 2 (global, at rt):* the
   anchors are convergecast to rt, which runs the same scan over BP′ alone
   to produce BP₂ and broadcasts it.  BP = BP₁ ∪ BP₂.
3. ``H = T ∪ ⋃_{b ∈ BP} P_b`` where ``P_b`` is the ``T_rt`` path from rt
   (§4.2; the ABP upward-closure is computed fragment-wise).
4. The SLT is a final approximate SPT of ``H`` (§4.4).

Guarantees (ε ∈ (0, 1]): lightness ``w(H) <= (1 + 4/ε)·w(T)``
(Corollary 3) and root-stretch ``(1+ε)(1+25ε) <= 1 + 51ε`` (Lemma 4 +
§4.4).  :func:`shallow_light_tree` exposes the Theorem-1 parametrization
(lightness α, stretch 1 + O(1)/(α−1)), switching to the [BFN16] reduction
(Lemma 5) for the lightness-close-to-1 regime exactly as §4.4 prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.congest.bfs import build_bfs_tree
from repro.congest.ledger import RoundLedger
from repro.congest.primitives import (
    broadcast_rounds,
    convergecast_rounds,
    local_phase_rounds,
)
from repro.core.bfn_reduction import bfn_bounds, bfn_reweighted_graph
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.mst.fragments import decompose_fragments
from repro.mst.kruskal import kruskal_mst
from repro.spt.approx_spt import approx_spt
from repro.traversal.euler_tour import EulerTour, compute_euler_tour

#: Raw guarantees of the base construction at parameter ε (§4.3–§4.4):
#: root-stretch 1 + STRETCH_C·ε and lightness 1 + LIGHT_C/ε.
STRETCH_C = 51.0
LIGHT_C = 4.0
#: ε making the base distortion exactly 2 (used inside the BFN regime).
_EPS_FOR_DISTORTION_2 = 1.0 / STRETCH_C
#: Base lightness at that ε: 1 + LIGHT_C·STRETCH_C.
_BASE_LIGHTNESS = 1.0 + LIGHT_C * STRETCH_C


@dataclass
class SLTResult:
    """Output of the SLT construction.

    Attributes
    ----------
    tree:
        The shallow-light tree (a spanning subgraph tree of G).
    root:
        The designated root rt.
    stretch_bound / lightness_bound:
        The guarantees the parameters promise (measured values in the
        benchmarks are far below them).
    break_points:
        Tour positions selected as BP = BP₁ ∪ BP₂.
    anchor_points:
        The temporary anchor positions BP′.
    intermediate:
        The subgraph H (for the ablation benches).
    ledger:
        Round accounting (Theorem 1 target: Õ(√n + D)·poly(1/ε)).
    """

    tree: WeightedGraph
    root: Vertex
    eps: float
    stretch_bound: float
    lightness_bound: float
    break_points: List[int]
    anchor_points: List[int]
    intermediate: WeightedGraph
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        """Total charged CONGEST rounds."""
        return self.ledger.total


def _select_break_points(
    tour: EulerTour,
    spt_dist: Dict[Vertex, float],
    eps: float,
    alpha: int,
    ledger: RoundLedger,
    bfs_height: int,
) -> Tuple[List[int], List[int], List[int]]:
    """§4.1 — returns (BP1, BP2, BP') as sorted tour positions."""
    size = tour.size
    anchors = list(range(0, size, alpha))  # BP'

    # Phase 1: parallel interval scans (α − 1 rounds, §4.1).
    bp1: List[int] = []
    for start in anchors:
        end = min(start + alpha, size)
        y_time = tour.times[start]
        for j in range(start + 1, end):
            v = tour.order[j]
            if tour.times[j] - y_time > eps * spt_dist[v]:
                bp1.append(j)
                y_time = tour.times[j]
    ledger.charge("bp1-interval-scan", local_phase_rounds(alpha - 1))

    # Phase 2: anchors convergecast to rt, filtered there sequentially,
    # then broadcast (<= 2√n messages each way, Lemma 1).
    ledger.charge("bp2-convergecast", convergecast_rounds(2 * len(anchors), bfs_height))
    bp2: List[int] = [0]
    y_time = tour.times[0]
    for p in anchors[1:]:
        v = tour.order[p]
        if tour.times[p] - y_time > eps * spt_dist[v]:
            bp2.append(p)
            y_time = tour.times[p]
    ledger.charge("bp2-broadcast", broadcast_rounds(len(bp2), bfs_height))

    return sorted(bp1), bp2, anchors


def slt_base(
    graph: WeightedGraph,
    root: Vertex,
    eps: float,
    mst: Optional[WeightedGraph] = None,
) -> SLTResult:
    """The §4 construction at raw parameter ε ∈ (0, 1].

    Guarantees: root-stretch <= 1 + 51ε and lightness <= 1 + 4/ε + 1
    (the final SPT re-selection keeps ``w(T_SLT) <= w(H)``).

    Raises
    ------
    ValueError
        If ε is outside (0, 1] or the graph is disconnected.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    n = graph.n
    ledger = RoundLedger()

    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height

    tree = mst if mst is not None else kruskal_mst(graph)
    ledger.charge(
        "mst-construction",
        (math.isqrt(max(n - 1, 0)) + 1 + height) * max(1, math.ceil(math.log2(n + 1))),
    )
    decomp = decompose_fragments(tree, root)
    tour = compute_euler_tour(tree, root, decomp, height)
    ledger.merge(tour.ledger, prefix="tour:")

    spt = approx_spt(graph, root, eps, height, ledger, phase="approx-spt-G")

    alpha = math.isqrt(max(n - 1, 0)) + 1
    bp1, bp2, anchors = _select_break_points(tour, spt.dist, eps, alpha, ledger, height)
    break_points = sorted(set(bp1) | set(bp2))

    # §4.2 — H = T ∪ ⋃ P_b; the ABP computation is fragment-wise:
    # one local phase + one O(√n)-message broadcast round trip.
    h = tree.copy()
    for pos in break_points:
        v = tour.order[pos]
        path = spt.path_to_root(v)
        for a, b in zip(path, path[1:]):
            if not h.has_edge(a, b):
                h.add_edge(a, b, graph.weight(a, b))
    ledger.charge("abp-local", local_phase_rounds(decomp.max_hop_diameter))
    ledger.charge("abp-broadcast", broadcast_rounds(2 * decomp.num_fragments, height))

    tslt = approx_spt(h, root, eps, height, ledger, phase="approx-spt-H")

    return SLTResult(
        tree=tslt.as_graph(graph),
        root=root,
        eps=eps,
        stretch_bound=1.0 + STRETCH_C * eps,
        lightness_bound=1.0 + LIGHT_C / eps,
        break_points=break_points,
        anchor_points=anchors,
        intermediate=h,
        ledger=ledger,
    )


def shallow_light_tree(
    graph: WeightedGraph,
    root: Vertex,
    alpha: float,
) -> SLTResult:
    """Theorem 1 parametrization: an (1 + O(1)/(α−1), α)-SLT.

    For ``α >= 1 + LIGHT_C`` the base construction with ``ε = LIGHT_C/(α−1)``
    already gives lightness α.  For ``1 < α < 1 + LIGHT_C`` (lightness
    close to 1) §4.4 applies the [BFN16] reduction: run the base algorithm
    at distortion 2 on the Lemma-5 reweighted graph with
    ``δ = (α−1)/ℓ_base``.

    Raises
    ------
    ValueError
        If ``alpha <= 1``.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")

    if alpha >= 1 + LIGHT_C:
        eps = LIGHT_C / (alpha - 1)  # lightness 1 + 4/ε = α
        result = slt_base(graph, root, eps)
        result.lightness_bound = alpha
        return result

    # lightness-close-to-1 regime: Lemma 5 with the distortion-2 base.
    gamma = alpha - 1
    delta = gamma / _BASE_LIGHTNESS
    mst = kruskal_mst(graph)
    reweighted = bfn_reweighted_graph(graph, delta, mst)
    result = slt_base(reweighted, root, _EPS_FOR_DISTORTION_2, mst=mst)

    # Reinterpret the tree under the original weights (same edge set).
    tree = graph.edge_subgraph(result.tree.edge_set())
    h = graph.edge_subgraph(result.intermediate.edge_set())
    lightness_bound, stretch_bound = bfn_bounds(_BASE_LIGHTNESS, 2.0, delta)
    return SLTResult(
        tree=tree,
        root=root,
        eps=_EPS_FOR_DISTORTION_2,
        stretch_bound=stretch_bound,
        lightness_bound=lightness_bound,
        break_points=result.break_points,
        anchor_points=result.anchor_points,
        intermediate=h,
        ledger=result.ledger,
    )
