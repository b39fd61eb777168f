"""Message-level execution of the §4.1 break-point interval scan.

Phase 1 of the SLT's break-point selection runs, in parallel inside every
length-α interval of the Euler tour L, a sequential scan: position j
receives ``(y, R_y)`` from position j−1, decides whether to join BP₁ by
Equation (2), and forwards either its own ``(x_j, R_{x_j})`` or the
received pair.  Consecutive tour positions are endpoints of an MST edge,
so each hand-off is one real message on one real edge — and a vertex
"simulates different vertices in L" (§4.1) without congestion because
each of its tour appearances talks to distinct edge endpoints.

:class:`IntervalScan` implements exactly that on the CONGEST simulator:
each *vertex* program forwards the scan token for each of its tour
appearances.  The measured rounds must be ≤ α + O(1) (the paper's
"after α − 1 rounds this procedure ends"), and the selected set must
equal the sequential reference used by :func:`repro.core.slt.slt_base` —
both asserted in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.congest.algorithm import CongestAlgorithm, Inbox, NodeView, Outbox
from repro.congest.simulator import SyncNetwork
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.traversal.euler_tour import EulerTour


class ScanInvariantError(RuntimeError):
    """The scan token reached a node that does not hold its tour position.

    Position j is handed to ``tour.order[j]``, the vertex at that
    position, so the node that receives the token for j is the one
    that holds j.  A typed error rather than an ``assert``, so
    ``python -O`` keeps it.
    """


@dataclass
class IntervalScanResult:
    """Output of :func:`run_interval_scan`.

    Attributes
    ----------
    bp1:
        The selected BP₁ tour positions (sorted).
    rounds:
        Measured CONGEST rounds (paper bound: α − 1 token hand-offs).
    alpha:
        The interval length used.
    """

    bp1: List[int]
    rounds: int
    alpha: int


class IntervalScan(CongestAlgorithm):
    """Parallel in-interval scans of the tour, one token per interval.

    Every tour position j holds the scan token for exactly one round; the
    token carries ``R_y`` of the latest break point (1 word — the anchor
    identity is implied by the interval).  A vertex may hold several
    positions; positions j and j+1 belong to the two endpoint vertices of
    an MST edge, so the hand-off ``j → j+1`` is a message on that edge,
    tagged by the receiving position index (1 more word).

    Purely mail-driven (activity contract): each round the engine
    steps only the ⌈size/α⌉ token holders, not all n vertices.
    """

    def __init__(self, tour: EulerTour, spt_dist: Dict[Vertex, float], eps: float,
                 alpha: int) -> None:
        self.tour = tour
        self.spt_dist = spt_dist
        self.eps = eps
        self.alpha = alpha

    # ------------------------------------------------------------------
    def _positions_of(self, v: Vertex) -> List[int]:
        return self.tour.appearances[v]

    def _decide_and_forward(
        self, node: NodeView, j: int, y_time: float
    ) -> Outbox:
        """Run the scan step at position j (held by ``node``), pass on."""
        tour = self.tour
        v = tour.order[j]
        if v != node.id:
            raise ScanInvariantError(
                f"the scan token for tour position {j} must reach the vertex "
                f"there, {v!r}, but reached {node.id!r}"
            )
        if j % self.alpha != 0:  # anchors never join BP1
            if tour.times[j] - y_time > self.eps * self.spt_dist[v]:
                node.state["scan_joined"].add(j)
                y_time = tour.times[j]
        else:
            y_time = tour.times[j]  # interval anchor resets the reference

        nxt = j + 1
        if nxt >= tour.size or nxt % self.alpha == 0:
            return {}  # interval (or tour) ends here
        successor = tour.order[nxt]
        if successor == node.id:
            # consecutive appearances of the same vertex cannot happen on
            # a tour (positions alternate across an edge), but guard:
            return self._decide_and_forward(node, nxt, y_time)
        return {successor: (nxt, y_time)}

    # ------------------------------------------------------------------
    def setup(self, node: NodeView) -> Outbox:
        node.state["scan_joined"] = set()
        out: Outbox = {}
        for j in self._positions_of(node.id):
            if j % self.alpha == 0:  # interval anchor: start the token
                for dst, payload in self._decide_and_forward(node, j, self.tour.times[j]).items():
                    if dst in out:
                        raise RuntimeError("token collision at setup")
                    out[dst] = payload
        return out

    def step(self, node: NodeView, inbox: Inbox) -> Outbox:
        out: Outbox = {}
        for _sender, (j, y_time) in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            for dst, payload in self._decide_and_forward(node, j, y_time).items():
                if dst in out:
                    raise RuntimeError("token collision mid-scan")
                out[dst] = payload
        return out

    def is_done(self, node: NodeView) -> bool:
        return True  # the run ends when no token is in flight (they die at interval ends)


def run_interval_scan(
    graph: WeightedGraph,
    tour: EulerTour,
    spt_dist: Dict[Vertex, float],
    eps: float,
    alpha: Optional[int] = None,
    network: Optional[SyncNetwork] = None,
) -> IntervalScanResult:
    """Execute the §4.1 phase-1 scan natively; return BP₁ and rounds.

    Parameters
    ----------
    graph:
        The communication graph (must contain the MST edges the tour
        walks).
    tour:
        The Euler tour L of the MST.
    spt_dist:
        ``d_{T_rt}(rt, ·)`` — each vertex's approximate root distance
        (local knowledge after the approximate-SPT construction).
    eps:
        The Equation-(2) threshold parameter.
    alpha:
        Interval length (default ⌈√n⌉, as §4.1 sets it).

    Raises
    ------
    ScanInvariantError
        If the token for a tour position reaches a vertex other than
        the one at that position.
    """
    n = graph.n
    a = alpha if alpha is not None else (math.isqrt(max(n - 1, 0)) + 1)
    net = network if network is not None else SyncNetwork(graph)
    net.reset()
    algorithm = IntervalScan(tour, spt_dist, eps, a)
    rounds = net.run(algorithm)
    bp1: Set[int] = set()
    for v in graph.vertices():
        bp1 |= net.view(v).state.get("scan_joined", set())
    return IntervalScanResult(bp1=sorted(bp1), rounds=rounds, alpha=a)
