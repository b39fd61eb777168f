"""Distributed construction of (α, β)-nets — §6 (Theorem 3).

The algorithm: all vertices start *active* (A₁ = V).  Each iteration
samples a uniform permutation π on the active set, computes LE lists
w.r.t. a graph H with ``d_G <= d_H <= (1+δ)·d_G`` (Theorem 4 — [FL16],
realized per DESIGN.md, "Substitutions"), and a vertex joins the net iff it
is first in π within its Δ-ball of H.  A (1+δ)-approximate SPT rooted at
the new net points then deactivates every vertex within ``(1+δ)·Δ``.
After O(log n) iterations no active vertices remain w.h.p.; the result is
a ``((1+δ)·Δ, Δ/(1+δ))``-net.

The kill-counting analysis (each iteration halves the expected number of
active pairs) is exercised directly by the benchmarks, which record the
iteration count against the O(log n) bound.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.congest.bfs import build_bfs_tree
from repro.congest.ledger import RoundLedger
from repro.determinism import ensure_rng
from repro.graphs.shortest_paths import bounded_dijkstra
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.lelists.le_lists import compute_le_lists, first_in_ball
from repro.spt.approx_spt import bkkl_round_cost, bounded_approx_spt


class NetInvariantError(RuntimeError):
    """An iteration of :func:`build_net` admitted no net point.

    Every active vertex is in its own LE list at distance 0, so the
    first-in-ball query never returns ``None`` for an active vertex, and
    the active vertex first in π is first in its own ball.  An iteration
    with no joiner would never shrink the active set.  A typed error
    rather than an ``assert``, so ``python -O`` keeps it.
    """


@dataclass
class NetResult:
    """Output of :func:`build_net`.

    Attributes
    ----------
    points:
        The net N.
    alpha / beta:
        The guaranteed covering radius ``(1+δ)·Δ`` and separation
        ``Δ/(1+δ)``.
    iterations:
        Number of kill iterations used (O(log n) w.h.p.).
    active_history:
        |A_i| per iteration (for the halving-rate benchmark).
    ledger:
        Round accounting (Theorem 3 target:
        (√n + D)·2^{Õ(√(log n·log(1/δ)))}).
    """

    points: Set[Vertex]
    delta_param: float  # Δ
    delta: float  # δ
    alpha: float
    beta: float
    iterations: int
    active_history: List[int] = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        """Total charged CONGEST rounds."""
        return self.ledger.total


def build_net(
    graph: WeightedGraph,
    delta_param: float,
    delta: float = 0.5,
    rng: Optional[random.Random] = None,
    root: Optional[Vertex] = None,
    max_iterations: Optional[int] = None,
) -> NetResult:
    """Build a ``((1+δ)·Δ, Δ/(1+δ))``-net of ``graph`` (Theorem 3).

    Parameters
    ----------
    delta_param:
        The scale Δ > 0.
    delta:
        The approximation slack δ ∈ (0, 1) absorbed by taking
        ``α > (1+δ)·β`` (§1.4: "we can cope with the approximation by
        taking α > (1+ε)β").
    rng:
        Random source for the per-iteration permutations.
    max_iterations:
        Safety cap; default ``40·⌈log2(n+2)⌉``.

    Raises
    ------
    ValueError
        On invalid parameters.
    RuntimeError
        If the w.h.p. O(log n) iteration bound is breached (indicates a
        bug, not bad luck, given the 40× slack).
    NetInvariantError
        If an iteration admits no net point (a broken LE-list query).
    """
    if delta_param <= 0:
        raise ValueError(f"delta_param (Δ) must be positive, got {delta_param}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rng = ensure_rng(rng)
    n = graph.n
    if root is None:
        root = min(graph.vertices(), key=repr)
    cap = max_iterations if max_iterations is not None else 40 * (
        math.ceil(math.log2(n + 2))
    )

    ledger = RoundLedger()
    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height

    active: Set[Vertex] = set(graph.vertices())
    net: Set[Vertex] = set()
    history: List[int] = []
    iterations = 0

    while active:
        iterations += 1
        if iterations > cap:
            raise RuntimeError(
                f"net construction exceeded {cap} iterations "
                f"({len(active)} vertices still active)"
            )
        history.append(len(active))

        le = compute_le_lists(
            graph,
            active,
            delta=delta,
            rng=rng,
            bfs_height=height,
            ledger=ledger,
            phase=f"iter{iterations}:le-lists",
        )
        joiners = {
            v for v in active if first_in_ball(le, v, delta_param) == v
        }
        if not joiners:
            raise NetInvariantError(
                f"iteration {iterations}: some active vertex must be first "
                f"in its own ball, but none of the {len(active)} is"
            )
        net |= joiners

        # (1+δ)-approximate SPT rooted at the new net points; deactivate
        # everything within (1+δ)·Δ of them (tree distances).
        ledger.charge(
            f"iter{iterations}:approx-spt", bkkl_round_cost(n, height, delta)
        )
        tree_dist = bounded_approx_spt(
            graph, joiners, radius=(1.0 + delta) * delta_param, eps=delta
        ).dist
        active = {v for v in active if v not in tree_dist}

    return NetResult(
        points=net,
        delta_param=delta_param,
        delta=delta,
        alpha=(1.0 + delta) * delta_param,
        beta=delta_param / (1.0 + delta),
        iterations=iterations,
        active_history=history,
        ledger=ledger,
    )


def greedy_net(graph: WeightedGraph, radius: float) -> Set[Vertex]:
    """Sequential greedy (r, r)-net — the baseline §6 replaces.

    Scan vertices in id order; keep each vertex farther than ``radius``
    from all kept ones.  Inherently sequential (the paper's motivation for
    Theorem 3), but optimal parameters: r-covering and r-separated.

    Only whether a vertex lies within ``radius`` of a kept one matters,
    so each kept vertex explores its ``radius``-ball alone; below the
    minimum edge weight every ball is a single vertex and the net is
    all of ``V`` without any search.
    """
    csr = graph.freeze() if isinstance(graph, WeightedGraph) else graph
    order = sorted(csr.vertices(), key=repr)
    if radius < csr.min_weight():
        return set(order)
    net: Set[Vertex] = set()
    covered: Set[Vertex] = set()
    for v in order:
        if v not in covered:
            net.add(v)
            covered.update(bounded_dijkstra(csr, v, radius)[0])
    return net
