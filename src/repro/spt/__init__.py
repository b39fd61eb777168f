"""Shortest-path trees: exact (distributed Bellman–Ford) and (1+ε)-approximate.

The paper's SLT (§4), nets (§6) and doubling spanner (§7) all consume the
(1+ε)-approximate SPT of Becker–Karrenbauer–Krinninger–Lenzen [BKKL17],
which runs in Õ((√n + D)/poly ε) CONGEST rounds.  Per DESIGN.md
substitution 3 we provide:

* :class:`~repro.spt.bellman_ford.DistributedBellmanFord` — an honest
  simulator node program computing the *exact* SPT (rounds = shortest-path
  hop radius; used for validation and small graphs);
* :func:`~repro.spt.approx_spt.approx_spt` — a genuine (1+ε)-approximate
  SPT (weights rounded up to powers of (1+ε) before the tree is chosen, so
  the approximation is real, not cosmetic), charged at the [BKKL17] cost;
* :func:`~repro.spt.approx_spt.bounded_approx_spt` — the Δ-bounded
  multi-source variant §7 needs; its :class:`~repro.spt.approx_spt.BoundedSPT`
  result reports the radius up to which the same search repeats.
"""

from repro.spt.tree import SPTree
from repro.spt.bellman_ford import DistributedBellmanFord, exact_spt_distributed
from repro.spt.approx_spt import BoundedSPT, approx_spt, bounded_approx_spt, bkkl_round_cost
from repro.spt.bounded_bellman_ford import BoundedBellmanFord, bounded_bellman_ford

__all__ = [
    "SPTree",
    "DistributedBellmanFord",
    "exact_spt_distributed",
    "approx_spt",
    "bounded_approx_spt",
    "BoundedSPT",
    "bkkl_round_cost",
    "BoundedBellmanFord",
    "bounded_bellman_ford",
]
