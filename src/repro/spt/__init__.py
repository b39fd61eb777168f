"""(1+ε)-approximate shortest-path trees.

The paper's SLT (§4), nets (§6) and doubling spanner (§7) all consume the
(1+ε)-approximate SPT of Becker–Karrenbauer–Krinninger–Lenzen [BKKL17],
which runs in Õ((√n + D)/poly ε) CONGEST rounds.  Per DESIGN.md,
"Substitutions", we provide:

* :func:`~repro.spt.approx_spt.approx_spt` — a genuine (1+ε)-approximate
  SPT (weights rounded up to powers of (1+ε) before the tree is chosen, so
  the approximation is real, not cosmetic), charged at the [BKKL17] cost;
* :func:`~repro.spt.approx_spt.bounded_approx_spt` — the Δ-bounded
  multi-source variant §7 needs; its :class:`~repro.spt.approx_spt.BoundedSPT`
  result reports the radius up to which the same search repeats.

The message-level Bellman–Ford program that validates the simulator
against Dijkstra lives with its tests, in ``tests/test_bellman_ford.py``.
"""

from repro.spt.tree import SPTree
from repro.spt.approx_spt import BoundedSPT, approx_spt, bounded_approx_spt, bkkl_round_cost

__all__ = [
    "SPTree",
    "approx_spt",
    "bounded_approx_spt",
    "BoundedSPT",
    "bkkl_round_cost",
]
