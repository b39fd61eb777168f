"""Lower bounds — §8 (Theorems 6 and 7).

Theorem 6 follows directly from [SHK+12]: an SLT or a polynomially-light
spanner reveals the MST weight up to polynomial factors, so Ω̃(√n + D)
rounds are necessary.  :func:`congest_round_floor` exposes that floor so
benchmarks can plot charged rounds against it.

Theorem 7 is constructive and we reproduce it end-to-end: given an
(α·2^i, 2^i)-net oracle for every scale i, the estimator::

    Ψ = Σ_i  n_i · α · 2^{i+1}      (n_i = |N_i|, stop at n_i = 1)

satisfies ``L <= Ψ <= O(α·log n)·L`` where L = w(MST):

* upper: each N_i is 2^i-separated, so Claim 7 gives
  ``n_i <= ⌈2L/2^i⌉`` and the sum telescopes to O(α·log n)·L;
* lower: connecting each net point to its nearest point in the next net
  (distance ≤ α·2^{i+1} by covering) yields a connected subgraph H of
  weight ≤ Ψ, and any connected spanning structure weighs ≥ L.

:func:`estimate_mst_weight_via_nets` runs this reduction with the §6 net
construction (or the greedy baseline), returning the estimate together
with the certificate quantities the tests check.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.congest.ledger import RoundLedger
from repro.core.nets import build_net, greedy_net
from repro.determinism import ensure_rng
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.mst.kruskal import kruskal_mst

#: slack δ of the §6 net oracle: it provides (α·2^i, 2^i)-nets with
#: ``α = (1+δ)²``
NET_DELTA = 0.5
#: scales after which the nets must have shrunk to a single point
MAX_SCALES = 64


def congest_round_floor(n: int, hop_diameter: int) -> float:
    """The Ω̃(√n + D) floor of Theorems 6/7, with polylog taken as log₂n."""
    if n <= 1:
        return float(hop_diameter)
    return math.sqrt(n) / max(1.0, math.log2(n)) + hop_diameter


@dataclass
class MSTWeightEstimate:
    """Output of the Theorem-7 reduction.

    Attributes
    ----------
    psi:
        The estimator Ψ.
    mst_weight:
        The true L = w(MST) (for the sandwich check).
    alpha:
        The net oracle's covering/separation ratio.
    net_sizes:
        ``i → n_i`` for every computed scale.
    ledger:
        Rounds charged by the net-oracle invocations — O(log n) of them,
        which is how Theorem 7 transfers the [SHK+12] hardness to nets.
    """

    psi: float
    mst_weight: float
    alpha: float
    net_sizes: Dict[int, int] = field(default_factory=dict)
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def approximation_ratio(self) -> float:
        """Ψ / L (must lie in [1, O(α·log n)])."""
        return self.psi / self.mst_weight if self.mst_weight > 0 else float("inf")


def estimate_mst_weight_via_nets(
    graph: WeightedGraph,
    rng: Optional[random.Random] = None,
    net_method: str = "distributed",
) -> MSTWeightEstimate:
    """Run the Theorem-7 reduction on ``graph``.

    Parameters
    ----------
    net_method:
        ``"distributed"`` (Theorem 3) or ``"greedy"`` (baseline oracle).

    Raises
    ------
    RuntimeError
        If the nets fail to shrink to a single point within
        :data:`MAX_SCALES` scales (cannot happen on poly(n)-weighted
        graphs).
    """
    rng = ensure_rng(rng)
    ledger = RoundLedger()
    alpha = (1.0 + NET_DELTA) ** 2
    mst_weight = kruskal_mst(graph).total_weight()

    if graph.n <= 1:
        return MSTWeightEstimate(
            psi=0.0, mst_weight=0.0, alpha=alpha, net_sizes={}, ledger=ledger
        )

    # start at i with α·2^i strictly below the minimal edge weight, so that
    # N_start = V (the paper's i = -⌈log α⌉ for unit minimal weight) — the
    # Ψ >= L direction needs the first net to span every vertex, however
    # light that edge is.  n > 1 and a spanning tree exists, so it is finite.
    start = math.floor(math.log2(graph.freeze().min_weight() / alpha)) - 1

    psi = 0.0
    net_sizes: Dict[int, int] = {}
    i = start
    while True:
        if i - start > MAX_SCALES:
            raise RuntimeError(f"net cardinality did not reach 1 in {MAX_SCALES} scales")
        scale = 2.0 ** i
        if net_method == "distributed":
            res = build_net(graph, scale * (1.0 + NET_DELTA), NET_DELTA, rng)
            points: Set[Vertex] = res.points
            ledger.merge(res.ledger, prefix=f"scale{i}:")
        else:
            points = greedy_net(graph, scale)
            ledger.charge(f"scale{i}:net", 1)
        n_i = len(points)
        net_sizes[i] = n_i
        psi += n_i * alpha * scale * 2.0
        if n_i == 1:
            break
        i += 1

    return MSTWeightEstimate(
        psi=psi,
        mst_weight=mst_weight,
        alpha=alpha,
        net_sizes=net_sizes,
        ledger=ledger,
    )
