"""Seeded landmark selection for the ALT distance oracle.

A landmark is a vertex whose exact distance to *every* vertex of the
served structure is precomputed at build time; the triangle inequality
then turns each landmark ``l`` into a query-time certificate

* lower bound — ``|d(l, u) − d(l, v)| <= d(u, v)``,
* upper bound — ``d(u, v) <= d(l, u) + d(l, v)``,

which is what lets the oracle's bidirectional Dijkstra prune whole
subtrees of the search (the ALT technique of Goldberg–Harrelson).  The
bounds are only as tight as the landmarks are well spread, so selection
matters; two seeded strategies are provided:

``"far"``
    Farthest-point sampling: start from the seeded RNG's pick, then
    repeatedly add the vertex maximizing the distance to the chosen set
    (one multi-source Dijkstra per round).  Unreachable vertices sort as
    infinitely far, so disconnected structures get one landmark per
    component before any component gets its second — exactly what the
    oracle's connectivity test needs.
``"degree"``
    Highest-degree vertices (seeded RNG breaks ties).  Cheaper to select
    and a good fit for hub-and-spoke graphs where shortest paths funnel
    through high-degree vertices anyway.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.graphs.csr import CSRGraph

INF = float("inf")

#: The selection strategies :func:`landmarks_with_potentials` accepts.
STRATEGIES = ("far", "degree")


def _far_sampling(
    csr: CSRGraph, count: int, rng: random.Random, kernel: str
) -> Tuple[List[int], List[List[float]]]:
    """Farthest-point sampling over the structure's own metric.

    Returns the chosen landmarks *and* each one's full distance array —
    selection needs exactly the Dijkstras the oracle's ALT potentials
    are made of, so the caller reuses them instead of recomputing.
    """
    from repro.kernels import sssp

    n = csr.n
    chosen = [rng.randrange(n)]
    potentials: List[List[float]] = []
    # dist-to-chosen-set, maintained incrementally: adding a landmark is
    # one Dijkstra from it, min-merged into the running array
    best = [INF] * n
    while True:
        dist = sssp(
            csr.indptr, csr.indices, csr.weights, [chosen[-1]], kernel=kernel
        )
        potentials.append(dist)
        for v in range(n):
            if dist[v] < best[v]:
                best[v] = dist[v]
        if len(chosen) == count:
            return chosen, potentials
        # the next landmark is the vertex farthest from the chosen set;
        # max() prefers the lowest index among ties, keeping the pick
        # deterministic for a fixed seed
        far = max(range(n), key=lambda v: (best[v], -v))
        if best[far] == 0.0:
            return chosen, potentials  # every vertex is already a landmark
        chosen.append(far)


def _by_degree(csr: CSRGraph, count: int, rng: random.Random) -> List[int]:
    """Top-degree vertices; the seeded RNG shuffles equal-degree runs."""
    order = list(range(csr.n))
    rng.shuffle(order)  # randomize ties before the stable sort below
    order.sort(key=csr.degree_idx, reverse=True)
    return order[:count]


def landmarks_with_potentials(
    csr: CSRGraph,
    count: int,
    strategy: str = "far",
    seed: int = 0,
    kernel: str = "python",
) -> Tuple[List[int], List[List[float]]]:
    """Pick ``count`` landmark vertices (dense indices) of ``csr``, with
    each landmark's distance array.

    The selection is deterministic for a fixed ``(strategy, seed)`` pair.
    ``count`` is clamped to ``n``; far-sampling may return fewer when the
    structure runs out of distinct points (every vertex already chosen).

    The potentials are exactly one full Dijkstra per landmark; for the
    ``"far"`` strategy those Dijkstras already ran during selection and
    are returned rather than recomputed, so an oracle build pays for
    each landmark's SSSP once.

    ``kernel`` selects the SSSP backend (:mod:`repro.kernels`).  The
    selection itself is backend-independent — both backends return
    distances only, equal to 1e-9 (bit for bit on
    ``tests/test_sssp_parity.py``'s grid), and both the ``"far"`` argmax
    and the ``"degree"`` ordering depend only on distances/degrees — so
    a fixed ``(strategy, seed)`` picks the same landmarks on every
    kernel.  The ``"degree"`` strategy computes all its potentials in
    one :func:`repro.kernels.sssp_matrix` call (one matrix pass under
    ``"numpy"``); ``"far"`` makes one :func:`repro.kernels.sssp` call
    per round, one distance row each, since each round's source depends
    on the previous round's distances.

    Raises
    ------
    ValueError
        On an unknown strategy or a non-positive count.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown landmark strategy {strategy!r}; choose from {STRATEGIES}"
        )
    if count < 1:
        raise ValueError(f"landmark count must be >= 1, got {count}")
    if csr.n == 0:
        return [], []
    count = min(count, csr.n)
    rng = random.Random(seed)
    # resolve once: an explicit "numpy" on a numpy-less host must raise
    # here, not silently run the python loop
    from repro.kernels import resolve_kernel, sssp_matrix

    backend = resolve_kernel(kernel)
    if strategy == "degree":
        chosen = _by_degree(csr, count, rng)
        return chosen, sssp_matrix(
            csr.indptr, csr.indices, csr.weights, chosen, kernel=backend
        )
    return _far_sampling(csr, count, rng, backend)
