"""Stretch measurement.

The paper's stretch analyses are per-edge (§5.1: "By the triangle
inequality, it suffices to show that for every edge {u,v} ∈ E,
d_H(u, v) <= (2k−1)(1+ε)·w(e)"), so :func:`max_edge_stretch` is the
canonical certificate; :func:`max_pairwise_stretch` is the exhaustive
(all-pairs) check for test-sized graphs, and :func:`root_stretch` is the
SLT's single-source variant.

Since the bounded-radius batched engine landed, :func:`max_edge_stretch`
delegates to :mod:`repro.analysis.certify` — the same values up to float
round-off, a fraction of the work (targeted, radius-truncated searches
instead of one full SSSP per vertex), and optional process parallelism.

Disconnection contract (pinned by the test-suite): all three maximum
measures return ``inf`` as soon as any required distance is missing in
the spanner/tree — an edge endpoint unreachable for
:func:`max_edge_stretch`, any G-reachable pair for
:func:`max_pairwise_stretch` and :func:`root_stretch`.
:func:`average_stretch` likewise returns ``inf`` (the missing pair
contributes an infinite term to the mean) rather than skipping the pair.
Pairs that are disconnected in *G itself* are no constraint at all: every
measure iterates G-reachable pairs only, so a spanner of a disconnected
graph certifies finite as long as it preserves each component.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.oracle import DistanceOracle

from repro.analysis.certify import certify_edge_stretch
from repro.graphs.shortest_paths import bounded_dijkstra, dijkstra
from repro.graphs.weighted_graph import Vertex, WeightedGraph

INF = float("inf")


def max_edge_stretch(
    graph: WeightedGraph,
    spanner: WeightedGraph,
    bound: Optional[float] = None,
    workers: int = 1,
) -> float:
    """``max_{e={u,v} ∈ E(G)} d_H(u, v) / w(e)``.

    By the triangle inequality this upper-bounds the all-pairs stretch.
    Runs on the bounded-radius batched certification engine
    (:func:`repro.analysis.certify.certify_edge_stretch`): edges already
    in H are skipped outright, and each remaining edge is settled by a
    targeted search from one endpoint — that target-stop, not the bound,
    is what keeps the exploration small.  The value is exact regardless
    of ``bound``: passing the construction's stretch guarantee makes the
    engine count crossings of the §5.1 radius ``bound · max_incident_w``
    (each one a certified violation — the ``fail_fast`` early-reject
    that :func:`~repro.analysis.validation.verify_spanner` uses) without
    giving up the exact answer.  ``workers > 1`` fans the sources out
    across processes.
    """
    return certify_edge_stretch(  # repro: allow[REP1001] -- seed only drives sample=, which this exact (unsampled) query never passes
        graph, spanner, bound=bound, workers=workers
    ).max_stretch


def max_pairwise_stretch(graph: WeightedGraph, spanner: WeightedGraph) -> float:
    """Exact all-pairs stretch ``max_{u≠v} d_H(u,v) / d_G(u,v)``."""
    worst = 1.0
    for u in graph.vertices():
        dg, _ = dijkstra(graph, u)
        dh, _ = dijkstra(spanner, u)
        for v, d in dg.items():
            if v == u or d == 0:
                continue
            s = dh.get(v, INF)
            if s == INF:
                return INF
            worst = max(worst, s / d)
    return worst


def average_stretch(graph: WeightedGraph, spanner: WeightedGraph) -> float:
    """Mean pairwise stretch (reported alongside the max in benchmarks).

    Returns ``inf`` when the spanner disconnects any G-reachable pair
    (the missing pair's infinite stretch dominates the mean), mirroring
    the max measures' contract.
    """
    total = 0.0
    count = 0
    for u in graph.vertices():
        dg, _ = dijkstra(graph, u)
        dh, _ = dijkstra(spanner, u)
        for v, d in dg.items():
            if v == u or d == 0:
                continue
            total += dh.get(v, INF) / d
            count += 1
    return total / count if count else 1.0


def sample_pairwise_stretch(
    graph: WeightedGraph,
    spanner: WeightedGraph,
    pairs: int = 64,
    seed: int = 0,
    graph_oracle: Optional["DistanceOracle"] = None,
    spanner_oracle: Optional["DistanceOracle"] = None,
) -> float:
    """Oracle-served spot-check of the pairwise stretch.

    Draws ``pairs`` seeded random vertex pairs and serves both distances
    through :class:`~repro.oracle.DistanceOracle` instances — ``d_G``
    and ``d_H`` are each exact-on-their-graph, so every sampled ratio is
    a true pairwise stretch and the maximum is a lower bound on
    :func:`max_pairwise_stretch` at a fraction of its ``n`` full-SSSP
    cost.  Callers holding prebuilt oracles (the harness's query suite,
    long-lived serving processes) pass them in; otherwise both are built
    here with the same ``seed``.

    Returns ``inf`` as soon as a sampled pair is connected in G but not
    in the spanner (the disconnection contract of the exact measures).
    """
    verts = list(graph.vertices())
    if len(verts) < 2:
        return 1.0
    # deferred: repro.oracle serves structures produced by the paper's
    # constructions, which repro.analysis certifies — import lazily so
    # the two layers stay import-order independent
    from repro.oracle import build_oracle

    go = graph_oracle if graph_oracle is not None else build_oracle(graph, seed=seed)
    so = (
        spanner_oracle if spanner_oracle is not None
        else build_oracle(spanner, seed=seed)
    )
    rng = random.Random(seed)
    worst = 1.0
    for _ in range(pairs):
        u, v = rng.sample(verts, 2)
        dg = go.query(u, v)
        if dg == INF or dg == 0.0:
            continue  # pairs disconnected in G constrain nothing
        try:
            dh = so.query(u, v)
        except ValueError:
            # a G vertex the spanner does not even contain is the
            # extreme disconnection case — same contract, same answer
            return INF
        if dh == INF:
            return INF
        worst = max(worst, dh / dg)
    return worst


def root_stretch(
    graph: WeightedGraph,
    tree: WeightedGraph,
    root: Vertex,
    bound: Optional[float] = None,
) -> float:
    """``max_v d_T(rt, v) / d_G(rt, v)`` — the SLT's distortion (§4).

    With ``bound`` given, the tree exploration is truncated at radius
    ``bound · ecc_G(root)`` — any vertex outside that ball already
    violates the bound, and the exploration falls back to the full
    search only in that (failing) case, so the returned value is exact
    either way.
    """
    dg, _ = dijkstra(graph, root)
    if bound is not None:
        finite = [d for d in dg.values() if d < INF]
        radius = bound * max(finite, default=0.0)
        dt, _ = bounded_dijkstra(tree, root, radius)
        if any(v not in dt for v in dg):
            dt, _ = dijkstra(tree, root)  # violation: recover the exact value
    else:
        dt, _ = dijkstra(tree, root)
    worst = 1.0
    for v, d in dg.items():
        if v == root or d == 0:
            continue
        s = dt.get(v, INF)
        if s == INF:
            return INF
        worst = max(worst, s / d)
    return worst
