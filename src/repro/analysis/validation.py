"""Structural verification of the paper's objects.

Each ``verify_*`` raises :class:`ValidationError` with a precise message
on the first violated property — the test-suite and the benchmark harness
run them on every produced object, so a regression in any construction
fails loudly rather than skewing the measured numbers.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

if TYPE_CHECKING:
    from repro.oracle import DistanceOracle

from repro.analysis.certify import certify_edge_stretch
from repro.analysis.lightness import lightness
from repro.analysis.stretch import root_stretch
from repro.graphs.shortest_paths import dijkstra
from repro.graphs.weighted_graph import Vertex, WeightedGraph


class ValidationError(AssertionError):
    """A produced object violates one of the paper's guarantees."""


def verify_subgraph(graph: WeightedGraph, subgraph: WeightedGraph) -> None:
    """Every edge of ``subgraph`` must be an edge of ``graph``, same weight.

    The paper's spanners and SLTs are subgraphs of G: each keeps edges of
    G at their own weights and adds no shortcut edge G lacks.
    Weights are compared with a relative tolerance of 1e-9, so the check
    reads the same at every weight scale.
    """
    for u, v, w in subgraph.edges():
        if not graph.has_edge(u, v):
            raise ValidationError(f"edge {{{u!r}, {v!r}}} not in the host graph")
        host = graph.weight(u, v)
        if host != w and not math.isclose(host, w, rel_tol=1e-9):
            raise ValidationError(
                f"edge {{{u!r}, {v!r}}} weight {w} differs from host {host}"
            )


def verify_spanning_tree(graph: WeightedGraph, tree: WeightedGraph) -> None:
    """``tree`` must be a spanning tree of ``graph`` and a subgraph of it."""
    verify_subgraph(graph, tree)
    if set(tree.vertices()) != set(graph.vertices()):
        raise ValidationError("tree does not span all vertices")
    if not tree.is_tree():
        raise ValidationError(f"not a tree: n={tree.n}, m={tree.m}")


def verify_spanner(
    graph: WeightedGraph,
    spanner: WeightedGraph,
    stretch: float,
    workers: int = 1,
) -> None:
    """``spanner`` must be a subgraph with per-edge stretch <= ``stretch``.

    Runs the bounded-radius engine with the guarantee as the truncation
    radius: on a valid spanner no search ever leaves the certified ball,
    and an invalid one is rejected at the first radius crossing
    (``fail_fast``) without paying for the exact worst value.
    """
    verify_subgraph(graph, spanner)
    if set(spanner.vertices()) != set(graph.vertices()):
        raise ValidationError("spanner does not span all vertices")
    cert = certify_edge_stretch(  # repro: allow[REP1001] -- seed only drives sample=; validation always certifies every edge
        graph, spanner, bound=stretch, workers=workers, fail_fast=True
    )
    if cert.bound_exceeded:
        raise ValidationError(
            f"stretch violated: some edge has d_H(u, v) > "
            f"{stretch:.6f} · w(e) (certified by radius truncation)"
        )
    if cert.max_stretch > stretch + 1e-9:
        raise ValidationError(
            f"stretch violated: measured {cert.max_stretch:.6f} "
            f"> allowed {stretch:.6f}"
        )


def verify_slt(
    graph: WeightedGraph,
    tree: WeightedGraph,
    root: Vertex,
    alpha: float,
    beta: float,
    mst: Optional[WeightedGraph] = None,
) -> None:
    """``tree`` must be an (α, β)-SLT: root-stretch <= α, lightness <= β.

    Pass a precomputed ``mst`` to skip the Kruskal run the lightness
    check needs (callers that already hold one — reports, the harness —
    would otherwise recompute it on every verify).  Lightness is
    measured through :func:`repro.analysis.lightness.lightness`, whose
    zero-weight-MST handling turns the old ``ZeroDivisionError`` into a
    proper :class:`ValidationError` when the tree carries weight anyway.
    """
    verify_spanning_tree(graph, tree)
    measured_stretch = root_stretch(graph, tree, root, bound=alpha)
    if measured_stretch > alpha + 1e-9:
        raise ValidationError(
            f"SLT root-stretch violated: {measured_stretch:.6f} > {alpha:.6f}"
        )
    measured_lightness = lightness(graph, tree, mst)
    if measured_lightness > beta + 1e-9:
        raise ValidationError(
            f"SLT lightness violated: {measured_lightness:.6f} > {beta:.6f}"
        )


def verify_oracle(
    structure: WeightedGraph,
    oracle: "DistanceOracle",
    pairs: int = 32,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> None:
    """``oracle`` must answer exactly on ``structure``.

    The serving layer's contract is *exact-on-structure* (its stretch
    guarantee vs the host graph is inherited from the structure, so any
    deviation here silently voids the paper bound).  This spot-checks
    ``pairs`` seeded random pairs against a fresh Dijkstra per source —
    the harness and ``repro oracle build --spot-check`` run it after
    preprocessing, and CI's oracle-smoke job runs it over every smoke
    profile's structure.  ``tolerance`` is relative: an answer passes
    when it equals Dijkstra's or lies within ``tolerance`` times the
    larger of the two, so the check reads the same at every weight
    scale; the default 1e-9 absorbs round-off from summing a path's
    weights in another order.
    """
    verts = sorted(structure.vertices(), key=repr)
    oracle_verts = set(oracle.csr.verts)
    if oracle_verts != set(verts):
        raise ValidationError(
            f"oracle serves {len(oracle_verts)} vertices but the structure "
            f"has {len(verts)}"
        )
    if len(verts) < 2:
        return
    rng = random.Random(seed)
    inf = float("inf")
    by_source = {}
    for _ in range(pairs):
        u, v = rng.choice(verts), rng.choice(verts)
        if u not in by_source:
            by_source[u] = dijkstra(structure, u)[0]
        want = by_source[u].get(v, inf)
        got = oracle.query(u, v)
        if got == want:  # covers the inf == inf case exactly
            continue
        if not math.isclose(got, want, rel_tol=tolerance):
            raise ValidationError(
                f"oracle answer for ({u!r}, {v!r}) is {got!r}, "
                f"Dijkstra on the structure says {want!r}"
            )


def _net_measures(
    graph: WeightedGraph,
    points: Iterable[Vertex],
    alpha: float,
    beta: float,
) -> Tuple[float, float]:
    """:func:`verify_net`'s checks, returning what they measured.

    Returns ``(worst covering distance, closest pair distance)``, the
    closest pair being ``inf`` when no two points are connected.  One
    multi-source Dijkstra gives the covering and one Dijkstra per point
    the separation.
    """
    points = set(points)
    if not points:
        raise ValidationError("net is empty")
    pts = sorted(points, key=repr)
    for p in pts:
        if not graph.has_vertex(p):
            raise ValidationError(f"net point {p!r} is not a vertex")
    dist, _ = dijkstra(graph, points)
    worst_cover = 0.0
    for v in graph.vertices():
        d = dist.get(v, math.inf)
        if d > alpha * (1.0 + 1e-9):
            raise ValidationError(
                f"covering violated at {v!r}: nearest net point at {d:.6f} > α={alpha:.6f}"
            )
        worst_cover = max(worst_cover, d)
    closest = math.inf
    for p in pts:
        dp, _ = dijkstra(graph, p)
        for q in pts:
            if q == p:
                continue
            d = dp.get(q, math.inf)
            if d <= beta * (1.0 - 1e-9):
                raise ValidationError(
                    f"separation violated: d({p!r}, {q!r}) = {d:.6f} <= β={beta:.6f}"
                )
            closest = min(closest, d)
    return worst_cover, closest


def verify_net(
    graph: WeightedGraph,
    points: Iterable[Vertex],
    alpha: float,
    beta: float,
) -> None:
    """``points`` must be an (α, β)-net: α-covering and β-separated (§6).

    Both radii get a relative slack of 1e-9, so the check reads the same
    at every weight scale.
    """
    _net_measures(graph, points, alpha, beta)
