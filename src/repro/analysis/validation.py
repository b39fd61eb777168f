"""Structural verification of the paper's objects.

Each ``verify_*`` raises :class:`ValidationError` with a precise message
on the first violated property — the test-suite and the benchmark harness
run them on every produced object, so a regression in any construction
fails loudly rather than skewing the measured numbers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Tuple

if TYPE_CHECKING:
    from repro.oracle import DistanceOracle

from repro.analysis.certify import Certification, certify_edge_stretch
from repro.analysis.lightness import lightness
from repro.analysis.stretch import root_stretch
from repro.graphs.csr import CSRGraph
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


def _verify_certified_subgraph(
    graph: WeightedGraph, subgraph: WeightedGraph, cert: Certification
) -> None:
    """:func:`verify_subgraph`, after ``cert`` certified ``subgraph`` in ``graph``.

    The certification's scan of G counted the G edges that H holds at
    G's weight (``cert.edges_shared``), by :func:`verify_subgraph`'s own
    test.  Each G edge matches at most one H edge, so the count equals
    H's edge count exactly when H ⊆ G.  Only when it does not (H is not
    a subgraph, or the scan stopped at a G vertex H lacks) does the
    label-level walk run, so its error messages are what a caller sees.
    """
    if cert.edges_shared != subgraph.m:
        verify_subgraph(graph, subgraph)


def verify_spanning_tree(graph: WeightedGraph, tree: WeightedGraph) -> None:
    """``tree`` must be a spanning tree of ``graph`` and a subgraph of it.

    A tree over the graph's vertices in the graph's order, as the
    constructions build them, passes on one search over the two frozen
    views, which an SLT report's stretch and lightness measures read
    too.  Any other tree, and one that search rejects, goes through the
    label-level checks, which fail in the order subgraph, span, tree, so
    their messages are what a caller sees.
    """
    host = graph.freeze()
    view = tree.freeze()
    if _spans_as_a_tree(host, view):
        return
    verify_subgraph(graph, tree)
    if set(tree.vertices()) != set(graph.vertices()):
        raise ValidationError("tree does not span all vertices")
    if not tree.is_tree():
        raise ValidationError(f"not a tree: n={tree.n}, m={tree.m}")


def _spans_as_a_tree(host: CSRGraph, view: CSRGraph) -> bool:
    """True iff ``view`` has ``host``'s vertices in ``host``'s order and
    is a spanning tree of ``host`` and a subgraph of it, under
    :func:`verify_subgraph`'s weight test.

    With n − 1 edges, ``view`` is a tree iff one search from index 0
    reaches every vertex, and then every edge is the one that search
    first reached a vertex over, so looking those up in the host's
    sorted rows covers every edge.
    """
    n = view.n
    if n == 0 or view.m != n - 1 or view.verts != host.verts:
        return False
    hptr, hidx, hw = host.indptr, host.indices, host.weights
    tptr, tidx, tw = view.indptr, view.indices, view.weights
    isclose = math.isclose
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    push, pop = stack.append, stack.pop
    reached = 1
    while stack:
        i = pop()
        lo, hi = hptr[i], hptr[i + 1]
        for s in range(tptr[i], tptr[i + 1]):
            j = tidx[s]
            if seen[j]:
                continue
            seen[j] = 1
            reached += 1
            push(j)
            slot = bisect_left(hidx, j, lo, hi)
            if slot == hi or hidx[slot] != j:
                return False
            if tw[s] != hw[slot] and not isclose(hw[slot], tw[s], rel_tol=1e-9):
                return False
    return reached == n


def verify_spanner(
    graph: WeightedGraph,
    spanner: WeightedGraph,
    stretch: float,
) -> None:
    """``spanner`` must be a subgraph with per-edge stretch <= ``stretch``.

    Runs the bounded-radius engine with the guarantee as the truncation
    radius: on a valid spanner no search ever leaves the certified ball,
    and an invalid one is rejected at the first radius crossing
    (``fail_fast``) without paying for the exact worst value.  The
    engine's scan of G also decides H ⊆ G, so :func:`verify_subgraph`
    runs only when that scan did not prove it.  The checks still fail in
    the order subgraph, span, stretch.
    """
    cert = certify_edge_stretch(  # repro: allow[REP1001] -- seed only drives sample=; validation always certifies every edge
        graph, spanner, bound=stretch, fail_fast=True
    )
    _verify_certified_subgraph(graph, spanner, cert)
    if set(spanner.vertices()) != set(graph.vertices()):
        raise ValidationError("spanner does not span all vertices")
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
) -> None:
    """``tree`` must be an (α, β)-SLT: root-stretch <= α, lightness <= β.

    Lightness is measured through
    :func:`repro.analysis.lightness.lightness`, which reads the MST's
    weight from the triples cached on ``graph``'s frozen view, so a
    graph whose MST was already found runs no Kruskal here; its
    zero-weight-MST handling turns the old ``ZeroDivisionError`` into a
    proper :class:`ValidationError` when the tree carries weight anyway.
    """
    verify_spanning_tree(graph, tree)
    measured_stretch = root_stretch(graph, tree, root)
    if measured_stretch > alpha + 1e-9:
        raise ValidationError(
            f"SLT root-stretch violated: {measured_stretch:.6f} > {alpha:.6f}"
        )
    measured_lightness = lightness(graph, tree)
    if measured_lightness > beta + 1e-9:
        raise ValidationError(
            f"SLT lightness violated: {measured_lightness:.6f} > {beta:.6f}"
        )


def verify_oracle(
    structure: WeightedGraph,
    oracle: "DistanceOracle",
    pairs: int = 32,
    seed: int = 0,
) -> None:
    """``oracle`` must answer exactly on ``structure``.

    The serving layer's contract is *exact-on-structure* (its stretch
    guarantee vs the host graph is inherited from the structure, so any
    deviation here silently voids the paper bound).  This spot-checks
    ``pairs`` seeded random pairs against a fresh Dijkstra per source —
    the harness and ``repro oracle build --spot-check`` run it after
    preprocessing, and CI's oracle-smoke job runs it over every smoke
    profile's structure.  An answer passes when it equals Dijkstra's or
    lies within 1e-9 times the larger of the two, so the check reads the
    same at every weight scale and absorbs round-off from summing a
    path's weights in another order.
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
        if not math.isclose(got, want, rel_tol=1e-9):
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
