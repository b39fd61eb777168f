"""Graph generators used as evaluation workloads.

The paper has no empirical section, so the benchmark harness needs graph
families that exercise each construction:

* ``erdos_renyi_graph`` — dense general graphs for the §5 light spanner;
* ``random_geometric_graph`` / ``grid_graph`` — constant doubling dimension
  (ddim ≈ 2) for the §7 doubling spanner;
* ``unit_ball_graph`` — the family [DPP06] studied in the LOCAL model;
* ``star_graph`` / ``ring_of_cliques`` / ``caterpillar_graph`` — adversarial
  shapes where MST-following paths are long (classic SLT stress tests);
* ``random_tree`` — MST/Euler-tour unit tests.

All generators take an explicit ``seed`` so experiments are reproducible.
Weights are kept in ``[1, poly(n)]`` per the paper's Preliminaries.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.graphs.weighted_graph import WeightedGraph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def complete_graph(
    n: int, min_weight: float = 1.0, max_weight: float = 1.0, seed: Optional[int] = None
) -> WeightedGraph:
    """Complete graph on ``n`` vertices with uniform random weights."""
    rng = _rng(seed)
    g = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, rng.uniform(min_weight, max_weight))
    return g


def path_graph(n: int, weights: Optional[Sequence[float]] = None) -> WeightedGraph:
    """Path 0-1-...-(n-1); ``weights`` optionally gives the n-1 edge weights."""
    g = WeightedGraph(range(n))
    for i in range(n - 1):
        w = weights[i] if weights is not None else 1.0
        g.add_edge(i, i + 1, w)
    return g


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    """Cycle on ``n >= 3`` vertices with uniform edge weight."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    g = path_graph(n, [weight] * (n - 1))
    g.add_edge(n - 1, 0, weight)
    return g


def star_graph(n: int, spoke_weight: float = 1.0, rim_weight: Optional[float] = None) -> WeightedGraph:
    """Star with centre 0 and ``n - 1`` leaves.

    When ``rim_weight`` is given, consecutive leaves are also connected in a
    rim cycle — the classic example where the MST (the rim plus one spoke)
    has terrible root-stretch, motivating shallow-light trees.
    """
    g = WeightedGraph(range(n))
    for v in range(1, n):
        g.add_edge(0, v, spoke_weight)
    if rim_weight is not None and n > 3:
        for v in range(1, n - 1):
            g.add_edge(v, v + 1, rim_weight)
        g.add_edge(n - 1, 1, rim_weight)
    return g


def grid_graph(rows: int, cols: int, weight: float = 1.0, seed: Optional[int] = None,
               jitter: float = 0.0) -> WeightedGraph:
    """``rows x cols`` grid; optional multiplicative weight jitter in [1, 1+jitter]."""
    rng = _rng(seed)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    g = WeightedGraph(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge(vid(r, c), vid(r, c + 1), weight * (1 + rng.random() * jitter))
            if r + 1 < rows:
                g.add_edge(vid(r, c), vid(r + 1, c), weight * (1 + rng.random() * jitter))
    return g


def erdos_renyi_graph(
    n: int,
    p: float,
    min_weight: float = 1.0,
    max_weight: float = 100.0,
    seed: Optional[int] = None,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """G(n, p) with uniform random weights in ``[min_weight, max_weight]``.

    With ``ensure_connected`` a random Hamiltonian backbone path is added
    (with fresh random weights) so the result is always connected — spanner
    and SLT constructions require connectivity.
    """
    rng = _rng(seed)
    g = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, rng.uniform(min_weight, max_weight))
    if ensure_connected and n > 1:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            if not g.has_edge(a, b):
                g.add_edge(a, b, rng.uniform(min_weight, max_weight))
    return g


def random_points(
    n: int, dim: int = 2, side: float = 1.0, seed: Optional[int] = None
) -> List[Tuple[float, ...]]:
    """``n`` uniform points in ``[0, side]^dim`` (helper for geometric graphs)."""
    rng = _rng(seed)
    return [tuple(rng.uniform(0, side) for _ in range(dim)) for _ in range(n)]


def _euclidean(p: Tuple[float, ...], q: Tuple[float, ...]) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _stitch_components(
    g: WeightedGraph, pts: List[Tuple[float, ...]], weight_scale: float
) -> None:
    """Connect stragglers so the graph is usable: while ``g`` has several
    components, join the first one to the rest at their closest point
    pair, weighted like every other edge."""
    comps = g.connected_components()
    while len(comps) > 1:
        best = None
        main = comps[0]
        for other in comps[1:]:
            for u in main:
                for v in other:
                    d = _euclidean(pts[u], pts[v])
                    if best is None or d < best[0]:
                        best = (d, u, v)
        assert best is not None
        g.add_edge(best[1], best[2], max(1.0, best[0] * weight_scale))
        comps = g.connected_components()


def random_geometric_graph(
    n: int,
    radius: Optional[float] = None,
    dim: int = 2,
    seed: Optional[int] = None,
    weight_scale: float = 100.0,
) -> WeightedGraph:
    """Random geometric graph: points in the unit cube, edges below ``radius``.

    Edge weights are (scaled) Euclidean distances, clamped to be >= 1, so the
    shortest-path metric is doubling with ddim = O(dim).  The default radius
    ``2 * (log n / n)^(1/dim)`` is above the connectivity threshold.
    """
    if radius is None:
        radius = 2.0 * (math.log(max(n, 2)) / max(n, 2)) ** (1.0 / dim)
    pts = random_points(n, dim=dim, seed=seed)
    g = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            d = _euclidean(pts[u], pts[v])
            if d <= radius:
                g.add_edge(u, v, max(1.0, d * weight_scale))
    _stitch_components(g, pts, weight_scale)
    return g


def unit_ball_graph(
    n: int, dim: int = 2, side: float = 4.0, seed: Optional[int] = None,
    weight_scale: float = 10.0,
) -> WeightedGraph:
    """Unit ball graph (footnote 6): points in a doubling metric, edges at
    distance <= 1, weighted by the metric distance (scaled to be >= 1).

    Mirrors the [DPP06] setting the paper contrasts itself with.
    Disconnected samples are stitched like ``random_geometric_graph``.
    """
    pts = random_points(n, dim=dim, side=side, seed=seed)
    g = WeightedGraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            d = _euclidean(pts[u], pts[v])
            if d <= 1.0:
                g.add_edge(u, v, max(1.0, d * weight_scale))
    _stitch_components(g, pts, weight_scale)
    return g


def random_tree(
    n: int, min_weight: float = 1.0, max_weight: float = 10.0, seed: Optional[int] = None
) -> WeightedGraph:
    """Uniform random recursive tree with random weights (Euler-tour tests)."""
    rng = _rng(seed)
    g = WeightedGraph(range(n))
    for v in range(1, n):
        parent = rng.randrange(v)
        g.add_edge(parent, v, rng.uniform(min_weight, max_weight))
    return g


def power_law_graph(
    n: int,
    attach: int = 2,
    min_weight: float = 1.0,
    max_weight: float = 10.0,
    seed: Optional[int] = None,
) -> WeightedGraph:
    """Preferential-attachment (Barabási–Albert) graph with random weights.

    Starts from a clique on ``attach + 1`` vertices; every later vertex
    attaches to ``attach`` distinct existing vertices sampled
    proportionally to degree.  The degree sequence is power-law-ish —
    hub-and-spoke workloads where a few vertices carry most of the edges,
    the opposite regime from ER/grid.  Connected by construction.
    """
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if n < attach + 1:
        raise ValueError("n must be at least attach + 1")
    rng = _rng(seed)
    g = WeightedGraph(range(n))
    # endpoint multiset: sampling uniformly from it = degree-proportional
    endpoints: List[int] = []
    for u in range(attach + 1):
        for v in range(u + 1, attach + 1):
            g.add_edge(u, v, rng.uniform(min_weight, max_weight))
            endpoints.extend((u, v))
    for v in range(attach + 1, n):
        targets: set = set()
        while len(targets) < attach:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for u in targets:
            g.add_edge(u, v, rng.uniform(min_weight, max_weight))
            endpoints.extend((u, v))
    return g


def caterpillar_graph(
    spine: int, legs_per_vertex: int = 2, spine_weight: float = 10.0, leg_weight: float = 1.0
) -> WeightedGraph:
    """Caterpillar: a heavy spine path with light legs.

    A long, heavy MST spine makes MST-following root paths expensive —
    useful for exercising the SLT break-point machinery and for graphs with
    large hop-diameter D.
    """
    g = WeightedGraph()
    for i in range(spine):
        g.add_vertex(i)
        if i > 0:
            g.add_edge(i - 1, i, spine_weight)
    next_id = spine
    for i in range(spine):
        for _ in range(legs_per_vertex):
            g.add_vertex(next_id)
            g.add_edge(i, next_id, leg_weight)
            next_id += 1
    return g


def hypercube_graph(dim: int, weight: float = 1.0, seed: Optional[int] = None,
                    jitter: float = 0.0) -> WeightedGraph:
    """The ``dim``-dimensional hypercube (n = 2^dim, hop-diameter = dim).

    Small hop-diameter with n^... vertices — the regime where the ``D``
    term of the round bounds is negligible and the √n term dominates.
    """
    rng = _rng(seed)
    n = 1 << dim
    g = WeightedGraph(range(n))
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                g.add_edge(v, u, weight * (1 + rng.random() * jitter))
    return g


def random_regular_graph(
    n: int, degree: int, min_weight: float = 1.0, max_weight: float = 10.0,
    seed: Optional[int] = None,
) -> WeightedGraph:
    """Random ``degree``-regular-ish graph (expander-like for degree >= 3).

    Built by the pairing model with retries; parallel edges/self-loops
    are rejected, so a few vertices may end up one short of ``degree``.
    A random backbone cycle guarantees connectivity.
    """
    if degree >= n:
        raise ValueError("degree must be below n")
    rng = _rng(seed)
    g = WeightedGraph(range(n))
    stubs = [v for v in range(n) for _ in range(degree)]
    for _attempt in range(60):
        rng.shuffle(stubs)
        ok = True
        trial = WeightedGraph(range(n))
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or trial.has_edge(a, b):
                ok = False
                break
            trial.add_edge(a, b, rng.uniform(min_weight, max_weight))
        if ok:
            g = trial
            break
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + [order[0]]):
        if not g.has_edge(a, b):
            g.add_edge(a, b, rng.uniform(min_weight, max_weight))
    return g


def barbell_graph(clique_size: int, path_length: int, clique_weight: float = 1.0,
                  path_weight: float = 1.0) -> WeightedGraph:
    """Two cliques joined by a path — large hop-diameter D.

    The classical bad case for broadcast-based algorithms: D ≈
    ``path_length`` dominates the Õ(√n + D) bounds.
    """
    g = WeightedGraph()
    for base in (0, clique_size + path_length):
        for i in range(clique_size):
            g.add_vertex(base + i)
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                g.add_edge(base + i, base + j, clique_weight)
    prev = 0  # a vertex of the left clique
    for i in range(path_length):
        mid = clique_size + i
        g.add_vertex(mid)
        g.add_edge(prev, mid, path_weight)
        prev = mid
    g.add_edge(prev, clique_size + path_length, path_weight)
    return g


_MASK64 = (1 << 64) - 1
_RC_MIX1 = 0xBF58476D1CE4E5B9
_RC_MIX2 = 0x94D049BB133111EB
_RC_U = 0xC2B2AE3D27D4EB4F
_RC_V = 0x165667B19E3779F9


def _splitmix64(z: int) -> int:
    """Finalizer of the splitmix64 generator (pure 64-bit avalanche)."""
    z = ((z ^ (z >> 30)) * _RC_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _RC_MIX2) & _MASK64
    return z ^ (z >> 31)


def ring_chord_weight(seed: int, u: int, v: int) -> float:
    """Weight of ring-chords edge ``{u, v}``: a pure function in [1, 2).

    Hashing ``(seed, min, max)`` instead of drawing from an RNG stream
    is what lets :mod:`repro.kernels.genpack` stream the identical
    graph straight to disk in any vertex order, without replaying a
    generator state.  The numpy packer replicates this arithmetic in
    wrapping uint64, bit-for-bit.
    """
    a, b = (u, v) if u <= v else (v, u)
    z = ((seed & _MASK64) ^ ((a * _RC_U + b * _RC_V) & _MASK64)) & _MASK64
    return 1.0 + _splitmix64(z) / 2.0**64


def ring_chord_offsets(n: int, chords: int) -> Tuple[int, ...]:
    """The canonical neighbour-offset set of the ring-chords family.

    Offsets are residues mod ``n``: the ring (``±1``) plus ``chords``
    strides spread geometrically from ``isqrt(n)`` (clamped to
    ``[2, n//2]``), each contributing both directions.  Every vertex
    ``i`` is adjacent to exactly ``{(i + o) % n}`` over these offsets,
    so the degree is uniformly ``len(offsets)`` — which is what lets
    the packer precompute ``indptr`` as a flat stride.
    """
    if n < 5:
        raise ValueError("ring-chords needs at least 5 vertices")
    if chords < 0:
        raise ValueError("chords must be >= 0")
    offsets = {1, n - 1}
    stride = max(2, math.isqrt(n))
    for _ in range(chords):
        s = min(stride, n // 2)
        while (s in offsets or (n - s) in offsets) and s < n // 2:
            s += 1
        if s in offsets or (n - s) in offsets:
            break  # n too small to fit another distinct stride
        offsets.add(s)
        offsets.add(n - s)
        stride = stride * 2 + 1
    return tuple(sorted(offsets))


def ring_chords_graph(n: int, chords: int = 2, seed: int = 0) -> WeightedGraph:
    """Deterministic ring + geometric chord strides (the ``huge``-tier family).

    A weighted ring with ``chords`` extra strides near ``sqrt(n)``
    keeps the hop diameter at ``O(sqrt(n))`` while staying
    constant-degree — the regime where frontier-relaxation kernels
    shine.  A pure function of ``(n, chords, seed)``: the streamed
    binary packer produces the identical CSR without ever building
    this object, and ``tests/test_kernels.py`` holds the two to exact
    parity.
    """
    offsets = ring_chord_offsets(n, chords)
    g = WeightedGraph(range(n))
    for u in range(n):
        for o in offsets:
            v = (u + o) % n
            if u < v:
                g.add_edge(u, v, ring_chord_weight(seed, u, v))
    return g


def ring_of_cliques(
    num_cliques: int, clique_size: int, intra_weight: float = 1.0, inter_weight: float = 50.0
) -> WeightedGraph:
    """Cliques arranged in a ring with heavy inter-clique edges.

    The MST must pay for ``num_cliques - 1`` heavy edges, while spanners can
    shortcut across cliques — a workload where lightness and sparsity pull
    in different directions.
    """
    if num_cliques < 3:
        raise ValueError("need at least 3 cliques")
    g = WeightedGraph()
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            g.add_vertex(base + i)
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                g.add_edge(base + i, base + j, intra_weight)
    for c in range(num_cliques):
        u = c * clique_size
        v = ((c + 1) % num_cliques) * clique_size
        g.add_edge(u, v, inter_weight)
    return g
