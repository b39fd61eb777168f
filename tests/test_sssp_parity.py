"""Every plain Dijkstra against verbatim copies of the heap loops it replaced.

``dijkstra``, the capped ``pykern.Search`` the greedy nets run, and
the oracle's landmark potentials all run one shared kernel loop.  The
references below are copies of the hand-written loops they used to
carry: ``_csr_dijkstra`` and ``_csr_bounded_dijkstra`` from
``repro.graphs.shortest_paths``, and the landmark module's ``_sssp``
with the selection code around it.  A capped search is translated to
labels as the label-keyed bounded Dijkstra it replaced did, and every
ball a greedy net marks covered must equal the bounded reference's.
Outputs must be equal with ``==`` and in the same dict insertion order, on
seeded ER, geometric and all-ties grid graphs and on two components
beside an isolated vertex, at three weight scales,
from one, a duplicated and four sources, over ``WeightedGraph``,
``CSRGraph`` and string-labelled inputs, at radii from 0 to past the
eccentricity.  The numpy landmark potentials must equal the same
python reference with ``==``.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Tuple

import pytest

from repro.graphs import (
    WeightedGraph,
    dijkstra,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
)
from repro.graphs.csr import CSRGraph
from repro.core import nets
from repro.core.nets import greedy_net
from repro.graphs.shortest_paths import _normalize_sources
from repro.kernels import has_numpy, pykern
from repro.oracle.landmarks import landmarks_with_potentials

INF = float("inf")


# ------------------------------------------------------------- references

def _ref_csr_dijkstra(csr, sources):
    sources = _normalize_sources(csr, sources)
    n = csr.n
    indptr, indices, weights, verts = csr.indptr, csr.indices, csr.weights, csr.verts
    dist: List[float] = [INF] * n
    parent: List[int] = [-2] * n  # -2 = untouched, -1 = source
    heap: List[Tuple[float, int]] = []
    for s in sources:
        i = csr.index_of(s)
        dist[i] = 0.0
        parent[i] = -1
        heap.append((0.0, i))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry
        a, b = indptr[u], indptr[u + 1]
        for v, w in zip(indices[a:b], weights[a:b]):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    out_dist: Dict = {}
    out_parent: Dict = {}
    for i in range(n):
        p = parent[i]
        if p == -2:
            continue
        out_dist[verts[i]] = dist[i]
        out_parent[verts[i]] = None if p == -1 else verts[p]
    return out_dist, out_parent


def _ref_csr_bounded_dijkstra(csr, sources, radius):
    sources = _normalize_sources(csr, sources)
    n = csr.n
    indptr, indices, weights, verts = csr.indptr, csr.indices, csr.weights, csr.verts
    dist: List[float] = [INF] * n
    parent: List[int] = [-2] * n
    heap: List[Tuple[float, int]] = []
    for s in sources:
        i = csr.index_of(s)
        dist[i] = 0.0
        parent[i] = -1
        heap.append((0.0, i))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        a, b = indptr[u], indptr[u + 1]
        for v, w in zip(indices[a:b], weights[a:b]):
            nd = d + w
            if nd <= radius and nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    out_dist: Dict = {}
    out_parent: Dict = {}
    for i in range(n):
        p = parent[i]
        if p == -2:
            continue
        out_dist[verts[i]] = dist[i]
        out_parent[verts[i]] = None if p == -1 else verts[p]
    return out_dist, out_parent


def _ref_landmark_sssp(csr, src):
    n = csr.n
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    dist = [INF] * n
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for s in range(indptr[u], indptr[u + 1]):
            v = indices[s]
            nd = d + weights[s]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


def _ref_far_sampling(csr, count, rng):
    n = csr.n
    chosen = [rng.randrange(n)]
    potentials: List[List[float]] = []
    best = [INF] * n
    while True:
        dist = _ref_landmark_sssp(csr, chosen[-1])
        potentials.append(dist)
        for v in range(n):
            if dist[v] < best[v]:
                best[v] = dist[v]
        if len(chosen) == count:
            return chosen, potentials
        far = max(range(n), key=lambda v: (best[v], -v))
        if best[far] == 0.0:
            return chosen, potentials
        chosen.append(far)


def _ref_by_degree(csr, count, rng):
    order = list(range(csr.n))
    rng.shuffle(order)
    order.sort(key=csr.degree_idx, reverse=True)
    return order[:count]


def _ref_landmarks(csr, count, strategy, seed):
    """The landmark selection as the oracle ran it before the kernel
    layer served every backend."""
    count = min(count, csr.n)
    rng = random.Random(seed)
    if strategy == "degree":
        chosen = _ref_by_degree(csr, count, rng)
        return chosen, [_ref_landmark_sssp(csr, i) for i in chosen]
    return _ref_far_sampling(csr, count, rng)


# ----------------------------------------------------------------- inputs

FAMILIES = ("er", "geometric", "ties", "split")
FACTORS = (1.0, 1e-6, 1e6)
KINDS = ("weighted", "csr", "strings")


def _graph(family: str, factor: float) -> WeightedGraph:
    if family == "er":
        g = erdos_renyi_graph(40, 0.08, seed=3)
        g.add_edge(40, 41, 1.0)  # a component no source reaches
    elif family == "geometric":
        g = random_geometric_graph(40, seed=5)
    elif family == "split":
        # two components and an isolated vertex: far sampling's rule that
        # an unreached vertex is farthest, with index ties among inf
        g = random_geometric_graph(18, seed=5)
        g.add_vertex(18)
        for u, v, w in random_geometric_graph(18, seed=8).edges():
            g.add_edge(u + 19, v + 19, w)
    else:
        g = grid_graph(5, 6)  # every weight 1: ties everywhere
    return g.reweighted(lambda u, v, w: w * factor)


def _relabelled(g: WeightedGraph) -> WeightedGraph:
    out = WeightedGraph(f"v{v}" for v in g.vertices())
    for u, v, w in g.edges():
        out.add_edge(f"v{u}", f"v{v}", w)
    return out


def _input(family: str, factor: float, kind: str):
    g = _graph(family, factor)
    if kind == "strings":
        g = _relabelled(g)
    return g.freeze() if kind == "csr" else g


def _frozen(graph) -> CSRGraph:
    return graph.freeze() if isinstance(graph, WeightedGraph) else graph


def _capped_sssp(graph, sources, radius):
    """One ``pykern.Search`` capped at ``radius`` and resumed to it, as
    the greedy nets run it, as label-keyed ``(dist, parent)`` dicts in
    index order."""
    csr = _frozen(graph)
    search = pykern.Search(
        csr.indptr, csr.indices, csr.weights,
        [csr.index_of(s) for s in _normalize_sources(csr, sources)], radius,
    )
    search.resume(radius)
    dist, parent, verts = search.dist, search.parent, csr.verts
    reached = sorted(search.reached)
    return ({verts[i]: dist[i] for i in reached},
            {verts[i]: None if parent[i] == pykern.PARENT_SOURCE
             else verts[parent[i]] for i in reached})


def _source_sets(graph) -> List[object]:
    verts = list(graph.vertices())
    one = verts[0]
    return [one, [one, one], [verts[3], verts[11], verts[17], verts[29]]]


def _radii(graph, sources) -> List[float]:
    csr = _frozen(graph)
    reached = sorted(_ref_csr_dijkstra(csr, sources)[0].values())
    return [
        0.0,
        csr.min_weight() / 2,
        reached[len(reached) // 5],
        reached[len(reached) // 2],
        2 * reached[-1] + 1.0,
    ]


def _assert_identical(got, want) -> None:
    assert got == want
    for g, w in zip(got, want):
        assert list(g.items()) == list(w.items())


# ------------------------------------------------------------------ tests

class TestDijkstraParity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_dijkstra_equals_reference(self, family, factor, kind):
        graph = _input(family, factor, kind)
        for sources in _source_sets(graph):
            want = _ref_csr_dijkstra(_frozen(graph), sources)
            _assert_identical(dijkstra(graph, sources), want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_capped_sssp_equals_reference(self, family, factor, kind):
        graph = _input(family, factor, kind)
        for sources in _source_sets(graph):
            for radius in _radii(graph, sources):
                want = _ref_csr_bounded_dijkstra(_frozen(graph), sources, radius)
                _assert_identical(_capped_sssp(graph, sources, radius), want)

    def test_radii_cover_empty_partial_and_full_balls(self):
        graph = _input("geometric", 1.0, "weighted")
        sizes = [
            len(_capped_sssp(graph, 0, r)[0]) for r in _radii(graph, 0)
        ]
        assert sizes[0] == sizes[1] == 1
        assert 1 < sizes[2] < sizes[3] < sizes[4] == graph.n


class TestGreedyNetBalls:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_kept_vertex_covers_the_reference_ball(
        self, family, factor, kind, monkeypatch
    ):
        """``greedy_net`` marks covered, for every vertex it keeps, the
        ball of the bounded reference loop from that vertex."""
        graph = _input(family, factor, kind)
        csr = _frozen(graph)
        verts = csr.verts
        balls: Dict = {}

        class Recording(pykern.Search):
            def __init__(self, indptr, indices, weights, sources, cap):
                super().__init__(indptr, indices, weights, sources, cap)
                (source,) = sources
                balls[verts[source]] = (self, cap)

        monkeypatch.setattr(nets, "Search", Recording)
        for radius in _radii(graph, verts[0]):
            balls.clear()
            kept = greedy_net(graph, radius)
            if radius < csr.min_weight():
                assert not balls and kept == set(verts)
                continue
            assert balls.keys() == kept
            for v, (search, cap) in balls.items():
                want = _ref_csr_bounded_dijkstra(csr, v, radius)[0]
                assert cap == radius
                assert {verts[i] for i in search.reached} == want.keys()


class TestLandmarkParity:
    @pytest.mark.parametrize("kernel", [
        "python",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not has_numpy(), reason="numpy not installed"
        )),
    ])
    @pytest.mark.parametrize("strategy", ["far", "degree"])
    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_potentials_equal_reference(self, family, factor, strategy, kernel):
        csr = _graph(family, factor).freeze()
        for count in (1, 4, csr.n):
            for seed in (0, 1, 2):
                got = landmarks_with_potentials(
                    csr, count, strategy, seed, kernel=kernel
                )
                assert got == _ref_landmarks(csr, count, strategy, seed)
