"""Parity suite: CSRGraph must agree with WeightedGraph everywhere.

The CSR backend is a pure re-encoding — same vertices, same edges, same
distances, same guarantees — so every generator family is pushed through
both backends and the results compared exactly.
"""

import math
import random
from array import array

import pytest

from repro.analysis import max_edge_stretch
from repro.graphs import (
    WeightedGraph,
    barbell_graph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    dijkstra,
    erdos_renyi_graph,
    grid_graph,
    hop_diameter,
    hypercube_graph,
    path_graph,
    random_geometric_graph,
    random_regular_graph,
    random_tree,
    ring_of_cliques,
    star_graph,
    unit_ball_graph,
)
from repro.graphs import csr as csr_module
from repro.graphs.csr import round_up_weights
from repro.graphs.shortest_paths import hop_distances
from repro.kernels import pykern
from repro.spanners.baswana_sen import baswana_sen_spanner

FAMILIES = {
    "complete": lambda: complete_graph(12, 1.0, 9.0, seed=1),
    "path": lambda: path_graph(20),
    "cycle": lambda: cycle_graph(15),
    "star+rim": lambda: star_graph(12, rim_weight=0.5),
    "grid": lambda: grid_graph(5, 6, jitter=0.3, seed=2),
    "erdos-renyi": lambda: erdos_renyi_graph(40, 0.15, seed=3),
    "geometric": lambda: random_geometric_graph(30, seed=4),
    "unit-ball": lambda: unit_ball_graph(25, seed=5),
    "tree": lambda: random_tree(30, seed=6),
    "caterpillar": lambda: caterpillar_graph(8, 3),
    "ring-of-cliques": lambda: ring_of_cliques(4, 5),
    "hypercube": lambda: hypercube_graph(4),
    "regular": lambda: random_regular_graph(20, 4, seed=8),
    "barbell": lambda: barbell_graph(5, 6),
}


@pytest.fixture(params=sorted(FAMILIES), ids=sorted(FAMILIES))
def pair(request):
    g = FAMILIES[request.param]()
    return g, g.to_csr()


class TestStructuralParity:
    def test_sizes(self, pair):
        g, csr = pair
        assert csr.n == g.n
        assert csr.m == g.m
        assert len(csr) == len(g)

    def test_vertices(self, pair):
        g, csr = pair
        assert list(csr.vertices()) == list(g.vertices())
        for v in g.vertices():
            assert csr.has_vertex(v)
            assert v in csr

    def test_degrees(self, pair):
        g, csr = pair
        for v in g.vertices():
            assert csr.degree(v) == g.degree(v)
            assert csr.degree_idx(csr.index_of(v)) == g.degree(v)

    def test_edge_iteration(self, pair):
        g, csr = pair
        mine = sorted((repr(u), repr(v), w) for u, v, w in g.edges())
        theirs = sorted((repr(u), repr(v), w) for u, v, w in csr.edges())
        # canonical (u, v) orientation must agree exactly
        assert mine == theirs
        assert csr.edge_set() == g.edge_set()

    def test_neighbors_and_weights(self, pair):
        g, csr = pair
        for v in g.vertices():
            assert set(csr.neighbors(v)) == set(g.neighbors(v))
            for u, w in g.neighbor_items(v):
                assert csr.has_edge(v, u)
                assert csr.weight(v, u) == w
        assert not csr.has_edge("no-such", "vertex")

    def test_weight_aggregates(self, pair):
        g, csr = pair
        assert csr.total_weight() == pytest.approx(g.total_weight())
        assert csr.min_weight() == g.min_weight()
        assert csr.max_weight() == g.max_weight()

    def test_roundtrip(self, pair):
        g, csr = pair
        assert csr.to_weighted() == g

    def test_mirror_is_involution(self, pair):
        _, csr = pair
        mirror = csr.mirror()
        for i in range(csr.n):
            for s in csr.row(i):
                assert csr.indices[mirror[s]] == i
                assert mirror[mirror[s]] == s
                assert csr.weights[mirror[s]] == csr.weights[s]

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.5])
    def test_rounded_weights_match_scalar_rule(self, pair, eps):
        _, csr = pair
        column = csr.rounded_weights(eps)
        want = array("d", [round_up_weights([w], eps)[0] for w in csr.weights])
        assert column.tobytes() == want.tobytes()  # bit for bit
        assert csr.rounded_weights(eps) is column  # built once per eps
        assert csr.rounded_weights(0.0) is csr.weights


def _powers(eps, lo=1e-6, hi=1e6):
    """Every ``(exponent, (1+eps) ** exponent)`` that lies in [lo, hi]."""
    base = 1.0 + eps
    top = math.floor(math.log(hi) / math.log(base))
    return [(e, base ** e) for e in range(-top, top + 1)
            if lo <= base ** e <= hi]


class TestRoundUpWeights:
    """``round_up_weights`` rounds strictly up: a power of 1+ε keeps its
    value, and any weight above one, by as little as an ulp, takes the
    next power, never the one below it."""

    EPS = [0.01, 0.03, 0.1, 0.5, 1.0]

    @pytest.mark.parametrize("eps", EPS)
    def test_a_power_rounds_to_itself(self, eps):
        powers = [p for _, p in _powers(eps)]
        assert round_up_weights(powers, eps) == powers

    @pytest.mark.parametrize("eps", EPS)
    def test_an_ulp_above_a_power_takes_the_next(self, eps):
        base = 1.0 + eps
        pairs = _powers(eps)
        above = [math.nextafter(p, math.inf) for _, p in pairs]
        assert round_up_weights(above, eps) == [base ** (e + 1) for e, _ in pairs]
        assert round_up_weights([1.0 + 2 ** -52], 0.03) == [1.03]

    @pytest.mark.parametrize("eps", EPS)
    def test_an_ulp_below_a_power_takes_that_power(self, eps):
        pairs = _powers(eps)
        below = [math.nextafter(p, 0.0) for _, p in pairs]
        assert round_up_weights(below, eps) == [p for _, p in pairs]


class TestTraversalParity:
    def test_dijkstra_distances(self, pair):
        g, csr = pair
        src = next(iter(g.vertices()))
        dist_g, parent_g = dijkstra(g, src)
        dist_c, parent_c = dijkstra(csr, src)
        assert dist_g.keys() == dist_c.keys()
        for v, d in dist_g.items():
            assert dist_c[v] == pytest.approx(d)
        # parents may differ on equal-length paths but must be consistent
        for v, p in parent_c.items():
            if p is None:
                assert v == src
            else:
                assert dist_c[v] == pytest.approx(dist_c[p] + g.weight(p, v))

    def test_multi_source_dijkstra(self, pair):
        g, csr = pair
        sources = list(g.vertices())[:3]
        dist_g, _ = dijkstra(g, sources)
        dist_c, _ = dijkstra(csr, sources)
        assert dist_g.keys() == dist_c.keys()
        for v, d in dist_g.items():
            assert dist_c[v] == pytest.approx(d)

    def test_capped_sssp(self, pair):
        """A ``pykern.Search`` capped at the radius on the view's columns
        settles the ball the label-keyed Dijkstra of ``g`` finds, and
        nothing else."""
        g, csr = pair
        src = next(iter(g.vertices()))
        radius = 2.5
        dist_g, _ = dijkstra(g, src)
        search = pykern.Search(csr.indptr, csr.indices, csr.weights,
                               [csr.index_of(src)], radius)
        search.resume(radius)
        ball = {csr.verts[i]: search.dist[i] for i in search.reached}
        assert ball.keys() == {v for v, d in dist_g.items() if d <= radius}
        for v, d in ball.items():
            assert d == pytest.approx(dist_g[v])

    def test_hop_distances_and_diameter(self, pair):
        g, csr = pair
        src = next(iter(g.vertices()))
        assert hop_distances(csr, src) == hop_distances(g, src)
        if g.is_connected():
            assert hop_diameter(csr) == hop_diameter(g)


class TestAlgorithmParity:
    def test_freeze_caches_and_invalidates(self):
        g = erdos_renyi_graph(20, 0.3, seed=9)
        c1 = g.freeze()
        assert g.freeze() is c1
        g.add_edge(0, 19, 123.0) if not g.has_edge(0, 19) else g.remove_edge(0, 19)
        c2 = g.freeze()
        assert c2 is not c1
        assert c2.m != c1.m

    def test_a_frozen_view_freezes_to_itself(self):
        csr = erdos_renyi_graph(20, 0.3, seed=9).freeze()
        assert csr.freeze() is csr

    def test_min_weight_scans_the_column_once(self, monkeypatch):
        scans = []

        def counting_min(*args, **kwargs):
            scans.append(args)
            return min(*args, **kwargs)

        monkeypatch.setattr(csr_module, "min", counting_min, raising=False)
        csr = erdos_renyi_graph(20, 0.3, seed=9).to_csr()
        assert csr.min_weight() == min(csr.weights)
        assert csr.min_weight() == min(csr.weights)
        assert len(scans) == 1

    def test_min_weight_of_an_edgeless_view_is_inf(self):
        assert WeightedGraph([0, 1, 2]).freeze().min_weight() == math.inf

    def test_min_weight_of_a_mutated_graph_is_its_own(self):
        g = erdos_renyi_graph(20, 0.3, seed=9)
        old = g.freeze()
        lightest = old.min_weight()
        u, v = next((u, v) for u in range(20) for v in range(u + 1, 20)
                    if not g.has_edge(u, v))
        g.add_edge(u, v, lightest / 2)
        assert g.freeze().min_weight() == lightest / 2 == min(g.freeze().weights)
        assert old.min_weight() == lightest

    def test_spanner_stretch_from_csr_input(self):
        """baswana_sen_spanner accepts either backend and both results
        satisfy the deterministic (2k-1) stretch guarantee."""
        k = 2
        for name in ("erdos-renyi", "geometric", "grid"):
            g = FAMILIES[name]()
            h_dict = baswana_sen_spanner(g, k, random.Random(11))
            h_csr = baswana_sen_spanner(g.to_csr(), k, random.Random(11))
            assert h_csr == h_dict  # same rng -> identical spanner
            assert max_edge_stretch(g, h_csr) <= 2 * k - 1 + 1e-9

    def test_dijkstra_parity_on_spanner(self):
        g = erdos_renyi_graph(35, 0.2, seed=12)
        h = baswana_sen_spanner(g, 2, random.Random(13))
        src = 0
        d1, _ = dijkstra(h, src)
        d2, _ = dijkstra(h.freeze(), src)
        assert d1 == d2
