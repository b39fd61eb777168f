"""Unit tests for the sequential shortest-path routines."""

import pytest

from repro.graphs import (
    WeightedGraph,
    cycle_graph,
    dijkstra,
    all_pairs_shortest_paths,
    grid_graph,
    hop_distances,
    hop_diameter,
    path_graph,
)
from repro.kernels import pykern


def capped_sssp(graph, sources, radius):
    """The ball ``B(sources, radius)`` of one ``pykern.Search`` capped at
    ``radius`` over ``graph``'s frozen view, run to the end, as
    label-keyed ``(dist, parent)``."""
    csr = graph.freeze()
    search = pykern.Search(csr.indptr, csr.indices, csr.weights,
                           [csr.index_of(s) for s in sources], radius)
    search.resume(float("inf"))
    dist, parent, verts = search.dist, search.parent, csr.verts
    return ({verts[i]: d for i, d in enumerate(dist) if parent[i] != -2},
            {verts[i]: None if p == -1 else verts[p]
             for i, p in enumerate(parent) if p != -2})


class TestDijkstra:
    def test_path_graph_distances(self):
        g = path_graph(5, [1.0, 2.0, 3.0, 4.0])
        dist, parent = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0, 4: 10.0}
        assert parent[4] == 3 and parent[0] is None

    def test_prefers_light_detour(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 10.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(2, 1, 1.0)
        dist, parent = dijkstra(g, 0)
        assert dist[1] == 2.0
        assert parent[1] == 2

    def test_multi_source(self):
        g = path_graph(7)
        dist, _ = dijkstra(g, [0, 6])
        assert dist[3] == 3.0
        assert dist[1] == 1.0
        assert dist[5] == 1.0

    def test_unreachable_absent(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 1.0)
        dist, _ = dijkstra(g, 0)
        assert 2 not in dist

    def test_rejects_empty_and_string_sources(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            dijkstra(g, [])
        with pytest.raises(ValueError):
            dijkstra(g, "nope")


class TestCappedSSSP:
    def test_respects_radius(self):
        g = path_graph(10)
        dist, _ = capped_sssp(g, [0], 3.0)
        assert set(dist) == {0, 1, 2, 3}

    def test_matches_unbounded_within_ball(self, small_er):
        full, _ = dijkstra(small_er, 0)
        bounded, _ = capped_sssp(small_er, [0], 50.0)
        for v, d in bounded.items():
            assert d == pytest.approx(full[v])
        for v, d in full.items():
            if d <= 50.0:
                assert v in bounded

    def test_multi_source(self):
        g = path_graph(9)
        dist, parent = capped_sssp(g, [0, 8], 2.0)
        assert set(dist) == {0, 1, 2, 6, 7, 8}
        assert parent[0] is None and parent[8] is None
        assert dist[7] == 1.0

    def test_multi_source_matches_unbounded(self, small_er):
        full, _ = dijkstra(small_er, [0, 5])
        bounded, _ = capped_sssp(small_er, [0, 5], 40.0)
        assert bounded == {v: d for v, d in full.items() if d <= 40.0}


class TestHopMetrics:
    def test_hop_distances_ignore_weights(self):
        g = path_graph(4, [100.0, 0.5, 7.0])
        hops = hop_distances(g, 0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_hop_diameter_cycle(self):
        assert hop_diameter(cycle_graph(8)) == 4

    def test_hop_diameter_grid(self):
        assert hop_diameter(grid_graph(3, 4)) == 5

    def test_hop_diameter_disconnected_raises(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            hop_diameter(g)


class TestDiameters:
    def test_all_pairs_symmetric(self, small_er):
        apsp = all_pairs_shortest_paths(small_er)
        for u in small_er.vertices():
            for v in small_er.vertices():
                assert apsp[u][v] == pytest.approx(apsp[v][u])

    def test_all_pairs_triangle_inequality(self, small_er):
        apsp = all_pairs_shortest_paths(small_er)
        vs = list(small_er.vertices())[:10]
        for u in vs:
            for v in vs:
                for w in vs:
                    assert apsp[u][v] <= apsp[u][w] + apsp[w][v] + 1e-9
