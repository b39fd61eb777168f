"""Unit tests for the core graph structure."""

import pytest

from repro.graphs import WeightedGraph
from repro.graphs.weighted_graph import canonical_edge


class TestConstruction:
    def test_empty_graph(self):
        g = WeightedGraph()
        assert g.n == 0
        assert g.m == 0
        assert g.is_connected()  # vacuously

    def test_add_vertex_idempotent(self):
        g = WeightedGraph()
        g.add_vertex(1)
        g.add_vertex(1)
        assert g.n == 1

    def test_add_edge_creates_endpoints(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 2.0)
        assert g.has_vertex("a") and g.has_vertex("b")
        assert g.weight("a", "b") == 2.0
        assert g.weight("b", "a") == 2.0  # undirected

    def test_add_edge_overwrites_weight(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 1, 3.0)
        assert g.weight(0, 1) == 3.0
        assert g.m == 1

    def test_self_loop_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError):
            g.add_edge(0, 0, 1.0)

    def test_nonpositive_weight_rejected(self):
        g = WeightedGraph()
        with pytest.raises(ValueError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -2.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=repr(bad)):
                g.add_edge(0, 1, bad)
        assert g.m == 0 and g.n == 0

    def test_initial_vertices(self):
        g = WeightedGraph(range(5))
        assert g.n == 5
        assert g.m == 0


class TestRemoval:
    def test_remove_edge(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.remove_edge(0, 1)
        assert g.m == 0
        assert g.n == 2  # vertices stay

    def test_remove_missing_edge_raises(self):
        g = WeightedGraph(range(2))
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)


class TestInspection:
    def test_edges_iterates_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert triangle.m == 3

    def test_degree_and_neighbors(self, triangle):
        assert triangle.degree(1) == 2
        assert set(triangle.neighbors(0)) == {1, 2}

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == pytest.approx(5.5)

    def test_min_max_weight(self, triangle):
        assert triangle.min_weight() == 1.0
        assert triangle.max_weight() == 2.5

    def test_aspect_ratio(self, triangle):
        assert triangle.aspect_ratio() == pytest.approx(2.5)

    def test_aspect_ratio_edgeless(self):
        assert WeightedGraph(range(3)).aspect_ratio() == 1.0

    def test_contains_iter_len(self, triangle):
        assert 0 in triangle
        assert 9 not in triangle
        assert sorted(triangle) == [0, 1, 2]
        assert len(triangle) == 3

    def test_edge_set_is_canonical(self, triangle):
        es = triangle.edge_set()
        assert (0, 1) in es and (1, 0) not in es

    def test_canonical_edge(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_canonical_edge_int_order_is_numeric(self):
        # direct comparison, not the old repr()-lexicographic order
        # (which would have put 10 before 2)
        assert canonical_edge(10, 2) == (2, 10)
        assert canonical_edge(2, 10) == (2, 10)

    def test_canonical_edge_mixed_types_pinned(self):
        # mixed int/str vertices: ordered by (type name, repr) —
        # "int" < "str", so the int always comes first, from both sides
        assert canonical_edge(1, "a") == (1, "a")
        assert canonical_edge("a", 1) == (1, "a")
        assert canonical_edge(10, "2") == (10, "2")
        assert canonical_edge("2", 10) == (10, "2")
        # same-type strings compare directly
        assert canonical_edge("b", "a") == ("a", "b")

    def test_edges_once_with_mixed_vertex_types(self):
        g = WeightedGraph()
        g.add_edge(1, "a", 1.0)
        g.add_edge("a", 2, 2.0)
        g.add_edge(2, 1, 3.0)
        edges = list(g.edges())
        assert len(edges) == 3 == g.m
        assert {(u, v) for u, v, _ in edges} == {(1, "a"), (2, "a"), (1, 2)}
        # every yielded edge is in canonical order
        for u, v, _ in edges:
            assert canonical_edge(u, v) == (u, v)


class TestDerivedGraphs:
    def test_copy_is_deep(self, triangle):
        c = triangle.copy()
        c.add_edge(0, 3, 1.0)
        assert not triangle.has_vertex(3)
        assert c == triangle.union(c)

    def test_subgraph_induced(self, triangle):
        s = triangle.subgraph([0, 1])
        assert s.n == 2
        assert s.m == 1
        assert s.weight(0, 1) == 1.0

    def test_edge_subgraph_spans_by_default(self, triangle):
        s = triangle.edge_subgraph([(0, 1)])
        assert s.n == 3  # all vertices kept
        assert s.m == 1

    def test_edge_subgraph_without_spanning(self, triangle):
        s = triangle.edge_subgraph([(0, 1)], include_all_vertices=False)
        assert s.n == 2

    def test_union_keeps_lighter_weight(self):
        a = WeightedGraph()
        a.add_edge(0, 1, 5.0)
        b = WeightedGraph()
        b.add_edge(0, 1, 2.0)
        b.add_edge(1, 2, 1.0)
        u = a.union(b)
        assert u.weight(0, 1) == 2.0
        assert u.m == 2

    def test_reweighted(self, triangle):
        doubled = triangle.reweighted(lambda u, v, w: 2 * w)
        assert doubled.total_weight() == pytest.approx(11.0)
        assert triangle.total_weight() == pytest.approx(5.5)  # original intact


class TestConnectivity:
    def test_connected_component(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        assert g.connected_component(0) == {0, 1}
        assert len(g.connected_components()) == 2
        assert not g.is_connected()

    def test_is_tree(self):
        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        assert g.is_tree()
        g.add_edge(0, 2, 1.0)
        assert not g.is_tree()

    def test_disconnected_forest_is_not_tree(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        assert not g.is_tree()


class TestInterop:
    def test_networkx_distances_agree(self, small_er):
        import networkx as nx

        from repro.graphs import dijkstra

        nxg = small_er.to_networkx()
        expected = nx.single_source_dijkstra_path_length(nxg, 0)
        dist, _ = dijkstra(small_er, 0)
        for v, d in expected.items():
            assert dist[v] == pytest.approx(d)

    def test_equality_and_hash(self, triangle):
        assert triangle == triangle.copy()
        assert triangle != WeightedGraph()
        with pytest.raises(TypeError):
            hash(triangle)
