"""Tests for the measurement/validation package itself."""

import math

import pytest

from repro.analysis import (
    average_stretch,
    lightness,
    max_edge_stretch,
    max_pairwise_stretch,
    root_stretch,
    sparsity,
    verify_net,
    verify_slt,
    verify_spanner,
    verify_spanning_tree,
    verify_subgraph,
)
from repro.analysis.validation import ValidationError
from repro.graphs import WeightedGraph, cycle_graph, path_graph
from repro.mst.kruskal import kruskal_mst


@pytest.fixture
def square():
    """4-cycle with one heavy chord removed from the spanner."""
    g = cycle_graph(4, weight=1.0)
    return g


class TestStretchMeasures:
    def test_identity_spanner_has_stretch_one(self, small_er):
        assert max_edge_stretch(small_er, small_er) == 1.0
        assert max_pairwise_stretch(small_er, small_er) == 1.0

    def test_edge_stretch_after_removal(self, square):
        h = square.copy()
        h.remove_edge(0, 1)
        assert max_edge_stretch(square, h) == pytest.approx(3.0)

    def test_pairwise_bounded_by_edge_stretch(self, small_er):
        h = kruskal_mst(small_er)
        assert max_pairwise_stretch(small_er, h) <= max_edge_stretch(small_er, h) + 1e-9

    def test_average_at_most_max(self, small_er):
        h = kruskal_mst(small_er)
        assert average_stretch(small_er, h) <= max_pairwise_stretch(small_er, h) + 1e-9

    def test_disconnected_spanner_infinite(self, square):
        # the pinned contract (see repro.analysis.stretch): all three
        # measures return inf when the spanner disconnects a G-reachable
        # pair — average_stretch included, not silently skipping the pair
        h = WeightedGraph(square.vertices())
        assert max_edge_stretch(square, h) == float("inf")
        assert max_pairwise_stretch(square, h) == float("inf")
        assert average_stretch(square, h) == float("inf")

    def test_root_stretch(self):
        g = path_graph(3, [1.0, 1.0])
        g.add_edge(0, 2, 1.5)
        t = path_graph(3, [1.0, 1.0])  # tree misses the shortcut
        assert root_stretch(g, t, 0) == pytest.approx(2.0 / 1.5)


class TestWeightMeasures:
    def test_mst_lightness_is_one(self, small_er):
        assert lightness(small_er, kruskal_mst(small_er)) == pytest.approx(1.0)

    def test_whole_graph_lightness_at_least_one(self, small_er):
        assert lightness(small_er, small_er) >= 1.0

    def test_explicit_mst_reused(self, small_er):
        mst = kruskal_mst(small_er)
        assert lightness(small_er, mst, mst=mst) == pytest.approx(1.0)

    def test_sparsity(self, small_er):
        assert sparsity(small_er) == small_er.m


class TestVerifiers:
    def test_subgraph_rejects_foreign_edge(self, square):
        h = WeightedGraph()
        h.add_edge(0, 2, 1.0)  # chord not in the cycle
        with pytest.raises(ValidationError):
            verify_subgraph(square, h)

    def test_subgraph_rejects_wrong_weight(self, square):
        h = WeightedGraph()
        h.add_edge(0, 1, 2.0)
        with pytest.raises(ValidationError):
            verify_subgraph(square, h)

    def test_spanning_tree_rejects_cycle(self, square):
        with pytest.raises(ValidationError):
            verify_spanning_tree(square, square)

    def test_spanning_tree_rejects_partial_span(self, square):
        h = square.edge_subgraph([(0, 1)], include_all_vertices=False)
        with pytest.raises(ValidationError):
            verify_spanning_tree(square, h)

    def test_spanner_rejects_stretch_violation(self, square):
        h = square.copy()
        h.remove_edge(0, 1)
        with pytest.raises(ValidationError):
            verify_spanner(square, h, 2.0)
        verify_spanner(square, h, 3.0)  # exactly 3 is fine

    def test_slt_rejects_heavy_tree(self):
        g = cycle_graph(4, weight=1.0)
        g.add_edge(0, 2, 10.0)
        heavy = WeightedGraph(g.vertices())
        heavy.add_edge(0, 1, 1.0)
        heavy.add_edge(0, 2, 10.0)
        heavy.add_edge(2, 3, 1.0)
        with pytest.raises(ValidationError):
            verify_slt(g, heavy, 0, alpha=10.0, beta=1.5)

    def test_net_rejects_coverage_gap(self, square):
        with pytest.raises(ValidationError):
            verify_net(square, {0}, alpha=1.0, beta=0.5)  # vertex 2 at dist 2

    def test_net_rejects_separation_violation(self, square):
        with pytest.raises(ValidationError):
            verify_net(square, {0, 1}, alpha=2.0, beta=1.5)

    def test_net_rejects_empty(self, square):
        with pytest.raises(ValidationError):
            verify_net(square, set(), alpha=5.0, beta=1.0)

    def test_net_rejects_foreign_point(self, square):
        with pytest.raises(ValidationError):
            verify_net(square, {99}, alpha=5.0, beta=1.0)

    def test_accepts_valid_net(self, square):
        verify_net(square, {0, 2}, alpha=1.0, beta=1.5)

    def test_net_with_one_point_per_component(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("c", "d", 1.0)
        # no two points are connected, so any β separates them
        verify_net(g, {"a", "c"}, alpha=1.0, beta=1e9)
        with pytest.raises(ValidationError, match="covering"):
            verify_net(g, {"a"}, alpha=1e9, beta=1.0)  # c, d unreachable

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_subgraph_weight_check_is_scale_free(self, scale):
        g = path_graph(5, [scale, 2.0 * scale, 3.0 * scale, 4.0 * scale])
        with pytest.raises(ValidationError, match="differs from host"):
            verify_subgraph(g, g.reweighted(lambda u, v, w: 2.0 * w))
        # round-off, not a different weight
        verify_subgraph(g, g.reweighted(lambda u, v, w: math.nextafter(w, math.inf)))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_net_checks_are_scale_free(self, scale):
        g = cycle_graph(4, weight=scale)
        with pytest.raises(ValidationError, match="covering"):
            verify_net(g, {0}, alpha=1e-3 * scale, beta=1e-3 * scale)
        with pytest.raises(ValidationError, match="separation"):
            verify_net(g, {0, 1}, alpha=2.0 * scale, beta=1.5 * scale)
        # covered exactly at distance α, separated exactly by β
        verify_net(g, {0, 2}, alpha=scale, beta=2.0 * scale)
