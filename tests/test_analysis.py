"""Tests for the measurement/validation package itself."""

import math
from unittest import mock

import pytest

import repro.mst.kruskal as kruskal_module
from repro.analysis import (
    certify_edge_stretch,
    lightness,
    max_edge_stretch,
    max_pairwise_stretch,
    root_stretch,
    sparsity,
    spanner_report,
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

    def test_disconnected_spanner_infinite(self, square):
        # the pinned contract (see repro.analysis.stretch): the maximum
        # measures return inf when the spanner disconnects a G-reachable
        # pair, not silently skipping the pair
        h = WeightedGraph(square.vertices())
        assert max_edge_stretch(square, h) == float("inf")
        assert max_pairwise_stretch(square, h) == float("inf")

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

    def test_lightness_reads_the_cached_mst(self, small_er, monkeypatch):
        mst = kruskal_mst(small_er)  # caches the tree on the frozen view
        monkeypatch.setattr(kruskal_module, "_kruskal_edges", mock.Mock(
            side_effect=AssertionError("Kruskal ran although the MST was cached")))
        assert lightness(small_er, mst) == pytest.approx(1.0)

    @pytest.mark.parametrize("spread", [0, 20])
    def test_lightness_matches_the_label_level_sums(self, medium_er, spread):
        # the view sums add the same weights in another order: the value
        # may move by round-off only, also over 2^±spread weights
        g = medium_er.reweighted(
            lambda u, v, w: w * 2.0 ** ((7 * u + v) % (2 * spread + 1) - spread))
        h = kruskal_mst(g).copy()
        for u, v, w in list(g.edges())[::3]:
            h.add_edge(u, v, w)
        want = h.total_weight() / kruskal_mst(g).total_weight()
        assert lightness(g, h) == pytest.approx(want, rel=1e-12)

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
        with pytest.raises(ValidationError, match=r"^not a tree: n=4, m=4$"):
            verify_spanning_tree(square, square)

    def test_spanning_tree_rejects_partial_span(self, square):
        h = square.edge_subgraph([(0, 1)], include_all_vertices=False)
        with pytest.raises(ValidationError, match=r"^tree does not span all vertices$"):
            verify_spanning_tree(square, h)

    def test_spanning_tree_rejects_a_cycle_with_n_minus_1_edges(self, square):
        """Every vertex and n − 1 edges, but a cycle and an isolated
        vertex: a test that only counted edges would pass it."""
        g = square.copy()
        g.add_edge(0, 4, 1.0)
        h = square.copy()
        h.add_vertex(4)
        assert (h.n, h.m) == (5, 4)
        with pytest.raises(ValidationError, match=r"^not a tree: n=5, m=4$"):
            verify_spanning_tree(g, h)

    def test_spanning_tree_rejects_a_foreign_or_reweighted_edge(self, square):
        foreign = path_graph(4, [1.0, 1.0, 1.0])
        foreign.remove_edge(1, 2)
        foreign.add_edge(0, 2, 1.0)  # a chord the cycle lacks
        with pytest.raises(ValidationError, match=r"^edge \{0, 2\} not in the host graph$"):
            verify_spanning_tree(square, foreign)
        heavy = path_graph(4, [1.0, 2.0, 1.0])
        with pytest.raises(ValidationError,
                           match=r"^edge \{1, 2\} weight 2.0 differs from host 1.0$"):
            verify_spanning_tree(square, heavy)

    def test_spanning_tree_checks_fail_in_order(self, square):
        """Subgraph before span, span before tree."""
        foreign = WeightedGraph()
        foreign.add_edge(0, 2, 1.0)  # no span and no host edge
        with pytest.raises(ValidationError, match="not in the host graph"):
            verify_spanning_tree(square, foreign)
        partial = WeightedGraph([0, 1, 2])  # no span and no tree
        with pytest.raises(ValidationError, match="does not span"):
            verify_spanning_tree(square, partial)
        extra = WeightedGraph([0, 1, 2, 3, 9])
        with pytest.raises(ValidationError, match="does not span"):
            verify_spanning_tree(square, extra)

    def test_spanning_tree_in_another_vertex_order(self, square):
        """A tree whose vertices were inserted in another order than the
        host's, valid and invalid."""
        tree = WeightedGraph([3, 1, 2, 0])
        for u, v in [(2, 3), (0, 1), (1, 2)]:
            tree.add_edge(u, v, 1.0)
        verify_spanning_tree(square, tree)
        tree.add_edge(0, 3, 1.0)
        with pytest.raises(ValidationError, match=r"^not a tree: n=4, m=4$"):
            verify_spanning_tree(square, tree)
        tree.remove_edge(0, 3)
        tree.add_edge(0, 2, 1.0)
        with pytest.raises(ValidationError, match=r"^edge \{0, 2\} not in the host graph$"):
            verify_spanning_tree(square, tree)
        single = WeightedGraph([0])
        verify_spanning_tree(WeightedGraph([0]), single)
        with pytest.raises(ValidationError, match=r"^not a tree: n=0, m=0$"):
            verify_spanning_tree(WeightedGraph(), WeightedGraph())

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
        # verify_subgraph itself, and the reports and verifier whose
        # certification pass counts H ⊆ G and falls back to it
        checks = (
            verify_subgraph,
            lambda g, h: spanner_report(g, h, stretch_bound=1.0),
            lambda g, h: verify_spanner(g, h, 1.0),
        )
        g = path_graph(5, [scale, 2.0 * scale, 3.0 * scale, 4.0 * scale])
        doubled = g.reweighted(lambda u, v, w: 2.0 * w)
        # lighter than the host: pruned by the certification, not shared
        halved = g.reweighted(lambda u, v, w: 0.5 * w)
        foreign = g.copy()
        foreign.add_edge(0, 2, 3.0 * scale)
        # round-off, not a different weight
        rounded = g.reweighted(lambda u, v, w: math.nextafter(w, math.inf))
        assert certify_edge_stretch(g, doubled).edges_shared == 0
        assert certify_edge_stretch(g, halved).edges_shared == 0
        assert certify_edge_stretch(g, foreign).edges_shared == foreign.m - 1
        assert certify_edge_stretch(g, rounded).edges_shared == rounded.m
        for check in checks:
            for h in (doubled, halved):
                with pytest.raises(ValidationError, match="differs from host"):
                    check(g, h)
            with pytest.raises(ValidationError, match="not in the host graph"):
                check(g, foreign)
            check(g, rounded)
        # H lacks vertex 0, which has an edge: the certification scan
        # stops at G's first row, before it has counted anything
        partial = g.subgraph([1, 2, 3, 4])
        assert certify_edge_stretch(g, partial).edges_shared == 0
        report = spanner_report(g, partial, stretch_bound=1.0)
        assert report.metric("stretch").measured == math.inf
        with pytest.raises(ValidationError, match="does not span"):
            verify_spanner(g, partial, 1.0)
        partial.add_edge(1, 3, 5.0 * scale)
        for check in checks[1:]:
            with pytest.raises(ValidationError, match="not in the host graph"):
                check(g, partial)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_net_checks_are_scale_free(self, scale):
        g = cycle_graph(4, weight=scale)
        with pytest.raises(ValidationError, match="covering"):
            verify_net(g, {0}, alpha=1e-3 * scale, beta=1e-3 * scale)
        with pytest.raises(ValidationError, match="separation"):
            verify_net(g, {0, 1}, alpha=2.0 * scale, beta=1.5 * scale)
        # covered exactly at distance α, separated exactly by β
        verify_net(g, {0, 2}, alpha=scale, beta=2.0 * scale)
