"""Tests for the §3 Euler tour (Lemma 2)."""

import random

import pytest

import repro.traversal.euler_tour as euler_tour_module
from repro.analysis import max_edge_stretch
from repro.core import light_spanner, shallow_light_tree
from repro.graphs import (
    WeightedGraph, path_graph, random_geometric_graph, random_tree, star_graph,
)
from repro.mst import decompose_fragments
from repro.traversal import EulerTourMismatch, compute_euler_tour


@pytest.fixture
def paper_tree():
    """The example tree from §3's figure: rt=a with the given weights."""
    g = WeightedGraph()
    g.add_edge("a", "b", 2.0)
    g.add_edge("a", "g", 2.0)
    g.add_edge("b", "c", 1.0)
    g.add_edge("b", "d", 3.0)
    g.add_edge("d", "e", 3.0)
    g.add_edge("d", "f", 4.0)
    return g


class TestTourStructure:
    def test_size_is_2n_minus_1(self):
        t = random_tree(30, seed=1)
        tour = compute_euler_tour(t, 0)
        assert tour.size == 2 * 30 - 1

    def test_total_length_is_twice_tree_weight(self):
        t = random_tree(30, seed=2)
        tour = compute_euler_tour(t, 0)
        assert tour.length == pytest.approx(2 * t.total_weight())

    def test_appearance_counts_match_degree(self):
        """§3: appearances = deg_T(v), root gets deg(rt) + 1."""
        t = random_tree(40, seed=3)
        tour = compute_euler_tour(t, 0)
        for v in t.vertices():
            expected = t.degree(v) + (1 if v == 0 else 0)
            assert len(tour.appearances[v]) == expected

    def test_consecutive_positions_are_tree_edges(self):
        t = random_tree(25, seed=4)
        tour = compute_euler_tour(t, 0)
        for i in range(tour.size - 1):
            u, v = tour.order[i], tour.order[i + 1]
            assert t.has_edge(u, v)
            assert tour.times[i + 1] - tour.times[i] == pytest.approx(t.weight(u, v))

    def test_starts_and_ends_at_root(self):
        t = random_tree(25, seed=5)
        tour = compute_euler_tour(t, 3)
        assert tour.order[0] == 3
        assert tour.order[-1] == 3
        assert tour.times[0] == 0.0

    def test_children_visited_in_id_order(self, paper_tree):
        tour = compute_euler_tour(paper_tree, "a")
        # preorder with id order: a b c b d e d f d b a g a
        assert tour.order == list("abcbdedfdbaga")

    def test_paper_example_visit_times(self, paper_tree):
        tour = compute_euler_tour(paper_tree, "a")
        # cumulative weights along a-b(2) b-c(1) c-b(1) b-d(3) d-e(3) ...
        assert tour.times[:6] == pytest.approx([0, 2, 3, 4, 7, 10])
        assert tour.length == pytest.approx(2 * paper_tree.total_weight())

    def test_tour_distance(self):
        t = path_graph(4, [1.0, 2.0, 3.0])
        tour = compute_euler_tour(t, 0)
        assert tour.tour_distance(0, tour.size - 1) == pytest.approx(2 * 6.0)


class TestIntervals:
    def test_interval_length_is_subtree_tour(self):
        t = random_tree(30, seed=6)
        tour = compute_euler_tour(t, 0)
        entry, exit_ = tour.intervals[0]
        assert entry == 0.0
        assert exit_ == pytest.approx(tour.length)

    def test_child_interval_nested_in_parent(self):
        t = random_tree(30, seed=7)
        tour = compute_euler_tour(t, 0)
        from repro.mst.fragments import _rooted_children

        parent, _ = _rooted_children(t, 0)
        for v, p in parent.items():
            if p is None:
                continue
            a, b = tour.intervals[v]
            pa, pb = tour.intervals[p]
            assert pa <= a <= b <= pb

    def test_leaf_interval_is_degenerate(self):
        t = star_graph(6)
        tour = compute_euler_tour(t, 0)
        for leaf in range(1, 6):
            a, b = tour.intervals[leaf]
            assert a == pytest.approx(b)


class TestRoundAccounting:
    def test_rounds_positive_and_itemized(self):
        t = random_tree(50, seed=8)
        tour = compute_euler_tour(t, 0)
        phases = tour.ledger.by_phase()
        assert tour.rounds > 0
        for expected in (
            "broadcast-fragment-tree",
            "local-tour-lengths",
            "broadcast-root-lengths",
            "global-tour-lengths",
            "local-dfs-intervals",
            "convergecast-root-intervals",
            "broadcast-shifts",
            "unweighted-index-pass",
        ):
            assert expected in phases

    def test_rounds_scale_sublinearly(self):
        """Lemma 2: Õ(√n + D) — so rounds(4n) should be about 2x rounds(n)."""
        small = compute_euler_tour(path_graph(64), 0).rounds
        large = compute_euler_tour(path_graph(256), 0).rounds
        assert large < 3.5 * small  # 2x expected, generous slack

    def test_precomputed_decomposition_reused(self):
        t = random_tree(40, seed=9)
        decomp = decompose_fragments(t, 0)
        tour = compute_euler_tour(t, 0, decomposition=decomp)
        assert tour.size == 2 * 40 - 1


class TestValidation:
    def test_non_tree_rejected(self, triangle):
        with pytest.raises(ValueError):
            compute_euler_tour(triangle, 0)

    def test_single_vertex_tree(self):
        g = WeightedGraph([0])
        tour = compute_euler_tour(g, 0)
        assert tour.order == [0]
        assert tour.length == 0.0


class TestWeightScale:
    """The staged tour and the direct walk add the same weights in
    different orders, so at large weights they differ in the last bits;
    the cross-check is relative, and a real mismatch is a typed error
    that ``python -O`` keeps."""

    @pytest.mark.parametrize("seed, factor", [(5, 1e6), (6, 1e9), (5, 1e12)])
    def test_slt_and_light_spanner_on_heavy_weights(self, seed, factor):
        g = random_geometric_graph(40, seed=seed).reweighted(
            lambda u, v, w: w * factor)
        slt = shallow_light_tree(g, 0, 2.0)
        assert slt.tree.is_tree()
        assert set(slt.tree.vertices()) == set(g.vertices())
        res = light_spanner(g, 2, 0.25, random.Random(seed))
        assert max_edge_stretch(g, res.spanner) <= res.stretch_bound * (1 + 1e-9)

    def test_mismatch_is_a_typed_error(self, monkeypatch):
        direct = euler_tour_module._direct_tour

        def skewed(tree, root):
            order, times = direct(tree, root)
            return order, [t * 1.001 for t in times]

        monkeypatch.setattr(euler_tour_module, "_direct_tour", skewed)
        with pytest.raises(EulerTourMismatch, match="tour length"):
            compute_euler_tour(random_tree(20, seed=3), 0)
