"""Cross-cutting edge cases: degenerate graphs, extreme parameters,
adversarial weights — every construction must hold its guarantees or
fail loudly."""
import random

import pytest

from repro.analysis import (
    lightness,
    max_edge_stretch,
    root_stretch,
    verify_net,
    verify_slt,
    verify_spanner,
)
from repro.core import (
    build_net,
    doubling_spanner,
    light_spanner,
    shallow_light_tree,
    slt_base,
)
from repro.graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.mst import decompose_fragments
from repro.traversal import compute_euler_tour


class TestTreeInputs:
    """On a tree, every construction must return (essentially) the tree."""

    @pytest.fixture
    def tree(self):
        return random_tree(25, seed=1)

    def test_light_spanner_of_tree_is_tree(self, tree):
        res = light_spanner(tree, 2, 0.25, random.Random(0))
        assert res.spanner.edge_set() == tree.edge_set()
        assert lightness(tree, res.spanner) == pytest.approx(1.0)

    def test_slt_of_tree_spans(self, tree):
        res = slt_base(tree, 0, 0.5)
        verify_slt(tree, res.tree, 0, res.stretch_bound, res.lightness_bound)
        # the only spanning tree of a tree is itself
        assert res.tree.edge_set() == tree.edge_set()

    def test_net_on_tree(self, tree):
        res = build_net(tree, 10.0, 0.5, random.Random(1))
        verify_net(tree, res.points, res.alpha, res.beta)


class TestPathGraphs:
    """Paths: ddim 1, hop-diameter n−1 — the D-dominated regime."""

    def test_slt_on_path_rooted_at_end(self):
        g = path_graph(40)
        res = slt_base(g, 0, 0.5)
        # on a path the SPT = MST = the path: stretch exactly 1
        assert root_stretch(g, res.tree, 0) == pytest.approx(1.0)
        assert lightness(g, res.tree) == pytest.approx(1.0)

    def test_doubling_spanner_on_path(self):
        g = path_graph(20)
        res = doubling_spanner(g, 0.1, random.Random(2), net_method="greedy")
        assert res.spanner.edge_set() == g.edge_set()

    def test_net_on_path_extremes(self):
        g = path_graph(30)
        everything = build_net(g, 0.4, 0.5, random.Random(3))
        assert everything.points == set(g.vertices())
        singleton = build_net(g, 100.0, 0.5, random.Random(3))
        assert len(singleton.points) == 1


class TestExtremeWeights:
    def test_spanner_with_huge_aspect_ratio(self):
        g = cycle_graph(12, weight=1.0)
        g.add_edge(0, 6, 1e6)  # a uselessly heavy chord
        res = light_spanner(g, 2, 0.25, random.Random(4))
        verify_spanner(g, res.spanner, res.stretch_bound)
        # the chord exceeds L = 2 w(MST): the MST path covers it
        assert max_edge_stretch(g, res.spanner) <= res.stretch_bound

    def test_slt_with_near_identical_weights(self):
        g = complete_graph(15, min_weight=1.0, max_weight=1.0 + 1e-12, seed=5)
        res = slt_base(g, 0, 0.5)
        verify_slt(g, res.tree, 0, res.stretch_bound, res.lightness_bound)

    def test_net_with_tied_distances(self):
        g = cycle_graph(16, weight=1.0)  # fully symmetric
        res = build_net(g, 3.0, 0.5, random.Random(6))
        verify_net(g, res.points, res.alpha, res.beta)


class TestExtremeParameters:
    def test_spanner_k_exceeding_log_n(self):
        g = complete_graph(20, min_weight=1.0, max_weight=9.0, seed=7)
        k = 10  # way beyond log2(20)
        res = light_spanner(g, k, 0.25, random.Random(7))
        verify_spanner(g, res.spanner, res.stretch_bound)

    def test_slt_alpha_barely_above_one(self):
        g = complete_graph(15, min_weight=1.0, max_weight=30.0, seed=8)
        res = shallow_light_tree(g, 0, 1.01)
        assert lightness(g, res.tree) <= 1.01 + 1e-9

    def test_slt_alpha_enormous(self):
        g = complete_graph(15, min_weight=1.0, max_weight=30.0, seed=9)
        res = shallow_light_tree(g, 0, 1e6)
        # with unlimited lightness budget, the tree can be the MST itself
        verify_slt(g, res.tree, 0, res.stretch_bound, 1e6)

    def test_net_delta_near_one(self):
        g = cycle_graph(12)
        res = build_net(g, 3.0, 0.99, random.Random(10))
        verify_net(g, res.points, res.alpha, res.beta)


class TestTinyGraphs:
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_constructions_on_tiny_graphs(self, n):
        g = complete_graph(n, min_weight=1.0, max_weight=3.0, seed=n)
        rng = random.Random(n)
        verify_spanner(
            g, light_spanner(g, 2, 0.25, rng).spanner, 3 * 1.25 * 2
        )
        res = slt_base(g, 0, 0.5)
        verify_slt(g, res.tree, 0, res.stretch_bound, res.lightness_bound + 1)
        net = build_net(g, 2.0, 0.5, rng)
        verify_net(g, net.points, net.alpha, net.beta)

    def test_single_vertex(self):
        g = WeightedGraph([0])
        tour = compute_euler_tour(g, 0)
        assert tour.size == 1
        net = build_net(g, 1.0, 0.5, random.Random(0))
        assert net.points == {0}


class TestEntryPointPreconditions:
    """§4/§5 entry points name the precondition a bad input breaks."""

    @pytest.fixture
    def graph(self):
        return cycle_graph(5, weight=1.0)

    def test_light_spanner_empty_graph(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            light_spanner(WeightedGraph(), 2, 0.25)

    def test_light_spanner_root_not_a_vertex(self, graph):
        with pytest.raises(ValueError, match="root 7 is not a vertex"):
            light_spanner(graph, 2, 0.25, random.Random(0), root=7)

    def test_slt_root_not_a_vertex(self, graph):
        with pytest.raises(ValueError, match="root 7 is not a vertex"):
            shallow_light_tree(graph, 7, 5.0)

    def test_slt_empty_graph(self):
        with pytest.raises(ValueError, match="root 0 is not a vertex"):
            shallow_light_tree(WeightedGraph(), 0, 5.0)

    def test_approx_spt_root_not_a_vertex(self, graph):
        from repro.spt import approx_spt

        with pytest.raises(ValueError, match="root 7 is not a vertex"):
            approx_spt(graph, 7, 0.1)


class TestDeterminism:
    """Same seed → identical output, across every randomized construction."""

    def test_light_spanner_deterministic(self, small_er):
        a = light_spanner(small_er, 2, 0.25, random.Random(99))
        b = light_spanner(small_er, 2, 0.25, random.Random(99))
        assert a.spanner == b.spanner
        assert a.rounds == b.rounds

    def test_slt_deterministic(self, small_er):
        a = shallow_light_tree(small_er, 0, 5.0)
        b = shallow_light_tree(small_er, 0, 5.0)
        assert a.tree == b.tree

    def test_doubling_deterministic(self):
        from repro.graphs import random_geometric_graph

        g = random_geometric_graph(20, seed=3)
        a = doubling_spanner(g, 0.1, random.Random(5), net_method="greedy")
        b = doubling_spanner(g, 0.1, random.Random(5), net_method="greedy")
        assert a.spanner == b.spanner

    def test_euler_tour_deterministic(self):
        t = random_tree(30, seed=4)
        assert compute_euler_tour(t, 0).order == compute_euler_tour(t, 0).order


class TestFragmentExtremes:
    def test_target_size_one(self):
        t = random_tree(15, seed=5)
        decomp = decompose_fragments(t, 0, target_size=1)
        assert decomp.num_fragments == 15  # every vertex its own fragment
        assert decomp.max_hop_diameter == 0

    def test_target_size_n(self):
        t = random_tree(15, seed=6)
        decomp = decompose_fragments(t, 0, target_size=15)
        assert decomp.num_fragments == 1

    def test_star_center_root_vs_leaf_root(self):
        t = star_graph(20)
        for root in (0, 7):
            decomp = decompose_fragments(t, root)
            members = set()
            for f in decomp.fragments:
                members |= f.members
            assert members == set(t.vertices())
