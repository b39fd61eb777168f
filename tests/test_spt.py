"""Tests for the exact and approximate shortest-path trees."""

import math
import sys

import pytest

from repro.graphs import (
    WeightedGraph,
    dijkstra,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
)
from repro.spt import (
    BoundedSPT,
    approx_spt,
    bkkl_round_cost,
    bounded_approx_spt,
    exact_spt_distributed,
)
from repro.analysis import verify_spanning_tree
from repro.congest import RoundLedger


class TestDistributedBellmanFord:
    def test_matches_dijkstra(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] == pytest.approx(d)

    def test_rounds_bounded_by_hop_radius(self):
        g = path_graph(20)
        spt = exact_spt_distributed(g, 0)
        assert spt.rounds <= 20 + 3

    def test_tree_is_valid_spanning_tree(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        verify_spanning_tree(small_er, spt.as_graph(small_er))

    def test_path_to_root_follows_parents(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        for v in small_er.vertices():
            path = spt.path_to_root(v)
            assert path[0] == v and path[-1] == 0
            total = sum(
                small_er.weight(a, b) for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(spt.dist[v])

    def test_disconnected_raises(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            exact_spt_distributed(g, 0)


class TestApproxSPT:
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0])
    def test_equation_1_holds(self, medium_er, eps):
        """d_G <= dist <= (1+ε)·d_G — Equation (1) of the paper."""
        spt = approx_spt(medium_er, 0, eps)
        exact, _ = dijkstra(medium_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] >= d - 1e-9
            assert spt.dist[v] <= (1 + eps) * d + 1e-9

    def test_approximation_is_genuine(self):
        """On some graph the approximate SPT must differ from the exact one
        (the rounding is real, not cosmetic)."""
        differs = False
        for seed in range(8):
            g = erdos_renyi_graph(40, 0.2, seed=seed)
            spt = approx_spt(g, 0, 0.5)
            exact, _ = dijkstra(g, 0)
            if any(abs(spt.dist[v] - exact[v]) > 1e-9 for v in g.vertices()):
                differs = True
                break
        assert differs

    def test_tree_is_subgraph_spanning_tree(self, medium_er):
        spt = approx_spt(medium_er, 0, 0.3)
        verify_spanning_tree(medium_er, spt.as_graph(medium_er))

    def test_dist_is_true_tree_path_weight(self, small_er):
        spt = approx_spt(small_er, 0, 0.4)
        tree = spt.as_graph(small_er)
        tree_dist, _ = dijkstra(tree, 0)
        for v in small_er.vertices():
            assert spt.dist[v] == pytest.approx(tree_dist[v])

    def test_eps_zero_is_exact(self, small_er):
        spt = approx_spt(small_er, 0, 0.0)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] == pytest.approx(d)

    def test_rounds_charged_to_ledger(self, small_er):
        led = RoundLedger()
        spt = approx_spt(small_er, 0, 0.25, ledger=led, phase="my-spt")
        assert led.by_phase()["my-spt"] == spt.rounds
        assert spt.rounds == bkkl_round_cost(small_er.n, 6, 0.25)

    def test_round_cost_grows_with_inverse_eps(self):
        assert bkkl_round_cost(100, 5, 0.1) > bkkl_round_cost(100, 5, 0.5)

    def test_stretch_to_root_helper(self, small_er):
        spt = approx_spt(small_er, 0, 0.3)
        exact, _ = dijkstra(small_er, 0)
        assert spt.stretch_to_root(exact) <= 1.3 + 1e-9


class TestBoundedApproxSPT:
    def test_multi_source_within_radius(self, medium_er):
        sources = [0, 1, 2]
        dist, parent, origin, _ = bounded_approx_spt(medium_er, sources, 60.0, 0.25)
        exact, _ = dijkstra(medium_er, sources)
        for v, d in dist.items():
            assert d <= 60.0 + 1e-9
            assert d >= exact[v] - 1e-9

    def test_origin_points_to_a_source(self, medium_er):
        sources = [0, 5]
        dist, parent, origin, _ = bounded_approx_spt(medium_er, sources, 100.0, 0.2)
        for v in dist:
            assert origin[v] in sources
            # walking parents ends at the origin
            node = v
            while parent[node] is not None:
                node = parent[node]
            assert node == origin[v]

    def test_everything_reached_with_huge_radius(self, small_er):
        dist, _, _, _ = bounded_approx_spt(small_er, [0], 1e9, 0.2)
        assert set(dist) == set(small_er.vertices())

    def test_radius_zero_reaches_only_sources(self, small_er):
        dist, _, _, _ = bounded_approx_spt(small_er, [0, 3], 0.0, 0.2)
        assert set(dist) == {0, 3}

    def test_path_weights_are_true_weights(self, small_er):
        dist, parent, origin, _ = bounded_approx_spt(small_er, [0], 80.0, 0.3)
        for v in dist:
            node, total = v, 0.0
            while parent[node] is not None:
                total += small_er.weight(node, parent[node])
                node = parent[node]
            assert total == pytest.approx(dist[v])


def _clip_graph(family, seed, factor):
    if family == "er":
        g = erdos_renyi_graph(30, 0.15, seed=seed)
    elif family == "geometric":
        g = random_geometric_graph(30, seed=seed)
    else:
        g = grid_graph(5, 6)  # every weight 1: ties everywhere
    return g.reweighted(lambda u, v, w: w * factor)


class TestBoundedApproxSPTClip:
    """``clip`` is the smallest true weight the radius test turned away;
    every radius in [radius, clip) repeats the search exactly."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    @pytest.mark.parametrize("factor", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("family", ["er", "geometric", "ties"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_result_below_clip(self, seed, family, factor, frozen):
        g = _clip_graph(family, seed, factor)
        graph = g.freeze() if frozen else g
        finite = 0
        for eps in (0.05, 0.3):
            for sources in ([0], [0, 17]):
                for r in (0.0, 1.0, 3.0, 40.0, 150.0, 1e9):
                    radius = r * factor
                    first = bounded_approx_spt(graph, sources, radius, eps)
                    assert isinstance(first, BoundedSPT)
                    assert first.clip > radius
                    if first.clip == math.inf:
                        top = sys.float_info.max
                    else:
                        top = math.nextafter(first.clip, 0)
                        finite += 1
                    for again in (math.nextafter(radius, math.inf),
                                  radius + (top - radius) / 2, top):
                        result = bounded_approx_spt(graph, sources, again, eps)
                        assert result == first
                        assert list(result.parent) == list(first.parent)
        assert finite > 0

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    def test_clip_is_a_turned_away_path_weight(self, frozen):
        """On a path 0 -1- 1 -2- 2 the search from 0 at radius 1.5 turns
        away the relaxation into 2 at true weight 3."""
        g = path_graph(3, weights=[1.0, 2.0])
        graph = g.freeze() if frozen else g
        result = bounded_approx_spt(graph, [0], 1.5, 0.1)
        assert set(result.dist) == {0, 1}
        assert result.clip == 3.0
        assert bounded_approx_spt(graph, [0], 3.0, 0.1).clip == math.inf

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    def test_clip_ignores_relaxations_that_lower_no_label(self, frozen):
        """A triangle 0-1 (1), 1-2 (1), 0-2 (1): at radius 1 both
        neighbours of 0 settle directly, and the two-edge path 0-1-2 at
        true weight 2 would not lower 2's label, so nothing counts."""
        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 1.0)
        graph = g.freeze() if frozen else g
        result = bounded_approx_spt(graph, [0], 1.0, 0.1)
        assert set(result.dist) == {0, 1, 2}
        assert result.clip == math.inf
