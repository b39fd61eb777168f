"""Tests for the §7 doubling-graph spanner (Theorem 5)."""

import random

import pytest

from repro.analysis import (
    lightness,
    max_pairwise_stretch,
    verify_subgraph,
)
from repro.core import doubling_spanner
from repro.graphs import grid_graph, random_geometric_graph, unit_ball_graph


class TestGuarantees:
    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_stretch_on_geometric(self, eps):
        g = random_geometric_graph(30, seed=1)
        res = doubling_spanner(g, eps, random.Random(1), net_method="greedy")
        assert max_pairwise_stretch(g, res.spanner) <= res.stretch_bound + 1e-9

    def test_stretch_on_grid(self):
        g = grid_graph(5, 5, jitter=0.2, seed=2)
        res = doubling_spanner(g, 0.1, random.Random(2), net_method="greedy")
        assert max_pairwise_stretch(g, res.spanner) <= res.stretch_bound + 1e-9

    def test_stretch_on_unit_ball_graph(self):
        g = unit_ball_graph(30, seed=3)
        res = doubling_spanner(g, 0.1, random.Random(3), net_method="greedy")
        assert max_pairwise_stretch(g, res.spanner) <= res.stretch_bound + 1e-9

    def test_is_subgraph(self):
        """Paths must be real G-paths (path-reporting hopsets, §7.1)."""
        g = random_geometric_graph(30, seed=4)
        res = doubling_spanner(g, 0.1, random.Random(4), net_method="greedy")
        verify_subgraph(g, res.spanner)

    def test_connected_and_spanning(self):
        g = random_geometric_graph(30, seed=5)
        res = doubling_spanner(g, 0.1, random.Random(5), net_method="greedy")
        assert set(res.spanner.vertices()) == set(g.vertices())
        assert res.spanner.is_connected()

    def test_distributed_nets_agree_with_greedy_on_guarantees(self):
        g = random_geometric_graph(20, seed=6)
        res = doubling_spanner(g, 0.1, random.Random(6), net_method="distributed")
        assert max_pairwise_stretch(g, res.spanner) <= res.stretch_bound + 1e-9

    def test_lightness_bounded_on_doubling_input(self):
        """ε^{-O(ddim)}·log n — sanity-check with a loose numeric cap."""
        g = random_geometric_graph(40, seed=7)
        res = doubling_spanner(g, 0.1, random.Random(7), net_method="greedy")
        assert lightness(g, res.spanner) <= 200.0

    def test_sparsity_linear_up_to_log_factors(self):
        g = random_geometric_graph(40, seed=8)
        res = doubling_spanner(g, 0.1, random.Random(8), net_method="greedy")
        assert res.spanner.m <= 60 * g.n


class TestWeightsBelowOne:
    """Scales start at the lightest edge: starting at Δ = 1 never
    explored lighter edges and could leave the spanner disconnected."""

    @pytest.mark.parametrize("factor, eps", [(1e-4, 0.02), (0.01, 0.1)])
    def test_stretch_and_connectivity(self, factor, eps):
        g = random_geometric_graph(30, seed=3).reweighted(
            lambda u, v, w: w * factor)
        res = doubling_spanner(g, eps, random.Random(3), net_method="greedy")
        assert res.scales[0].scale <= g.min_weight()
        assert res.spanner.is_connected()
        assert max_pairwise_stretch(g, res.spanner) <= res.stretch_bound + 1e-9


class TestScales:
    def test_scale_stats_cover_all_scales(self):
        g = random_geometric_graph(25, seed=9)
        res = doubling_spanner(g, 0.1, random.Random(9), net_method="greedy")
        assert res.scales[0].scale == pytest.approx(1.0)
        assert all(
            b.scale == pytest.approx(a.scale * 1.1)
            for a, b in zip(res.scales, res.scales[1:])
        )

    def test_net_sizes_weakly_decreasing_at_large_scales(self):
        g = random_geometric_graph(25, seed=10)
        res = doubling_spanner(g, 0.1, random.Random(10), net_method="greedy")
        tail = [s.net_size for s in res.scales[-10:]]
        assert tail == sorted(tail, reverse=True)

    def test_largest_scale_single_net_point_adds_nothing(self):
        g = random_geometric_graph(25, seed=11)
        res = doubling_spanner(g, 0.1, random.Random(11), net_method="greedy")
        last = res.scales[-1]
        if last.net_size == 1:
            assert last.paths_added == 0

    def test_rounds_charged_per_scale(self):
        g = random_geometric_graph(20, seed=12)
        res = doubling_spanner(g, 0.1, random.Random(12), net_method="greedy")
        assert res.rounds == sum(s.rounds for s in res.scales) + res.ledger.by_phase()["bfs-tree"]

    def test_overlap_bounded_by_packing(self):
        """Lemma 6: any vertex participates in ε^{-O(ddim)} explorations."""
        g = random_geometric_graph(30, seed=13)
        res = doubling_spanner(g, 0.1, random.Random(13), net_method="greedy")
        worst = max(s.max_overlap for s in res.scales)
        assert worst <= g.n  # trivial cap; realistic values far below
        assert worst >= 1


class TestValidation:
    def test_eps_range_enforced(self):
        g = random_geometric_graph(15, seed=14)
        with pytest.raises(ValueError):
            doubling_spanner(g, 0.2, random.Random(0))
        with pytest.raises(ValueError):
            doubling_spanner(g, 0.0, random.Random(0))

    def test_unknown_net_method(self):
        g = random_geometric_graph(15, seed=15)
        with pytest.raises(ValueError):
            doubling_spanner(g, 0.1, net_method="quantum")
