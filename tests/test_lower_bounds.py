"""Tests for §8: the MST-weight estimator via nets and the round floor."""

import math
import random

import pytest

from repro.core import congest_round_floor, estimate_mst_weight_via_nets
from repro.graphs import (
    das_sarma_hard_graph,
    erdos_renyi_graph,
    hop_diameter,
    random_geometric_graph,
)
from repro.mst.kruskal import kruskal_mst


class TestTheorem7Reduction:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sandwich_greedy_oracle(self, seed):
        g = erdos_renyi_graph(40, 0.2, seed=seed)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        assert est.psi >= est.mst_weight - 1e-6
        bound = 16 * est.alpha * max(1.0, math.log2(g.n)) * est.mst_weight
        assert est.psi <= bound

    def test_sandwich_distributed_oracle(self):
        g = erdos_renyi_graph(25, 0.25, seed=2)
        est = estimate_mst_weight_via_nets(
            g, net_method="distributed", rng=random.Random(2)
        )
        assert est.psi >= est.mst_weight - 1e-6
        bound = 16 * est.alpha * max(1.0, math.log2(g.n)) * est.mst_weight
        assert est.psi <= bound

    def test_first_net_is_everything_last_is_singleton(self):
        g = erdos_renyi_graph(30, 0.2, seed=3)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        scales = sorted(est.net_sizes)
        assert est.net_sizes[scales[0]] == g.n
        assert est.net_sizes[scales[-1]] == 1

    def test_net_sizes_weakly_decreasing(self):
        g = random_geometric_graph(30, seed=4)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        sizes = [est.net_sizes[i] for i in sorted(est.net_sizes)]
        assert sizes == sorted(sizes, reverse=True)

    def test_claim7_on_every_scale(self):
        """n_i <= ⌈2L/2^i⌉ — each net is 2^i-separated."""
        g = erdos_renyi_graph(30, 0.25, seed=5)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        for i, n_i in est.net_sizes.items():
            assert n_i <= math.ceil(2 * est.mst_weight / 2.0 ** i)

    def test_scale_count_logarithmic(self):
        g = erdos_renyi_graph(30, 0.25, seed=6)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        assert len(est.net_sizes) <= 4 * math.log2(g.n * g.max_weight() + 4) + 8

    def test_on_hard_family(self):
        g, mst_w = das_sarma_hard_graph(100, planted_weight=50.0, seed=7)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        assert est.mst_weight == pytest.approx(mst_w)
        assert est.psi >= mst_w - 1e-6
        assert est.psi <= 16 * est.alpha * math.log2(g.n) * mst_w

    def test_estimator_separates_planted_weights(self):
        """The reduction's point: Ψ distinguishes light from heavy planted
        instances (up to the O(α log n) gap)."""
        light_g, light_w = das_sarma_hard_graph(80, planted_weight=1.0, seed=8)
        heavy_g, heavy_w = das_sarma_hard_graph(80, planted_weight=10_000.0, seed=8)
        light_est = estimate_mst_weight_via_nets(light_g, net_method="greedy")
        heavy_est = estimate_mst_weight_via_nets(heavy_g, net_method="greedy")
        assert heavy_est.psi > 5 * light_est.psi

    def test_single_vertex_graph(self):
        from repro.graphs import WeightedGraph

        est = estimate_mst_weight_via_nets(WeightedGraph([0]), net_method="greedy")
        assert est.psi == 0.0


class TestPowerOfTwoScaling:
    """The reduction under every weight scaled by 2^k.  A power of two is
    exact in every path sum, in the greedy nets' radius tests and in Ψ's
    terms, so the nets keep their sizes at scales shifted by k and Ψ
    scales exactly.  The first scale starts from the lightest edge itself:
    clamping it at 1e-12 left the first net short of V once the lightest
    edge fell below that (19, 1 and 1 of 20 points at 2^-45, 2^-50 and
    2^-60, where Ψ/L read 11.60, 1.81 and 1853 for 12.59)."""

    @pytest.mark.parametrize("k", [-60, -50, 50, 60])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_first_net_is_everything_and_psi_scales(self, seed, k):
        g = random_geometric_graph(20, seed=seed)
        factor = 2.0 ** k
        scaled = g.reweighted(lambda u, v, w: w * factor)
        est = estimate_mst_weight_via_nets(g, net_method="greedy")
        got = estimate_mst_weight_via_nets(scaled, net_method="greedy")
        first = min(got.net_sizes)
        assert got.net_sizes[first] == g.n
        assert list(got.net_sizes.values()) == list(est.net_sizes.values())
        assert sorted(got.net_sizes) == [i + k for i in sorted(est.net_sizes)]
        assert got.psi == est.psi * factor
        assert got.approximation_ratio == pytest.approx(est.approximation_ratio)


class TestHardFamily:
    def test_shape(self):
        g, mst_w = das_sarma_hard_graph(100, seed=0)
        assert g.is_connected()
        assert g.n >= 100

    def test_mst_weight_certificate(self):
        g, mst_w = das_sarma_hard_graph(120, planted_weight=7.0, seed=1)
        assert kruskal_mst(g).total_weight() == pytest.approx(mst_w)

    def test_highways_shrink_hop_diameter(self):
        g, _ = das_sarma_hard_graph(150, seed=2)
        p = math.isqrt(150)
        # heads are O(log p) hops apart; spikes add ~p: D = O(sqrt(n))
        assert hop_diameter(g) <= 2 * p + 2 * math.ceil(math.log2(p)) + 4

    def test_planted_weight_changes_mst_only_linearly_in_sqrt_n(self):
        g1, w1 = das_sarma_hard_graph(100, planted_weight=1.0, seed=3)
        g2, w2 = das_sarma_hard_graph(100, planted_weight=101.0, seed=3)
        p = math.isqrt(100)
        assert w2 - w1 == pytest.approx((p - 1 - p // 2) * 100.0)


class TestRoundFloor:
    def test_floor_grows_with_sqrt_n(self):
        assert congest_round_floor(10_000, 0) > congest_round_floor(100, 0)

    def test_floor_includes_diameter(self):
        assert congest_round_floor(100, 50) >= 50

    def test_trivial_graph(self):
        assert congest_round_floor(1, 3) == 3.0

    def test_charged_rounds_respect_floor(self):
        """Our charged costs must sit above the Ω̃(√n + D) floor — they
        claim to be implementations of algorithms subject to it."""
        from repro.core import build_net

        g = erdos_renyi_graph(50, 0.2, seed=9)
        res = build_net(g, 30.0, 0.5, random.Random(9))
        assert res.rounds >= congest_round_floor(g.n, hop_diameter(g))
