"""Tests for the §5 light spanner (Theorem 2)."""
import random

import pytest

from repro.analysis import (
    lightness,
    sparsity,
    verify_spanner,
)
from repro.core import light_spanner
from repro.graphs import erdos_renyi_graph
from repro.mst.kruskal import kruskal_mst


class TestGuarantees:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stretch_deterministic(self, k, seed):
        g = erdos_renyi_graph(50, 0.2, seed=seed)
        res = light_spanner(g, k, 0.25, random.Random(seed))
        verify_spanner(g, res.spanner, res.stretch_bound)

    def test_stretch_bound_formula(self, small_er):
        res = light_spanner(small_er, 2, 0.25, random.Random(0))
        assert res.stretch_bound == pytest.approx(3 * 1.0 * (1 + 4 * 0.25))

    def test_contains_mst(self, medium_er):
        res = light_spanner(medium_er, 2, 0.25, random.Random(1))
        mst = kruskal_mst(medium_er)
        for u, v, _ in mst.edges():
            assert res.spanner.has_edge(u, v)

    def test_spanner_connected_and_spanning(self, medium_er):
        res = light_spanner(medium_er, 3, 0.25, random.Random(2))
        assert res.spanner.is_connected()
        assert set(res.spanner.vertices()) == set(medium_er.vertices())

    def test_lightness_shrinks_with_k(self):
        """O(k·n^{1/k}): larger k should give (weakly) lighter spanners on
        dense inputs, averaged over seeds."""
        def avg_light(k):
            vals = []
            for seed in range(5):
                g = erdos_renyi_graph(60, 0.4, seed=seed)
                res = light_spanner(g, k, 0.25, random.Random(seed))
                vals.append(lightness(g, res.spanner))
            return sum(vals) / len(vals)

        assert avg_light(3) <= avg_light(1) + 1e-9

    def test_size_reasonable_for_k2(self):
        n = 70
        sizes = []
        for seed in range(5):
            g = erdos_renyi_graph(n, 0.4, seed=seed)
            res = light_spanner(g, 2, 0.25, random.Random(seed))
            sizes.append(sparsity(res.spanner))
        avg = sum(sizes) / len(sizes)
        # O(k·n^{1+1/k}) with a generous constant
        assert avg <= 10 * 2 * n ** 1.5

    def test_heavy_ring_crossover(self, heavy_ring):
        """Heavy inter-clique edges land in low buckets; the spanner must
        still certify its stretch with few of them."""
        res = light_spanner(heavy_ring, 2, 0.25, random.Random(3))
        verify_spanner(heavy_ring, res.spanner, res.stretch_bound)


class TestBuckets:
    def test_bucket_partition_covers_weight_range(self, medium_er):
        res = light_spanner(medium_er, 2, 0.25, random.Random(0))
        big_l = 2 * kruskal_mst(medium_er).total_weight()
        covered = sum(b.num_edges for b in res.buckets)
        in_range = sum(
            1 for _, _, w in medium_er.edges() if w <= big_l
        )
        assert covered == in_range

    def test_bucket_weight_ranges_respected(self, medium_er):
        eps = 0.25
        res = light_spanner(medium_er, 2, eps, random.Random(0))
        big_l = 2 * kruskal_mst(medium_er).total_weight()
        by_index = {b.index: b for b in res.buckets}
        for u, v, w in medium_er.edges():
            if w <= big_l / medium_er.n or w > big_l:
                continue
            i = next(
                i for i in by_index
                if i >= 0
                and big_l / (1 + eps) ** (i + 1) < w <= big_l / (1 + eps) ** i
            )
            assert i >= 0

    def test_eprime_bucket_has_index_minus_one(self, medium_er):
        res = light_spanner(medium_er, 2, 0.25, random.Random(0))
        assert res.buckets[0].index == -1
        assert res.buckets[0].case == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_case_assignment_monotone(self, ring_with_chords, k):
        """Low buckets (big w_i, few clusters) are case 1; high buckets
        case 2 — both occur, and the switch happens once."""
        res = light_spanner(ring_with_chords, k, 0.25, random.Random(1))
        cases = [b.case for b in res.buckets if b.index >= 0]
        assert 1 in cases and 2 in cases
        assert cases == sorted(cases)

    def test_cluster_count_grows_with_bucket_index(self):
        g = erdos_renyi_graph(80, 0.2, min_weight=1.0, max_weight=5000.0, seed=5)
        res = light_spanner(g, 2, 0.25, random.Random(5))
        real = [b for b in res.buckets if b.index >= 0 and b.num_edges > 0]
        if len(real) >= 2:
            assert real[-1].num_clusters >= real[0].num_clusters


class TestRounds:
    def test_ledger_itemized(self, medium_er):
        res = light_spanner(medium_er, 2, 0.25, random.Random(0))
        phases = res.ledger.by_phase()
        assert "bfs-tree" in phases
        assert "mst-construction" in phases
        assert any(p.startswith("tour:") for p in phases)
        assert any(p.startswith("E':") for p in phases)
        assert res.rounds == res.ledger.total > 0

    def test_rounds_scale_sublinearly_in_n(self):
        """Theorem 2: Õ(n^{1/2+1/(4k+2)} + D) — quadrupling n should far
        less than quadruple the rounds."""
        def rounds_at(n, seed=0):
            g = erdos_renyi_graph(n, min(1.0, 8.0 / n), seed=seed)
            return light_spanner(g, 2, 0.25, random.Random(seed)).rounds

        small, large = rounds_at(40), rounds_at(160)
        assert large < 3.2 * small


class TestValidation:
    @pytest.mark.parametrize("k", [0, 2.5, 2.0])
    def test_invalid_k(self, small_er, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            light_spanner(small_er, k, 0.25)

    @pytest.mark.parametrize("eps", [0.0, 0.75, 1.5])
    def test_invalid_eps(self, small_er, eps):
        with pytest.raises(ValueError):
            light_spanner(small_er, 2, eps)

    def test_works_on_all_workloads(self, workload):
        res = light_spanner(workload, 2, 0.25, random.Random(7))
        verify_spanner(workload, res.spanner, res.stretch_bound)


class TestScaleInvariance:
    """Multiplying every weight by a power of two is exact in floating
    point, so it must not change the spanner: the same edges (with scaled
    weights), the same rounds and the same per-bucket clustering."""

    @pytest.mark.parametrize("seed", range(1, 7))
    @pytest.mark.parametrize("exponent", [-60, -40, -20, 20, 40])
    def test_power_of_two_scaling(self, seed, exponent):
        g = erdos_renyi_graph(60, 0.2, seed=seed)
        factor = 2.0 ** exponent
        base = light_spanner(g, 3, 0.25, random.Random(seed))
        scaled = light_spanner(
            g.reweighted(lambda u, v, w: w * factor), 3, 0.25, random.Random(seed)
        )
        assert sorted(scaled.spanner.edges()) == sorted(
            (u, v, w * factor) for u, v, w in base.spanner.edges()
        )
        assert scaled.ledger.by_phase() == base.ledger.by_phase()

        def clustering(res):
            return [(b.index, b.case, b.num_clusters, b.spanner_edges)
                    for b in res.buckets]

        assert clustering(scaled) == clustering(base)
