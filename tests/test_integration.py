"""Cross-module integration tests: full pipelines on shared workloads."""

import math
import random

import pytest

from repro.analysis import (
    lightness,
    max_pairwise_stretch,
    root_stretch,
    verify_net,
    verify_slt,
    verify_spanner,
)
from repro.baselines import kry_slt
from repro.core import (
    build_net,
    doubling_spanner,
    estimate_mst_weight_via_nets,
    light_spanner,
    shallow_light_tree,
)
from repro.graphs import (
    erdos_renyi_graph,
    hop_diameter,
    random_geometric_graph,
)
from repro.mst import boruvka_mst, kruskal_mst
from repro.spanners import greedy_spanner


class TestFullPipelineGeneralGraph:
    """One graph, every §4–§6 construction, all guarantees cross-checked."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi_graph(50, 0.2, seed=42)

    def test_mst_agreement_between_algorithms(self, graph):
        assert boruvka_mst(graph).tree == kruskal_mst(graph)

    def test_spanner_quality_matches_paper_form(self, graph):
        """Lightness must respect the paper's O(k·n^{1/k}) form (constant
        4), and the greedy baseline certifies the same stretch with fewer
        edges — the price of distribution."""
        rng = random.Random(0)
        ours = light_spanner(graph, 2, 0.25, rng)
        base = greedy_spanner(graph, ours.stretch_bound)
        verify_spanner(graph, ours.spanner, ours.stretch_bound)
        k, n = 2, graph.n
        assert lightness(graph, ours.spanner) <= 4 * k * n ** (1 / k)
        assert base.m <= ours.spanner.m  # greedy is the quality frontier

    def test_slt_vs_kry_quality(self, graph):
        ours = shallow_light_tree(graph, 0, alpha=5.0)
        base = kry_slt(graph, 0, eps=0.5)  # lightness 1+2/ε = 5 too
        verify_slt(graph, ours.tree, 0, ours.stretch_bound, 5.0)
        assert root_stretch(graph, ours.tree, 0) <= 5 * max(
            1.0, root_stretch(graph, base.tree, 0)
        )

    def test_slt_rounds_beat_sequential_scan_asymptotics(self, graph):
        """§4's point: the two-phase selection avoids the Ω(n) scan; on a
        sparse graph the charged rounds stay o(n)·polylog-ish."""
        ours = shallow_light_tree(graph, 0, alpha=5.0)
        phases = ours.ledger.by_phase()
        assert phases["bp1-interval-scan"] < graph.n

    def test_net_of_spanner_is_net_of_graph_up_to_stretch(self, graph):
        """Composing constructions: a net built on a t-spanner is an
        (α·t, β/1)-net of the original graph."""
        rng = random.Random(1)
        sp = light_spanner(graph, 2, 0.25, rng)
        t = sp.stretch_bound
        net = build_net(sp.spanner, 30.0, 0.5, rng)
        verify_net(graph, net.points, net.alpha, net.beta / t)

    def test_mst_weight_estimate_consistency(self, graph):
        est = estimate_mst_weight_via_nets(graph, net_method="greedy")
        assert est.approximation_ratio >= 1.0 - 1e-9
        assert est.approximation_ratio <= 16 * est.alpha * math.log2(graph.n)


class TestFullPipelineDoublingGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_geometric_graph(35, seed=7)

    def test_doubling_spanner_beats_general_lightness(self, graph):
        """On doubling inputs the §7 spanner at small ε should be at least
        competitive with the general §5 spanner at k=1 on stretch."""
        rng = random.Random(2)
        doub = doubling_spanner(graph, 0.1, rng, net_method="greedy")
        assert max_pairwise_stretch(graph, doub.spanner) <= 1.0 + 30 * 0.1


class TestRoundScalingAcrossConstructions:
    """The Table-1 rounds columns, checked as growth rates."""

    @staticmethod
    def _graph(n, seed=0):
        return erdos_renyi_graph(n, min(1.0, 6.0 / n), seed=seed)

    def test_spanner_rounds_sublinear(self):
        r1 = light_spanner(self._graph(36), 2, 0.25, random.Random(0)).rounds
        r2 = light_spanner(self._graph(144), 2, 0.25, random.Random(0)).rounds
        # Õ(n^{1/2+1/10}): 4x n → ~2.3x rounds; allow 3.5x
        assert r2 <= 3.5 * r1

    def test_slt_rounds_sublinear(self):
        r1 = shallow_light_tree(self._graph(36), 0, 8.0).rounds
        r2 = shallow_light_tree(self._graph(144), 0, 8.0).rounds
        assert r2 <= 3.5 * r1

    def test_net_rounds_superlinear_floor(self):
        from repro.core import congest_round_floor

        g = self._graph(64)
        res = build_net(g, 30.0, 0.5, random.Random(1))
        assert res.rounds >= congest_round_floor(g.n, hop_diameter(g))
