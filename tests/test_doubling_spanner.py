"""Tests for the §7 doubling-graph spanner (Theorem 5)."""

import math
import random

import pytest

from repro.analysis import (
    lightness,
    max_pairwise_stretch,
    verify_subgraph,
)
from repro.congest import RoundLedger, build_bfs_tree
from repro.core import doubling_spanner
from repro.core.doubling_spanner import (
    ScaleStats,
    bounded_exploration_cost,
    en16_round_cost,
)
from repro.core.nets import build_net, greedy_net
from repro.graphs import (
    WeightedGraph,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    unit_ball_graph,
)
from repro.lelists.le_lists import fl16_round_cost
from repro.mst import kruskal_mst
from repro.spt import bounded_approx_spt


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
        """Paths must be real G-paths (path-reporting explorations, §7.1)."""
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

    def test_round_cost_formulas(self):
        assert en16_round_cost(100, 5, 4) == (10 + 5) * 16  # isqrt(99)+1 = 10
        assert bounded_exploration_cost(100, 5, 2, overlap=3, skeleton_size=20) > 0
        # overlap multiplies the cost
        a = bounded_exploration_cost(100, 5, 2, 1, 20)
        b = bounded_exploration_cost(100, 5, 2, 4, 20)
        assert b == 4 * a

    def test_overlap_bounded_by_packing(self):
        """Lemma 6: any vertex participates in ε^{-O(ddim)} explorations."""
        g = random_geometric_graph(30, seed=13)
        res = doubling_spanner(g, 0.1, random.Random(13), net_method="greedy")
        worst = max(s.max_overlap for s in res.scales)
        assert worst <= g.n  # trivial cap; realistic values far below
        assert worst >= 1

    @pytest.mark.parametrize("net_method", ["distributed", "greedy"])
    def test_net_sizes_obey_claim_7_at_every_scale(self, net_method):
        """Claim 7: an r-separated set has at most ⌈2L/r⌉ points, L the
        MST weight.  A scale's greedy net is εΔ/3-separated; the
        Theorem-3 net is (εΔ/3)/(1+δ)-separated, with δ = 1/2."""
        g = random_geometric_graph(80, seed=15)
        eps = 0.12
        res = doubling_spanner(g, eps, random.Random(15), net_method=net_method)
        mst_w = kruskal_mst(g).total_weight()
        shrink = 1.5 if net_method == "distributed" else 1.0
        caps = [math.ceil(2 * mst_w / (eps * s.scale / 3.0 / shrink))
                for s in res.scales]
        assert any(cap < g.n for cap in caps)  # the bound binds somewhere
        for s, cap in zip(res.scales, caps):
            assert s.net_size <= cap


class TestRoundCostFormulas:
    """The [EN16] hopset and §7.2 exploration charges, which the ledger
    goldens pin only through their hash."""

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 99, 100, 101])
    def test_sqrt_factor_is_ceil_sqrt_n(self, n):
        ceil_sqrt = next(s for s in range(1, n + 1) if s * s >= n)
        assert en16_round_cost(n, 0, 1) == ceil_sqrt
        assert bounded_exploration_cost(n, 0, 1, 1, 0) == 2 * ceil_sqrt

    def test_en16_quadratic_in_hopbound(self):
        assert en16_round_cost(100, 5, 6) == 4 * en16_round_cost(100, 5, 3)

    def test_exploration_linear_in_hopbound_and_additive_per_iteration(self):
        assert bounded_exploration_cost(100, 5, 6, 2, 20) == (
            3 * bounded_exploration_cost(100, 5, 2, 2, 20))
        # one iteration: 2⌈√n⌉ relaxation rounds, the skeleton broadcast
        # and the tree height
        assert bounded_exploration_cost(100, 5, 1, 1, 20) == 2 * 10 + 20 + 5

    def test_overlap_below_one_counts_once(self):
        assert bounded_exploration_cost(100, 5, 2, 0, 20) == (
            bounded_exploration_cost(100, 5, 2, 1, 20))


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


class TestInputContract:
    def test_empty_graph_is_named(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            doubling_spanner(WeightedGraph(), 0.1, random.Random(0))

    @pytest.mark.parametrize("net_method", ["greedy", "distributed"])
    def test_single_vertex(self, net_method):
        res = doubling_spanner(WeightedGraph([0]), 0.1, random.Random(0),
                               net_method=net_method)
        assert list(res.spanner.vertices()) == [0]
        assert res.spanner.m == 0
        assert all(s.net_size == 1 and s.paths_added == 0 for s in res.scales)

    @pytest.mark.parametrize("net_method", ["greedy", "distributed"])
    def test_two_vertices_keep_their_edge(self, net_method):
        g = WeightedGraph()
        g.add_edge("a", "b", 3.5)
        res = doubling_spanner(g, 0.1, random.Random(0), net_method=net_method)
        assert list(res.spanner.edges()) == [("a", "b", 3.5)]

    def test_two_components_name_an_unreached_vertex(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        with pytest.raises(ValueError, match="disconnected: 2 unreached"):
            doubling_spanner(g, 0.1, random.Random(0), net_method="greedy")


def _every_exploration_spanner(graph, eps, rng, net_method):
    """The per-scale loop before explorations were reused across scales:
    one fresh ``bounded_approx_spt`` per net point per scale.  The
    reference :class:`TestParentLoopParity` compares against."""
    n = graph.n
    root = min(graph.vertices(), key=repr)
    ledger = RoundLedger()
    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height
    mst_weight = kruskal_mst(graph).total_weight()
    spanner = WeightedGraph(graph.vertices())
    scales = []
    csr = graph.freeze()
    base = 1.0 + eps
    num_scales = max(1, math.ceil(math.log(max(mst_weight, base), base))) + 1
    first_scale = min(0, math.floor(math.log(csr.min_weight(), base))) if csr.m else 0
    delta = 0.5
    skeleton_size = max(1, math.ceil(math.sqrt(n * max(math.log(n + 1), 1.0))))
    beta = max(1, math.ceil(math.log2(n + 1)))
    for i in range(first_scale, num_scales):
        scale = base ** i
        scale_ledger = RoundLedger()
        net_param = eps * scale / 3.0
        if net_method == "distributed":
            net_res = build_net(graph, net_param, delta, rng, root=root)
            net_points = net_res.points
            scale_ledger.merge(net_res.ledger, prefix=f"scale{i}:net:")
        else:
            net_points = greedy_net(graph, net_param)
            iters = math.ceil(math.log2(n + 2))
            scale_ledger.charge(
                f"scale{i}:net", iters * fl16_round_cost(n, height, delta))
        scale_ledger.charge(f"scale{i}:hopset", en16_round_cost(n, height, beta))
        radius = 2.0 * scale
        participation = {}
        paths_added = 0
        rank = {v: repr(v) for v in net_points}
        for u in sorted(net_points, key=rank.__getitem__):
            run = bounded_approx_spt(csr, [u], radius, eps)
            true_dist, parent = run.dist, run.parent
            for v in true_dist:
                participation[v] = participation.get(v, 0) + 1
            walked = set()
            rank_u = rank[u]
            for v in net_points:
                if rank[v] <= rank_u or v not in true_dist:
                    continue
                node = v
                while node not in walked and parent[node] is not None:
                    walked.add(node)
                    prev = parent[node]
                    if not spanner.has_edge(prev, node):
                        spanner.add_edge(prev, node, graph.weight(prev, node))
                    node = prev
                paths_added += 1
        max_overlap = max(participation.values(), default=0)
        scale_ledger.charge(
            f"scale{i}:explorations",
            bounded_exploration_cost(n, height, beta, max_overlap, skeleton_size),
        )
        ledger.merge(scale_ledger)
        scales.append(ScaleStats(
            index=i, scale=scale, net_size=len(net_points),
            paths_added=paths_added, max_overlap=max_overlap,
            rounds=scale_ledger.total,
        ))
    return spanner, ledger, scales


def _parity_graph(family, n, seed):
    if family == "geometric":
        return random_geometric_graph(n, seed=seed)
    if family == "er":
        return erdos_renyi_graph(n, 4.0 / n, seed=seed)
    rows = {12: 3, 25: 5, 45: 5}[n]
    return grid_graph(rows, n // rows)  # every weight 1: ties everywhere


def _parity_cases():
    for family in ("geometric", "er", "ties"):
        for eps in (0.03, 0.08, 0.12):
            for n in (12, 25):
                for factor in (1.0, 1e-3, 1e3):
                    yield family, n, 1, eps, factor, "greedy"
            yield family, 12, 2, eps, 1.0, "distributed"
        yield family, 45, 1, 0.12, 1.0, "greedy"


class TestParentLoopParity:
    """Reused explorations give the spanner every loop that re-runs
    each exploration gives it: the same edges in the same insertion
    order, the same ledger and the same per-scale statistics."""

    @pytest.mark.parametrize("family, n, seed, eps, factor, net_method",
                             list(_parity_cases()))
    def test_matches_every_exploration_loop(self, family, n, seed, eps,
                                            factor, net_method):
        g = _parity_graph(family, n, seed)
        if factor != 1.0:
            g = g.reweighted(lambda u, v, w: w * factor)
        res = doubling_spanner(g, eps, random.Random(seed), net_method=net_method)
        spanner, ledger, scales = _every_exploration_spanner(
            g, eps, random.Random(seed), net_method)
        assert list(res.spanner.edges()) == list(spanner.edges())
        assert res.ledger.entries() == ledger.entries()
        assert res.scales == scales
