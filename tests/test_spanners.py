"""Tests for the spanner substrate: greedy, Baswana–Sen, Elkin–Neiman."""

import random

import pytest

from repro.analysis import verify_spanner
from repro.congest import RoundLedger
from repro.graphs import WeightedGraph, complete_graph, erdos_renyi_graph
from repro.spanners import (
    baswana_sen_spanner,
    elkin_neiman_spanner,
    greedy_spanner,
    sample_shifts,
)


class TestGreedySpanner:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stretch_guarantee(self, small_er, k):
        t = 2 * k - 1
        h = greedy_spanner(small_er, t)
        verify_spanner(small_er, h, t)

    def test_stretch_one_preserves_all_distances(self, small_er):
        from repro.graphs import dijkstra

        h = greedy_spanner(small_er, 1.0)
        for u in small_er.vertices():
            dg, _ = dijkstra(small_er, u)
            dh, _ = dijkstra(h, u)
            for v, d in dg.items():
                assert dh[v] == pytest.approx(d)

    def test_size_bound_girth(self):
        """O(n^{1+1/k}) edges for stretch 2k−1 [ADD+93]."""
        g = complete_graph(40, min_weight=1.0, max_weight=50.0, seed=1)
        h = greedy_spanner(g, 3.0)  # k = 2
        assert h.m <= 4 * 40 ** 1.5

    def test_spans_and_is_subgraph(self, heavy_ring):
        h = greedy_spanner(heavy_ring, 5.0)
        verify_spanner(heavy_ring, h, 5.0)
        assert h.is_connected()

    def test_invalid_stretch(self, small_er):
        with pytest.raises(ValueError):
            greedy_spanner(small_er, 0.5)

    def test_denser_than_mst(self, small_er):
        """Greedy t-spanner always contains the MST edges."""
        from repro.mst import kruskal_mst

        h = greedy_spanner(small_er, 3.0)
        mst = kruskal_mst(small_er)
        for u, v, _ in mst.edges():
            assert h.has_edge(u, v)


class TestBaswanaSen:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stretch_deterministic_guarantee(self, k, seed):
        g = erdos_renyi_graph(40, 0.3, seed=seed)
        h = baswana_sen_spanner(g, k, random.Random(seed))
        verify_spanner(g, h, 2 * k - 1)

    def test_k1_returns_whole_graph(self, small_er):
        h = baswana_sen_spanner(small_er, 1, random.Random(0))
        assert h.m == small_er.m

    def test_expected_size_bound(self):
        """E[edges] = O(k·n^{1+1/k}); check a generous 4x margin on average."""
        n, k = 60, 2
        sizes = []
        for seed in range(10):
            g = complete_graph(n, min_weight=1.0, max_weight=9.0, seed=seed)
            h = baswana_sen_spanner(g, k, random.Random(seed))
            sizes.append(h.m)
        avg = sum(sizes) / len(sizes)
        assert avg <= 4 * k * n ** (1 + 1 / k)

    def test_rounds_charged_o_k(self, small_er):
        led = RoundLedger()
        baswana_sen_spanner(small_er, 3, random.Random(1), ledger=led)
        assert led.by_phase()["baswana-sen"] == 9  # 3k

    @pytest.mark.parametrize("k", [0, 2.5, 2.0])
    def test_invalid_k(self, small_er, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            baswana_sen_spanner(small_er, k)

    def test_spans_all_vertices(self, heavy_ring):
        h = baswana_sen_spanner(heavy_ring, 2, random.Random(2))
        assert set(h.vertices()) == set(heavy_ring.vertices())
        verify_spanner(heavy_ring, h, 3)


def _unweighted_adjacency(g: WeightedGraph):
    return {v: set(g.neighbors(v)) for v in g.vertices()}


def _unweighted_stretch(adj, edges):
    """Max hop-stretch of the edge set over the unweighted graph."""
    span = {v: set() for v in adj}
    for e in edges:
        a, b = tuple(e)
        span[a].add(b)
        span[b].add(a)

    def bfs(src, graph):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in graph[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    worst = 1.0
    for u in adj:
        d_span = bfs(u, span)
        for v in adj[u]:
            if v not in d_span:
                return float("inf")
            worst = max(worst, d_span[v])
    return worst


class TestElkinNeiman:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stretch_2k_minus_1(self, k, seed):
        g = erdos_renyi_graph(40, 0.15, seed=seed)
        adj = _unweighted_adjacency(g)
        run = elkin_neiman_spanner(adj, k, random.Random(seed))
        assert _unweighted_stretch(adj, run.edges) <= 2 * k - 1

    def test_shifts_conditioned_below_k(self):
        shifts = sample_shifts(range(500), k=3, rng=random.Random(0))
        assert all(0 <= r < 3 for r in shifts.values())

    def test_expected_size_reasonable(self):
        n, k = 80, 2
        sizes = []
        for seed in range(8):
            g = erdos_renyi_graph(n, 0.4, seed=seed)
            adj = _unweighted_adjacency(g)
            run = elkin_neiman_spanner(adj, k, random.Random(seed))
            sizes.append(len(run.edges))
        avg = sum(sizes) / len(sizes)
        assert avg <= 8 * n ** (1 + 1 / k)

    def test_runs_k_rounds(self, small_er):
        adj = _unweighted_adjacency(small_er)
        run = elkin_neiman_spanner(adj, 3, random.Random(1))
        assert run.rounds == 3

    def test_precomputed_shifts_respected(self, small_er):
        adj = _unweighted_adjacency(small_er)
        shifts = sample_shifts(adj, 2, random.Random(5))
        run = elkin_neiman_spanner(adj, 2, shifts=shifts)
        assert run.shifts == shifts

    def test_edges_are_graph_edges(self, small_er):
        adj = _unweighted_adjacency(small_er)
        run = elkin_neiman_spanner(adj, 2, random.Random(3))
        for e in run.edges:
            a, b = tuple(e)
            assert b in adj[a]

    @pytest.mark.parametrize("k", [0, 2.5, 2.0])
    def test_invalid_k(self, small_er, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            elkin_neiman_spanner(_unweighted_adjacency(small_er), k)

    def test_single_node_graph(self):
        run = elkin_neiman_spanner({0: set()}, 2, random.Random(0))
        assert run.edges == set()
