"""Tests for Least-Element lists (Definition 1 / Theorem 4)."""

import math
import random

import pytest

from repro.congest import RoundLedger
from repro.graphs import all_pairs_shortest_paths, erdos_renyi_graph, path_graph
from repro.graphs.csr import round_up_weights
from repro.lelists import compute_le_lists, first_in_ball, fl16_round_cost


def _brute_force_le_lists(graph, active, pi, delta):
    """Definition 1 evaluated literally, on the same rounded graph H."""
    h = graph.reweighted(lambda _u, _v, w: round_up_weights([w], delta)[0])
    dist = all_pairs_shortest_paths(h)
    lists = {}
    for v in graph.vertices():
        entries = []
        for u in sorted(active, key=lambda x: pi[x]):
            d = dist[v].get(u, math.inf)
            dominated = any(
                dist[v].get(w, math.inf) <= d and pi[w] < pi[u]
                for w in active
                if w != u
            )
            if not dominated and d < math.inf:
                entries.append((u, d))
        lists[v] = entries
    return lists


class TestExactLELists:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        g = erdos_renyi_graph(18, 0.3, seed=seed)
        active = list(g.vertices())
        rng = random.Random(seed)
        order = list(active)
        rng.shuffle(order)
        pi = {v: i for i, v in enumerate(order)}
        result = compute_le_lists(g, active, delta=0.0, pi=pi)
        expected = _brute_force_le_lists(g, active, pi, 0.0)
        for v in g.vertices():
            assert [(u, pytest.approx(d)) for u, d in expected[v]] == result.lists[v]

    def test_own_entry_present_for_active(self, small_er):
        result = compute_le_lists(g := small_er, active=list(g.vertices()), rng=random.Random(0))
        for v in g.vertices():
            assert (v, 0.0) in result.lists[v]

    def test_first_ranked_vertex_in_every_list(self, small_er):
        g = small_er
        result = compute_le_lists(g, list(g.vertices()), rng=random.Random(1))
        champion = min(result.pi, key=lambda v: result.pi[v])
        for v in g.vertices():
            assert any(u == champion for u, _ in result.lists[v])

    def test_distances_strictly_decreasing_along_list(self, small_er):
        g = small_er
        result = compute_le_lists(g, list(g.vertices()), rng=random.Random(2))
        for v, lst in result.lists.items():
            ds = [d for _, d in lst]
            assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_list_lengths_logarithmic_whp(self):
        """[KKM+12]: uniform π gives O(log n) list lengths w.h.p."""
        g = erdos_renyi_graph(80, 0.15, seed=3)
        result = compute_le_lists(g, list(g.vertices()), rng=random.Random(3))
        assert result.max_list_length() <= 6 * math.ceil(math.log2(80))

    def test_restricted_active_set(self, small_er):
        g = small_er
        active = [v for v in g.vertices() if v % 2 == 0]
        result = compute_le_lists(g, active, rng=random.Random(4))
        for v, lst in result.lists.items():
            assert all(u in set(active) for u, _ in lst)


class TestApproximateLELists:
    def test_distances_within_1_plus_delta(self, small_er):
        g = small_er
        delta = 0.5
        result = compute_le_lists(g, list(g.vertices()), delta=delta, rng=random.Random(5))
        apsp = all_pairs_shortest_paths(g)
        for v, lst in result.lists.items():
            for u, d in lst:
                assert d >= apsp[v][u] - 1e-9
                assert d <= (1 + delta) * apsp[v][u] + 1e-9

    def test_matches_brute_force_on_rounded_graph(self):
        g = erdos_renyi_graph(15, 0.35, seed=7)
        pi = {v: i for i, v in enumerate(sorted(g.vertices()))}
        result = compute_le_lists(g, list(g.vertices()), delta=0.3, pi=pi)
        expected = _brute_force_le_lists(g, list(g.vertices()), pi, 0.3)
        for v in g.vertices():
            assert [(u, pytest.approx(d)) for u, d in expected[v]] == result.lists[v]


class TestFirstInBall:
    def test_identifies_local_minimum(self):
        g = path_graph(5)  # unit weights
        pi = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}  # vertex 1 is globally first
        result = compute_le_lists(g, list(g.vertices()), pi=pi)
        assert first_in_ball(result, 0, 1.0) == 1
        assert first_in_ball(result, 1, 1.0) == 1
        assert first_in_ball(result, 4, 1.0) == 3  # within distance 1: {3, 4}

    def test_radius_zero_returns_self_for_active(self, small_er):
        g = small_er
        result = compute_le_lists(g, list(g.vertices()), rng=random.Random(6))
        for v in g.vertices():
            assert first_in_ball(result, v, 0.0) == v

    def test_none_when_inactive_and_isolated_from_actives(self):
        g = path_graph(4, [100.0, 1.0, 100.0])
        result = compute_le_lists(g, [0], pi={0: 0})
        assert first_in_ball(result, 3, 10.0) is None


class TestRoundAccounting:
    def test_ledger_charged(self, small_er):
        led = RoundLedger()
        compute_le_lists(
            small_er, list(small_er.vertices()), delta=0.5,
            rng=random.Random(0), bfs_height=4, ledger=led, phase="le",
        )
        assert led.by_phase()["le"] == fl16_round_cost(small_er.n, 4, 0.5)

    def test_cost_decreases_with_larger_delta(self):
        assert fl16_round_cost(400, 10, 0.9) <= fl16_round_cost(400, 10, 0.01)

    def test_cost_superlinear_in_sqrt_n(self):
        assert fl16_round_cost(400, 0, 0.5) >= 20  # at least √n
