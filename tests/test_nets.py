"""Tests for the §6 net construction (Theorem 3)."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.nets as nets_module
from repro.analysis import verify_net
from repro.core import NetInvariantError, build_net, greedy_net
from repro.graphs import (
    WeightedGraph,
    dijkstra,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_geometric_graph)

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: an LE-list query that finds no vertex first in its own ball, in a
#: fresh interpreter; run under ``python -O``
_NO_JOINERS_SCRIPT = """\
import random
import sys
import repro.core.nets as nets
from repro.graphs import erdos_renyi_graph

if not sys.flags.optimize:
    sys.exit("expected python -O")
nets.first_in_ball = lambda le, v, radius: None
try:
    nets.build_net(erdos_renyi_graph(30, 0.2, seed=1), 5.0, 0.5, random.Random(0))
except nets.NetInvariantError as exc:
    print("raised:", exc)
else:
    sys.exit("no NetInvariantError")
"""


class TestBuildNet:
    @pytest.mark.parametrize("delta_param", [5.0, 20.0, 60.0])
    def test_covering_and_separation(self, medium_er, delta_param):
        res = build_net(medium_er, delta_param, 0.5, random.Random(0))
        verify_net(medium_er, res.points, res.alpha, res.beta)

    @pytest.mark.parametrize("delta", [0.25, 0.5, 0.75])
    def test_delta_parameter_sweeps(self, small_er, delta):
        res = build_net(small_er, 15.0, delta, random.Random(1))
        assert res.alpha == pytest.approx((1 + delta) * 15.0)
        assert res.beta == pytest.approx(15.0 / (1 + delta))
        verify_net(small_er, res.points, res.alpha, res.beta)

    def test_tiny_radius_selects_everyone(self, small_er):
        res = build_net(small_er, 0.5, 0.5, random.Random(2))
        assert res.points == set(small_er.vertices())
        assert res.iterations == 1

    def test_huge_radius_selects_single_point(self, small_er):
        res = build_net(small_er, 1e6, 0.5, random.Random(3))
        assert len(res.points) == 1

    def test_iterations_logarithmic(self):
        g = erdos_renyi_graph(80, 0.15, seed=4)
        res = build_net(g, 40.0, 0.5, random.Random(4))
        assert res.iterations <= 4 * math.ceil(math.log2(80))

    def test_active_history_strictly_decreasing(self, medium_er):
        res = build_net(medium_er, 25.0, 0.5, random.Random(5))
        assert res.active_history[0] == medium_er.n
        assert all(a > b for a, b in zip(res.active_history, res.active_history[1:]))

    def test_net_size_decreases_with_radius(self, medium_er):
        sizes = []
        for delta_param in (2.0, 20.0, 200.0):
            res = build_net(medium_er, delta_param, 0.5, random.Random(6))
            sizes.append(len(res.points))
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_rounds_charged_per_iteration(self, small_er):
        res = build_net(small_er, 15.0, 0.5, random.Random(7))
        phases = res.ledger.by_phase()
        assert any("le-lists" in p for p in phases)
        assert any("approx-spt" in p for p in phases)
        assert res.rounds > 0

    def test_path_graph_net_spacing(self):
        g = path_graph(50)  # unit weights
        res = build_net(g, 4.0, 0.5, random.Random(8))
        verify_net(g, res.points, res.alpha, res.beta)
        # at least n / (2α + 1) points are needed to cover a path
        assert len(res.points) >= 50 / (2 * res.alpha + 1) - 1

    @pytest.mark.parametrize("w, points", [(1.6, 1), (2.0, 2)])
    def test_deactivates_by_tree_path_weight(self, monkeypatch, w, points):
        """With only the first vertex in π joining, the other end of one
        edge is deactivated exactly when the edge weighs at most
        (1+δ)·Δ = 1.8, though 1.6 and 2.0 both round up to 1.5² = 2.25."""
        g = WeightedGraph([0, 1])
        g.add_edge(0, 1, w)
        monkeypatch.setattr(nets_module, "first_in_ball",
                            lambda le, v, radius: min(le.pi, key=le.pi.__getitem__))
        res = build_net(g, 1.2, 0.5, random.Random(0))
        assert (len(res.points), res.iterations) == (points, points)
        verify_net(g, res.points, res.alpha, res.beta)

    def test_invalid_parameters(self, small_er):
        with pytest.raises(ValueError):
            build_net(small_er, -1.0, 0.5)
        with pytest.raises(ValueError):
            build_net(small_er, 5.0, 0.0)
        with pytest.raises(ValueError):
            build_net(small_er, 5.0, 1.0)

    def test_deterministic_given_seed(self, small_er):
        a = build_net(small_er, 20.0, 0.5, random.Random(42))
        b = build_net(small_er, 20.0, 0.5, random.Random(42))
        assert a.points == b.points


class TestGreedyNet:
    @pytest.mark.parametrize("radius", [3.0, 10.0, 40.0])
    def test_is_r_r_net(self, medium_er, radius):
        pts = greedy_net(medium_er, radius)
        verify_net(medium_er, pts, radius, radius)

    def test_first_vertex_always_kept(self, small_er):
        pts = greedy_net(small_er, 10.0)
        assert min(small_er.vertices(), key=repr) in pts

    def test_grid_packing(self):
        g = grid_graph(8, 8)  # unit weights
        pts = greedy_net(g, 2.0)
        verify_net(g, pts, 2.0, 2.0)
        assert 4 <= len(pts) <= 20

    def test_greedy_not_larger_than_distributed_by_much(self, medium_er):
        """Both are maximal-independent-style nets; sizes comparable."""
        g_pts = greedy_net(medium_er, 20.0)
        d_res = build_net(medium_er, 20.0, 0.5, random.Random(0))
        assert len(d_res.points) <= 4 * len(g_pts) + 4
        assert len(g_pts) <= 4 * len(d_res.points) + 4


class TestDistributedNetOnDoublingGraphs:
    def test_geometric_graph(self, geometric):
        res = build_net(geometric, 30.0, 0.5, random.Random(1))
        verify_net(geometric, res.points, res.alpha, res.beta)

    def test_packing_bound_on_net_size(self, geometric):
        """Claim 7: an r-separated set has at most ⌈2L/r⌉ points."""
        from repro.mst.kruskal import kruskal_mst

        res = build_net(geometric, 25.0, 0.5, random.Random(2))
        mst_w = kruskal_mst(geometric).total_weight()
        assert len(res.points) <= math.ceil(2 * mst_w / res.beta)


def _reference_greedy_net(graph, radius):
    """The greedy net with a full Dijkstra from every kept vertex."""
    net, covered = [], {}
    for v in sorted(graph.vertices(), key=repr):
        if covered.get(v, math.inf) > radius:
            net.append(v)
            for u, d in dijkstra(graph, v)[0].items():
                covered[u] = min(d, covered.get(u, math.inf))
    return set(net)


def _string_labelled(graph):
    out = WeightedGraph([f"v{v}" for v in graph.vertices()])
    for u, v, w in graph.edges():
        out.add_edge(f"v{u}", f"v{v}", w)
    return out


PARITY_GRAPHS = {
    "er": lambda: erdos_renyi_graph(40, 0.15, seed=31),
    "grid": lambda: grid_graph(6, 6, jitter=0.3, seed=32),
    "disconnected": lambda: erdos_renyi_graph(
        30, 0.05, seed=33, ensure_connected=False),
    "string-labels": lambda: _string_labelled(erdos_renyi_graph(30, 0.2, seed=34)),
}


class TestGreedyNetExtremes:
    """The two ends of §7's ladder of scales: below the lightest edge
    every vertex is its own net point, and above every component's
    diameter each component keeps only its first vertex in ``repr``
    order."""

    @pytest.mark.parametrize("family", sorted(PARITY_GRAPHS))
    def test_below_lightest_edge_keeps_every_vertex(self, family):
        g = PARITY_GRAPHS[family]()
        assert greedy_net(g, g.min_weight() / 2) == set(g.vertices())

    @pytest.mark.parametrize("family", sorted(PARITY_GRAPHS))
    def test_above_diameter_keeps_first_vertex_of_each_component(self, family):
        g = PARITY_GRAPHS[family]()
        firsts = {min(c, key=repr) for c in g.connected_components()}
        assert (len(firsts) > 1) == (family == "disconnected")
        assert greedy_net(g, g.total_weight() + 1.0) == firsts


class TestPowerOfTwoScaling:
    """§6 under every weight and the radius scaled by 2^k (k = ±40).

    A power-of-two factor is exact in every path sum, in every
    comparison with the radius and in the lightest-edge shortcut, so the
    greedy net is the same set.  The distributed net rounds weights up
    to powers of 1+δ, which does not commute with 2^k, so only its
    guarantees carry over."""

    @pytest.mark.parametrize("k", [-40, 40])
    @pytest.mark.parametrize("radius", [1.0, 5.0, 20.0, 80.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_net_is_the_same(self, seed, radius, k):
        g = random_geometric_graph(30, seed=seed)
        factor = 2.0 ** k
        scaled = g.reweighted(lambda u, v, w: w * factor)
        assert greedy_net(scaled, radius * factor) == greedy_net(g, radius)

    @pytest.mark.parametrize("k", [-40, 40])
    @pytest.mark.parametrize("delta_param", [3.0, 12.0, 40.0])
    def test_build_net_keeps_its_guarantees(self, delta_param, k):
        factor = 2.0 ** k
        g = random_geometric_graph(30, seed=1).reweighted(
            lambda u, v, w: w * factor)
        res = build_net(g, delta_param * factor, 0.5, random.Random(k))
        assert res.alpha == 1.5 * delta_param * factor
        verify_net(g, res.points, res.alpha, res.beta)


class TestGreedyNetParity:
    """``greedy_net`` searches radius-balls only, and not at all below the
    lightest edge; a full-Dijkstra greedy must give the same net, down to
    the set's iteration order."""

    @pytest.mark.parametrize("radius_at", ["below-min", "min", "mid", "above-diameter"])
    @pytest.mark.parametrize("family", sorted(PARITY_GRAPHS))
    def test_matches_full_dijkstra_reference(self, family, radius_at):
        g = PARITY_GRAPHS[family]()
        assert g.is_connected() == (family != "disconnected")
        w_min = g.min_weight()
        radius = {
            "below-min": w_min / 2,
            "min": w_min,
            "mid": g.total_weight() / g.m,
            "above-diameter": g.total_weight() + 1.0,
        }[radius_at]
        got, want = greedy_net(g, radius), _reference_greedy_net(g, radius)
        assert got == want
        assert list(got) == list(want)

    @pytest.mark.parametrize("labels", ["ints", "strings"])
    def test_matches_reference_at_every_doubling_scale(self, labels):
        """Every radius εΔ/3 a §7 construction asks for at ε = 0.08; the
        string labels ``v0``… scan in another order than their indices."""
        g = random_geometric_graph(30, seed=9973)
        if labels == "strings":
            g = _string_labelled(g)
        for i in range(-2, 80):
            radius = 0.08 * 1.08 ** i / 3.0
            got, want = greedy_net(g, radius), _reference_greedy_net(g, radius)
            assert list(got) == list(want)


class TestNetInvariant:
    """An iteration that admits no net point raises a typed error, also
    under ``python -O`` (it used to be an ``assert``)."""

    def test_no_joiners_raise(self, monkeypatch):
        monkeypatch.setattr(nets_module, "first_in_ball", lambda le, v, radius: None)
        with pytest.raises(NetInvariantError, match="first in its own ball"):
            build_net(erdos_renyi_graph(30, 0.2, seed=1), 5.0, 0.5, random.Random(0))

    def test_raises_under_python_dash_o(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _NO_JOINERS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "first in its own ball" in proc.stdout
