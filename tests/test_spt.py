"""Tests for the exact and approximate shortest-path trees."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs import (
    WeightedGraph,
    dijkstra,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
)
from repro.kernels import pykern
from repro.spt import (
    approx_spt,
    bkkl_round_cost,
    bounded_approx_spt,
)
from repro.analysis import verify_spanning_tree
from repro.congest import RoundLedger
from repro.core.nets import greedy_net

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
        run = bounded_approx_spt(medium_er, sources, 60.0, 0.25)
        exact, _ = dijkstra(medium_er, sources)
        verts = medium_er.freeze().verts
        for i in run.reached:
            assert run.dist[i] <= 60.0 + 1e-9
            assert run.dist[i] >= exact[verts[i]] - 1e-9

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0])
    def test_reaches_every_vertex_within_radius_over_one_plus_eps(self, medium_er, eps):
        """A vertex at distance d with (1+ε)·d within the radius is reached,
        on a path of weight at most (1+ε)·d: the rounded-shortest path to
        it never fails the true-weight pruning.  §7's explorations rely
        on this to find every net point within 2Δ/(1+ε)."""
        sources, radius = [0, 1, 2], 60.0
        dist = bounded_approx_spt(medium_er, sources, radius, eps).dist
        exact, _ = dijkstra(medium_er, sources)
        index_of = medium_er.freeze().index_of
        near = [v for v, d in exact.items() if (1 + eps) * d <= radius * (1 - 1e-9)]
        assert len(near) > len(sources)
        for v in near:
            assert dist[index_of(v)] <= (1 + eps) * exact[v] * (1 + 1e-9)

    def test_parents_lead_to_a_source(self, medium_er):
        sources = [0, 5]
        run = bounded_approx_spt(medium_er, sources, 100.0, 0.2)
        index_of = medium_er.freeze().index_of
        for i in run.reached:
            node = i
            while run.parent[node] != -1:
                node = run.parent[node]
            assert node in {index_of(s) for s in sources}

    def test_sentinels_mark_the_unreached(self, medium_er):
        """``reached`` lists once each index whose label is at most the
        radius; every other index holds a tentative label above it, or
        ∞ and parent −2 where no path was seen; the sources read parent
        −1."""
        run = bounded_approx_spt(medium_er, [0, 5, 0], 30.0, 0.2)
        index_of = medium_er.freeze().index_of
        reached = set(run.reached)
        assert len(reached) == len(run.reached) < medium_er.n
        assert reached == {i for i, d in enumerate(run.dist) if d <= 30.0}
        assert any(30.0 < d < math.inf for d in run.dist)
        for i in range(medium_er.n):
            if i in reached:
                assert run.parent[i] >= -1
            elif run.dist[i] == math.inf:
                assert run.parent[i] == -2
            else:
                assert run.parent[i] >= 0
        assert {i for i, p in enumerate(run.parent) if p == -1} == {index_of(0), index_of(5)}

    def test_reached_is_the_settle_order(self, small_er):
        """A search settles its vertices in ascending rounded distance, so
        at ε = 0 ``reached`` is sorted by ``dist``."""
        run = bounded_approx_spt(small_er, [0], 80.0, 0.0)
        assert run.reached[0] == small_er.freeze().index_of(0)
        settled = [run.dist[i] for i in run.reached]
        assert settled == sorted(settled)

    def test_everything_reached_with_huge_radius(self, small_er):
        run = bounded_approx_spt(small_er, [0], 1e9, 0.2)
        assert sorted(run.reached) == list(range(small_er.n))

    def test_radius_zero_reaches_only_sources(self, small_er):
        run = bounded_approx_spt(small_er, [0, 3], 0.0, 0.2)
        verts = small_er.freeze().verts
        assert {verts[i] for i in run.reached} == {0, 3}

    def test_path_weights_are_at_most_their_labels(self, small_er):
        """A label is the rounded weight of its path, and a true weight
        is at most its rounded one."""
        run = bounded_approx_spt(small_er, [0], 80.0, 0.3)
        verts = small_er.freeze().verts
        for i in run.reached:
            node, total = i, 0.0
            while run.parent[node] != -1:
                total += small_er.weight(verts[node], verts[run.parent[node]])
                node = run.parent[node]
            assert total <= run.dist[i] <= 80.0


#: a fresh interpreter checks the typed errors; run under ``python -O``
_INVALID_RADIUS_SCRIPT = """\
import sys
from repro.core.nets import greedy_net
from repro.graphs import random_geometric_graph
from repro.spt import bounded_approx_spt

if not sys.flags.optimize:
    sys.exit("expected python -O")
g = random_geometric_graph(12, seed=1)
calls = [
    lambda: bounded_approx_spt(g, [0], float("nan"), 0.1),
    lambda: bounded_approx_spt(g, [0], -1.0, 0.1),
    lambda: bounded_approx_spt(g, [0], 1.0, float("nan")),
    lambda: greedy_net(g, float("nan")),
    lambda: greedy_net(g, -1.0),
]
for call in calls:
    try:
        call()
    except ValueError as exc:
        print("raised:", exc)
    else:
        sys.exit("no ValueError")
"""


class TestInvalidRadiusAndEps:
    """A NaN or negative radius and a NaN ε raise a ``ValueError`` that
    names the parameter, also under ``python -O``.  Before, a NaN radius
    returned the source alone with a finite ``clip``, −1 returned the
    source at distance 0 above the radius, a NaN ε failed converting NaN
    to an integer, and ``greedy_net`` returned all of V on either radius."""

    @pytest.mark.parametrize("radius", [math.nan, -1.0, -math.inf])
    def test_radius(self, radius):
        g = random_geometric_graph(12, seed=1)
        with pytest.raises(ValueError, match="radius must be a number >= 0"):
            bounded_approx_spt(g, [0], radius, 0.1)
        with pytest.raises(ValueError, match="radius must be a number >= 0"):
            greedy_net(g, radius)

    def test_eps(self):
        g = random_geometric_graph(12, seed=1)
        with pytest.raises(ValueError, match="eps must not be NaN"):
            bounded_approx_spt(g, [0], 1.0, math.nan)

    def test_zero_and_infinite_radius_stay_valid(self):
        g = random_geometric_graph(12, seed=1)
        index_of = g.freeze().index_of
        assert bounded_approx_spt(g, [0], 0.0, 0.1).reached == [index_of(0)]
        assert len(bounded_approx_spt(g, [0], math.inf, 0.1).reached) == g.n
        assert greedy_net(g, 0.0) == set(g.vertices())
        assert len(greedy_net(g, math.inf)) == 1

    def test_raises_under_python_dash_o(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _INVALID_RADIUS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split(" must ")[0] for line in lines] == (
            ["raised: radius"] * 2 + ["raised: eps"] + ["raised: radius"] * 2)


def _search_graph(family, seed, factor):
    if family == "er":
        g = erdos_renyi_graph(30, 0.15, seed=seed)
    elif family == "geometric":
        g = random_geometric_graph(30, seed=seed)
    elif family == "ulp-ties":
        # weights 1 and the next float up: ties one ulp apart, and exact
        # ties among the arcs of every row
        up = math.nextafter(1.0, 2.0)
        g = grid_graph(5, 6).reweighted(lambda u, v, w: up if (u + v) % 3 else 1.0)
    elif family == "two-components":
        # vertices 0..14 and 15..29, so the sources 0 and 17 lie in
        # different components
        g = erdos_renyi_graph(15, 0.3, seed=seed)
        for u, v, w in erdos_renyi_graph(15, 0.3, seed=seed + 100).edges():
            g.add_edge(u + 15, v + 15, w)
    else:
        g = grid_graph(5, 6)  # every weight 1: ties everywhere
    return g.reweighted(lambda u, v, w: w * factor)


def _assert_matches_reference(graph, sources, radius, eps):
    """The search equals the reference: :func:`pykern.sssp` over the
    rounded column, capped at ``radius``, which never sets a label above
    its cap.  Same settled set, labels and parents, and ``reached`` in
    ``(label, index)`` order; every other label is above the radius."""
    csr = graph.freeze()
    want_dist, want_parent = pykern.sssp(
        csr.indptr, csr.indices, csr.rounded_weights(eps),
        [csr.index_of(s) for s in sources], radius)
    got = bounded_approx_spt(graph, sources, radius, eps)
    settled = [i for i, p in enumerate(want_parent) if p != pykern.PARENT_UNREACHED]
    assert got.reached == sorted(settled, key=lambda i: (want_dist[i], i))
    for i in range(csr.n):
        if want_parent[i] != pykern.PARENT_UNREACHED:
            assert (got.dist[i], got.parent[i]) == (want_dist[i], want_parent[i])
        else:
            assert got.dist[i] > radius or got.dist[i] == math.inf


_FAMILIES = ["er", "geometric", "ties", "ulp-ties", "two-components"]


class TestOneLabelSearch:
    """The search is Dijkstra over the rounded column, paused once its
    smallest label exceeds the radius: it settles what a capped Dijkstra
    settles, and a search resumed at a larger radius equals, list for
    list, the search started there."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    @pytest.mark.parametrize("factor", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_a_capped_dijkstra(self, seed, family, factor, frozen):
        g = _search_graph(family, seed, factor)
        graph = g.freeze() if frozen else g
        for eps in (0.0, 0.05, 0.5):
            # a radius equal to a label a wide search settles, and one
            # ulp either side of it
            wide = bounded_approx_spt(g, [0], math.inf, eps)
            w = sorted(wide.dist[i] for i in wide.reached)[len(wide.reached) // 2]
            radii = [0.0, 3.0 * factor, math.inf,
                     math.nextafter(w, 0.0), w, math.nextafter(w, math.inf)]
            for sources in ([0], [0, 0], [0, 17]):
                for radius in radii:
                    _assert_matches_reference(graph, sources, radius, eps)

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    @pytest.mark.parametrize("factor", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_resumed_equals_started(self, seed, family, factor, frozen):
        g = _search_graph(family, seed, factor)
        graph = g.freeze() if frozen else g
        for eps in (0.0, 0.05, 0.5):
            for sources in ([0], [0, 17]):
                search = bounded_approx_spt(graph, sources, 0.0, eps)
                top = 0.0
                # a repeated radius, and a smaller one, settle nothing
                for r in (1.0, 1.0, 3.0, 2.0, 40.0, 150.0, math.inf):
                    search.resume(r * factor)
                    top = max(top, r * factor)
                    fresh = bounded_approx_spt(graph, sources, top, eps)
                    assert (search.dist, search.parent, search.reached) == (
                        fresh.dist, fresh.parent, fresh.reached)

    def test_string_labels(self):
        base = _search_graph("geometric", 1, 1.0)
        # insertion order differs from the labels' sorted order
        g = WeightedGraph("v%02d" % (29 - v) for v in base.vertices())
        for u, v, w in base.edges():
            g.add_edge("v%02d" % (29 - u), "v%02d" % (29 - v), w)
        for frozen in (False, True):
            graph = g.freeze() if frozen else g
            for sources in (["v29"], ["v29", "v29"], ["v29", "v12"]):
                for radius in (0.0, 1.0, 2.5, 6.0, math.inf):
                    _assert_matches_reference(graph, sources, radius, 0.05)

    def test_radius_at_a_tied_label(self):
        """Two paths to 3 of weight exactly 2 and one a ulp above: a
        radius at 2, and one ulp either side of it."""
        up = 1.0 + 2.0 ** -51  # 1.0 + up is the float right above 2.0
        g = WeightedGraph()
        for u, v, w in [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0),
                        (0, 4, 1.0), (4, 3, up), (3, 5, 0.5), (0, 5, 2.5)]:
            g.add_edge(u, v, w)
        radii = [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 2.5]
        for eps in (0.0, 0.05, 0.5):
            for radius in radii:
                _assert_matches_reference(g, [0], radius, eps)

    def test_a_path_graph_settles_up_to_the_radius(self):
        """On a path 0 -1- 1 -2- 2 the search from 0 at radius 1.5 settles
        0 and 1 and leaves 2 at a tentative label above it, which a
        resume to that label settles."""
        g = path_graph(3, weights=[1.0, 2.0])
        search = bounded_approx_spt(g, [0], 1.5, 0.1)
        assert search.reached == [0, 1]
        assert search.parent[2] == 1 and search.dist[2] > 1.5
        search.resume(search.dist[2])
        assert search.reached == [0, 1, 2]
