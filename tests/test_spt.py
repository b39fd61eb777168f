"""Tests for the exact and approximate shortest-path trees."""

import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs import (
    CSRGraph,
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
        """``reached`` lists each index with a label once, and every other
        index reads ∞ and parent −2; the sources read parent −1."""
        run = bounded_approx_spt(medium_er, [0, 5, 0], 30.0, 0.2)
        index_of = medium_er.freeze().index_of
        reached = set(run.reached)
        assert len(reached) == len(run.reached) < medium_er.n
        assert reached == {i for i, d in enumerate(run.dist) if d < math.inf}
        for i in range(medium_er.n):
            if i in reached:
                assert run.parent[i] >= -1
            else:
                assert (run.dist[i], run.parent[i]) == (math.inf, -2)
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

    def test_path_weights_are_true_weights(self, small_er):
        run = bounded_approx_spt(small_er, [0], 80.0, 0.3)
        verts = small_er.freeze().verts
        for i in run.reached:
            node, total = i, 0.0
            while run.parent[node] != -1:
                total += small_er.weight(verts[node], verts[run.parent[node]])
                node = run.parent[node]
            assert total == pytest.approx(run.dist[i])


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


def _clip_graph(family, seed, factor):
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


def _reference_bounded_approx_spt(graph, sources, radius, eps):
    """The exploration loop before rows were read in weight order:
    every settled vertex's arcs in slot order, to the end of the row."""
    csr = graph.freeze() if isinstance(graph, WeightedGraph) else graph
    n = csr.n
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    rounded = csr.rounded_weights(eps)
    INF = math.inf
    dist = [INF] * n
    true_dist = [INF] * n
    parent = [-2] * n
    reached = []
    heap = []
    clip = INF
    for s in sources:
        i = csr.index_of(s)
        if parent[i] != -1:
            dist[i] = 0.0
            true_dist[i] = 0.0
            parent[i] = -1
            heap.append((0.0, i))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry
        reached.append(u)
        tu = true_dist[u]
        a, b = indptr[u], indptr[u + 1]
        for v, w, r in zip(indices[a:b], weights[a:b], rounded[a:b]):
            nd = d + r
            if nd < dist[v]:
                nt = tu + w
                if nt <= radius:
                    dist[v] = nd
                    true_dist[v] = nt
                    parent[v] = u
                    push(heap, (nd, v))
                elif nt < clip:
                    clip = nt
    return BoundedSPT(true_dist, parent, reached, clip)


#: the row-cache states every case runs on
_VIEW_STATES = ("fresh", "once", "several", "other-eps")


def _view(g, as_csr, eps, state):
    """A new input over a copy of ``g`` whose rows at ``eps`` are in
    ``state``: untouched, scanned once by one exploration, partly
    sorted by several (some rows sorted, some scanned once or twice,
    some untouched), or sorted at another ε only."""
    if as_csr:
        base = g.freeze()
        graph = CSRGraph(base.indptr, base.indices, base.weights, base.verts)
    else:
        graph = g.copy()
    verts = list(g.vertices())
    if state == "once":
        bounded_approx_spt(graph, verts[:1], math.inf, eps)
    elif state == "several":
        weights = sorted(w for _u, _v, w in g.edges())
        median = weights[len(weights) // 2]
        for s, reach in [(s, 1.5) for s in verts[::8]] + [(s, 1.0) for s in verts[::6]]:
            bounded_approx_spt(graph, [s], reach * median, eps)
    elif state == "other-eps":
        for s in verts[:3]:
            bounded_approx_spt(graph, [s], math.inf, 0.25)
    return graph


def _row_states(graph, eps):
    """How many rows at ``eps`` are untouched, scanned once, scanned
    twice, and sorted."""
    csr = graph.freeze() if isinstance(graph, WeightedGraph) else graph
    scanned, rows = csr.weight_sorted_rows(eps)
    unsorted = [count for count, row in zip(scanned, rows) if row is None]
    return (unsorted.count(0), unsorted.count(1), unsorted.count(2),
            len(rows) - len(unsorted))


def _assert_matches_reference(g, as_csr, sources, radii, eps):
    """Every radius on every row-cache state equals the reference loop."""
    reference_view = g.to_csr()
    for radius in radii:
        want = _reference_bounded_approx_spt(reference_view, sources, radius, eps)
        for state in _VIEW_STATES:
            graph = _view(g, as_csr, eps, state)
            got = bounded_approx_spt(graph, sources, radius, eps)
            assert got == want, (radius, state)


class TestBoundedApproxSPTClip:
    """``clip`` is the smallest true weight the radius test turned away;
    every radius in [radius, clip) repeats the search exactly.  Reading
    each row in ascending weight and stopping at the radius returns what
    the slot-order loop returns, whatever the rows cached on the view at
    that ε: none, scanned once, partly sorted, or sorted at another ε."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    @pytest.mark.parametrize("factor", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize("family", ["er", "geometric", "ties", "two-components"])
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
    @pytest.mark.parametrize("factor", [1.0, 1e-6, 1e6])
    @pytest.mark.parametrize(
        "family", ["er", "geometric", "ties", "ulp-ties", "two-components"]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_the_reference_loop(self, seed, family, factor, frozen):
        g = _clip_graph(family, seed, factor)
        for eps in (0.0, 0.05, 0.5):
            # a radius equal to the true weight of a path a wide search
            # chooses, and one ulp either side of it
            reach = _reference_bounded_approx_spt(g.to_csr(), [0], math.inf, eps)
            w = sorted(reach.dist[i] for i in reach.reached)[len(reach.reached) // 2]
            radii = [0.0, 3.0 * factor, math.inf,
                     math.nextafter(w, 0.0), w, math.nextafter(w, math.inf)]
            for sources in ([0], [0, 0], [0, 17]):
                _assert_matches_reference(g, frozen, sources, radii, eps)

    @pytest.mark.parametrize("frozen", [False, True], ids=["dict", "csr"])
    def test_clip_is_a_turned_away_path_weight(self, frozen):
        """On a path 0 -1- 1 -2- 2 the search from 0 at radius 1.5 turns
        away the relaxation into 2 at true weight 3."""
        g = path_graph(3, weights=[1.0, 2.0])
        graph = g.freeze() if frozen else g
        result = bounded_approx_spt(graph, [0], 1.5, 0.1)
        assert result.reached == [0, 1]
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
        assert sorted(result.reached) == [0, 1, 2]
        assert result.clip == math.inf


class TestWeightOrderedRows:
    """The row cache's states, and the inputs outside the clip grid:
    string labels and a radius at a tied path weight."""

    def test_views_reach_every_row_state(self):
        """The warmed views the cases run on hold what they claim: rows
        in every state, or nothing at that ε."""
        g = _clip_graph("geometric", 2, 1.0)
        for frozen in (False, True):
            assert _row_states(_view(g, frozen, 0.05, "fresh"), 0.05) == (30, 0, 0, 0)
            assert _row_states(_view(g, frozen, 0.05, "once"), 0.05) == (0, 30, 0, 0)
            states = _row_states(_view(g, frozen, 0.05, "several"), 0.05)
            assert all(count > 0 for count in states), states
            other = _view(g, frozen, 0.05, "other-eps")
            assert _row_states(other, 0.05) == (30, 0, 0, 0)
            assert _row_states(other, 0.25) == (0, 0, 0, 30)

    def test_string_labels(self):
        base = _clip_graph("geometric", 1, 1.0)
        # insertion order differs from the labels' sorted order
        g = WeightedGraph("v%02d" % (29 - v) for v in base.vertices())
        for u, v, w in base.edges():
            g.add_edge("v%02d" % (29 - u), "v%02d" % (29 - v), w)
        radii = [0.0, 1.0, 2.5, 6.0, math.inf]
        for frozen in (False, True):
            for sources in (["v29"], ["v29", "v29"], ["v29", "v12"]):
                _assert_matches_reference(g, frozen, sources, radii, 0.05)

    def test_radius_at_a_tied_path_weight(self):
        """Two paths to 3 of true weight exactly 2 and one a ulp above:
        a radius at 2, and one ulp either side of it."""
        up = 1.0 + 2.0 ** -51  # 1.0 + up is the float right above 2.0
        g = WeightedGraph()
        for u, v, w in [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0),
                        (0, 4, 1.0), (4, 3, up), (3, 5, 0.5), (0, 5, 2.5)]:
            g.add_edge(u, v, w)
        radii = [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 2.5]
        for frozen in (False, True):
            for eps in (0.0, 0.05, 0.5):
                _assert_matches_reference(g, frozen, [0], radii, eps)

    def test_row_cache_lives_on_the_view(self):
        """A third exploration at one ε sorts the rows it settles again;
        the cache goes away when the graph mutates."""
        g = path_graph(4, weights=[3.0, 1.0, 2.0])
        csr = g.freeze()
        bounded_approx_spt(g, [0], 3.5, 0.1)  # scans rows 0 and 1
        assert _row_states(csr, 0.1) == (2, 2, 0, 0)
        bounded_approx_spt(g, [1], 1.5, 0.1)  # scans rows 1 and 2
        assert _row_states(csr, 0.1) == (1, 2, 1, 0)
        bounded_approx_spt(g, [1], 1.5, 0.1)  # sorts row 1, scans row 2
        assert _row_states(csr, 0.1) == (1, 1, 1, 1)
        scanned, rows = csr.weight_sorted_rows(0.1)
        assert rows[1] == [(1.0, 2, csr.rounded_weights(0.1)[csr.edge_slot(1, 2)]),
                           (3.0, 0, csr.rounded_weights(0.1)[csr.edge_slot(1, 0)])]
        g.add_edge(0, 3, 1.0)
        assert _row_states(g.freeze(), 0.1) == (4, 0, 0, 0)
        assert g.freeze() is not csr
