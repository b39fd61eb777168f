"""Hypothesis properties of §6's greedy nets and §7's doubling spanner
on weights across twelve orders of magnitude.

The graphs are small and connected (one to twelve vertices), with
weights m·2^e for e in a window of [−20, 20]: repeated mantissas make
exact ties and m next to m·(1 + 2^-52) near ties.  On every draw the
greedy net must cover and separate at its radius, and the doubling
spanner must be a spanning subgraph with certified stretch at most
1 + 30ε that equals, edge for edge and in insertion order, the scale
loop that runs a fresh search and walks every net point at every scale
(``tests/test_doubling_spanner.py``) and the scale loop that re-runs
each search past its clip (``tests/test_doubling_resume.py``).  The
one-label search itself must resume to what a fresh search to the same
radius settles, settle every vertex within radius/(1+ε), and report
paths whose true weight is at most the radius.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_net, verify_spanner
from repro.core.nets import greedy_net
from repro.graphs import WeightedGraph, dijkstra
from repro.spt import bounded_approx_spt

from test_doubling_resume import assert_same_as_rerunning
from test_doubling_spanner import assert_same_as_every_exploration

#: repeats make exact ties, m next to m·(1 + 2^-52) near ties
MANTISSAS = (1.0, 1.0 * (1 + 2 ** -52), 1.5, 1.5 * (1 + 2 ** -52), 3.0)


@st.composite
def wide_weight_graphs(draw):
    """A connected graph on 1 to 12 vertices whose weights are m·2^e,
    the exponents drawn from a window of [−20, 20], and a weight from
    the same window (a radius, or a tie with an edge)."""
    n = draw(st.integers(1, 12))
    lo = draw(st.integers(-20, 20))
    weights = st.builds(lambda m, e: m * 2.0 ** e, st.sampled_from(MANTISSAS),
                        st.integers(lo, draw(st.integers(lo, 20))))
    g = WeightedGraph(range(n))
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v, draw(weights))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, draw(weights))
    return g, draw(weights)


def _edge(w):
    g = WeightedGraph()
    g.add_edge(0, 1, w)
    return g


class TestGreedyNet:
    @given(wide_weight_graphs(), st.sampled_from(["drawn", "edge", "zero"]))
    @settings(max_examples=200, deadline=None)
    @example((WeightedGraph([0]), 1.0), "drawn")
    @example((_edge(2.0 ** -20), 2.0 ** -20), "edge")
    def test_covers_and_separates_at_its_radius(self, drawn, which):
        g, r = drawn
        if which == "edge" and g.m:  # a radius equal to an edge weight
            r = sorted(w for _u, _v, w in g.edges())[g.m // 2]
        elif which == "zero":
            r = 0.0
        points = greedy_net(g, r)
        verify_net(g, points, r, r)


class TestDoublingSpanner:
    @given(wide_weight_graphs(), st.sampled_from([0.03, 0.08, 0.12]))
    @settings(max_examples=120, deadline=None)
    @example((WeightedGraph([0]), 1.0), 0.08)
    @example((_edge(3.0 * 2.0 ** 20), 1.0), 0.08)
    def test_greedy_nets(self, drawn, eps):
        self._check(drawn[0], eps, "greedy")

    @given(wide_weight_graphs(), st.sampled_from([0.08, 0.12]))
    @settings(max_examples=30, deadline=None)
    @example((_edge(2.0 ** -20), 1.0), 0.12)
    def test_distributed_nets(self, drawn, eps):
        self._check(drawn[0], eps, "distributed")

    @staticmethod
    def _check(g, eps, net_method):
        res = assert_same_as_every_exploration(g, eps, g.n, net_method)
        assert_same_as_rerunning(g, eps, g.n, net_method)
        assert res.stretch_bound == 1.0 + 30.0 * eps
        verify_spanner(g, res.spanner, res.stretch_bound)


class TestResumableSearch:
    """A net point's search at scale Δ, radius 2Δ, on wide weights."""

    @given(wide_weight_graphs(), st.sampled_from([0.03, 0.08, 0.12]),
           st.integers(-2, 6))
    @settings(max_examples=200, deadline=None)
    @example((_edge(2.0 ** -20), 2.0 ** -21), 0.12, 0)
    def test_resumed_equals_started(self, drawn, eps, steps):
        """Resumed from Δ to Δ·(1+ε)^steps (steps < 0 settles nothing
        more), the search equals the one started at the larger radius."""
        g, delta = drawn
        top = 2.0 * delta * max(1.0, (1.0 + eps) ** steps)
        search = bounded_approx_spt(g, [0], 2.0 * delta, eps)
        search.resume(2.0 * delta * (1.0 + eps) ** steps)
        fresh = bounded_approx_spt(g, [0], top, eps)
        assert (search.dist, search.parent, search.reached) == (
            fresh.dist, fresh.parent, fresh.reached)

    @given(wide_weight_graphs(), st.sampled_from([0.03, 0.08, 0.12]))
    @settings(max_examples=200, deadline=None)
    def test_settles_every_vertex_within_radius_over_one_plus_eps(self, drawn, eps):
        g, delta = drawn
        radius = 2.0 * delta
        settled = set(bounded_approx_spt(g, [0], radius, eps).reached)
        index_of = g.freeze().index_of
        dist, _ = dijkstra(g, 0)
        for v, d in dist.items():
            # a relative 1e-12 for the float sums of rounded weights
            if d <= radius / (1.0 + eps) * (1.0 - 1e-12):
                assert index_of(v) in settled

    @given(wide_weight_graphs(), st.sampled_from([0.03, 0.08, 0.12]))
    @settings(max_examples=200, deadline=None)
    @example((_edge(1.0 * (1 + 2 ** -52)), 0.5), 0.03)
    def test_reported_paths_weigh_at_most_the_radius(self, drawn, eps):
        """A path's true weight is at most its label, the sum of its
        rounded weights, and so at most the radius, up to a relative
        1e-12: ``round_up_weights`` takes the exponent 1e-12 below
        log_{1+ε} w, so a weight within that of a power of 1+ε above it
        rounds to that power (1 + 2^-52 rounds to 1 at ε = 0.03)."""
        g, delta = drawn
        radius = 2.0 * delta
        search = bounded_approx_spt(g, [0], radius, eps)
        verts, parent = g.freeze().verts, search.parent
        slack = 1.0 + 1e-12
        for i in search.reached:
            node, total = i, 0.0
            while parent[node] >= 0:
                total += g.weight(verts[node], verts[parent[node]])
                node = parent[node]
            assert total <= search.dist[i] * slack
            assert total <= radius * slack
