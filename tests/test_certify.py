"""Differential and regression suite for the bounded-radius certification
engine (repro.analysis.certify) and the certifier bugfix sweep.

The anchor is ``_legacy_max_edge_stretch`` — a verbatim copy of the
pre-engine certifier (one full SSSP in H per vertex).  Every exact engine
mode (plain and bounded) must agree with it to 1e-9 on every smoke-tier
spanner profile; sampling must lower-bound it.  A second
anchor, ``_parent_certify_chunk``, is the engine's search loop without
first-witness closing: the parity fuzz requires whole certificates equal
to it, bit for bit.  A property test draws weights over twelve orders
of magnitude, with exact and near ties.  CI's ``certify-smoke`` job runs
this file and ``tests/test_certify_golden.py``, also under ``python -O``.
"""

import contextlib
import dataclasses
import heapq
import inspect
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.certify as certify_engine
import repro.mst.kruskal as kruskal_module
from repro.analysis import (
    certify_edge_stretch,
    max_edge_stretch,
    max_pairwise_stretch,
    root_stretch,
    slt_report,
    spanner_report,
    verify_slt,
    verify_spanner,
)
from repro.analysis.validation import ValidationError
from repro.cli import main
from repro.graphs import (
    WeightedGraph,
    dijkstra,
    erdos_renyi_graph,
    grid_graph,
    hop_distances,
    path_graph,
    random_geometric_graph,
)
from repro.harness import get_profile, run_profile, run_suite
from repro.harness.runner import ALGORITHMS, SPANNER_CERTIFIED_ALGORITHMS
from repro.kernels import pykern
from repro.mst import kruskal_mst
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import DEFAULT_COUNT_BOUNDS, MetricsRegistry
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.greedy import greedy_spanner

INF = float("inf")


def _legacy_max_edge_stretch(graph, spanner):
    """The pre-engine certifier, kept verbatim as the differential anchor."""
    worst = 1.0
    for u in graph.vertices():
        incident = list(graph.neighbor_items(u))
        if not incident:
            continue
        dist, _ = dijkstra(spanner, u)
        for v, w in incident:
            d = dist.get(v, INF)
            if d == INF:
                return INF
            worst = max(worst, d / w)
    return worst


#: smoke-tier profiles whose certification runs the stretch engine, with
#: an extractor from the build artifact to (spanner, stretch bound)
SPANNER_PROFILES = {
    "spanner-er": lambda res, params: (res.spanner, res.stretch_bound),
    "spanner-geometric": lambda res, params: (res.spanner, res.stretch_bound),
    "spanner-power-law": lambda res, params: (res.spanner, res.stretch_bound),
    "doubling-geometric": lambda res, params: (res.spanner, res.stretch_bound),
    "doubling-grid": lambda res, params: (res.spanner, res.stretch_bound),
    "baswana-sen-er": lambda art, params: (art[0], 2 * params["k"] - 1),
    "elkin-neiman-hypercube": lambda art, params: (art[1], 2 * params["k"] - 1),
    "greedy-spanner-er": lambda art, params: (art, 2 * params["k"] - 1),
}


def _smoke_spanner(profile_name):
    """Build the profile's smoke workload and its spanner artifact."""
    profile = get_profile(profile_name)
    build, _ = ALGORITHMS[profile.algorithm]
    params = profile.algo_params("smoke")
    graph = profile.build_graph("smoke")
    built = build(graph, params, random.Random(profile.seed))
    spanner, bound = SPANNER_PROFILES[profile_name](built[0], params)
    return graph, spanner, float(bound)


class TestDifferentialSmokeSuite:
    """Exact vs bounded vs legacy, per smoke-tier profile."""

    def test_extractors_cover_every_spanner_algorithm(self):
        covered = {get_profile(n).algorithm for n in SPANNER_PROFILES}
        assert covered == set(SPANNER_CERTIFIED_ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(SPANNER_PROFILES))
    def test_exact_modes_agree_with_legacy(self, name):
        graph, spanner, bound = _smoke_spanner(name)
        reference = _legacy_max_edge_stretch(graph, spanner)
        exact = certify_edge_stretch(graph, spanner)
        bounded = certify_edge_stretch(graph, spanner, bound=bound)
        assert exact.max_stretch == pytest.approx(reference, abs=1e-9)
        assert bounded.max_stretch == pytest.approx(reference, abs=1e-9)
        assert exact.mode == "exact"
        assert bounded.mode == "bounded"

    @pytest.mark.parametrize("name", sorted(SPANNER_PROFILES))
    def test_sampled_mode_lower_bounds_exact(self, name):
        graph, spanner, _ = _smoke_spanner(name)
        reference = _legacy_max_edge_stretch(graph, spanner)
        full = certify_edge_stretch(graph, spanner, sample=1.0, seed=3)
        half = certify_edge_stretch(graph, spanner, sample=0.5, seed=3)
        assert full.max_stretch == pytest.approx(reference, abs=1e-9)
        assert full.mode == "sampled" and full.sampled_edges == full.edges_checked
        assert half.max_stretch <= reference + 1e-9
        assert half.sampled_edges <= full.sampled_edges

    @pytest.mark.parametrize("name", sorted(SPANNER_PROFILES))
    def test_accounting_is_consistent(self, name):
        graph, spanner, bound = _smoke_spanner(name)
        cert = certify_edge_stretch(graph, spanner, bound=bound)
        assert cert.edges_total == graph.m
        assert cert.edges_in_spanner + cert.edges_checked <= cert.edges_total
        assert cert.ok is (cert.max_stretch <= bound + 1e-9)
        as_json = json.dumps(cert.to_dict())
        assert json.loads(as_json)["mode"] == "bounded"


class TestEngineEdgeCases:
    def test_lifted_radius_agrees_on_adversarial_spanner(self):
        # the MST maximises the per-source work list, and at bound 2.0
        # many of its searches cross the radius
        g = erdos_renyi_graph(120, 0.1, seed=4)
        mst = kruskal_mst(g)
        reference = _legacy_max_edge_stretch(g, mst)
        cert = certify_edge_stretch(g, mst, bound=2.0)
        assert cert.max_stretch == pytest.approx(reference, abs=1e-9)
        assert cert.fallbacks > 0  # the radius truncation fired and was lifted

    def test_fail_fast_detects_violation_without_exact_value(self):
        g = erdos_renyi_graph(60, 0.2, seed=1)
        mst = kruskal_mst(g)
        exact = certify_edge_stretch(g, mst).max_stretch
        assert exact > 1.5
        cert = certify_edge_stretch(g, mst, bound=1.5, fail_fast=True)
        assert cert.bound_exceeded and not cert.ok
        assert cert.max_stretch == INF

    def test_fail_fast_passes_valid_spanner(self):
        g = erdos_renyi_graph(60, 0.2, seed=1)
        cert = certify_edge_stretch(g, g, bound=1.0, fail_fast=True)
        assert cert.ok and not cert.bound_exceeded
        assert cert.max_stretch == 1.0
        assert cert.edges_in_spanner == g.m  # everything short-circuits

    def test_identity_spanner_short_circuits_every_source(self):
        g = erdos_renyi_graph(40, 0.2, seed=9)
        cert = certify_edge_stretch(g, g)
        assert cert.max_stretch == 1.0
        assert cert.sources_explored == 0
        assert cert.edges_checked == 0 and cert.edges_resolved == 0

    def test_spanner_missing_vertices_is_infinite(self):
        g = path_graph(4)
        h = WeightedGraph([0, 1])  # vertices 2, 3 missing entirely
        h.add_edge(0, 1, 1.0)
        assert certify_edge_stretch(g, h).max_stretch == INF
        assert _legacy_max_edge_stretch(g, h) == INF

    def test_parameter_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="sample"):
            certify_edge_stretch(g, g, sample=0.0)
        with pytest.raises(ValueError, match="sample"):
            certify_edge_stretch(g, g, sample=1.5)
        with pytest.raises(ValueError, match="fail_fast"):
            certify_edge_stretch(g, g, fail_fast=True)

    def test_sampling_is_seed_deterministic(self):
        g = erdos_renyi_graph(80, 0.15, seed=2)
        mst = kruskal_mst(g)
        a = certify_edge_stretch(g, mst, sample=0.3, seed=5)
        b = certify_edge_stretch(g, mst, sample=0.3, seed=5)
        c = certify_edge_stretch(g, mst, sample=0.3, seed=6)
        assert a.max_stretch == b.max_stretch
        assert a.sampled_edges == b.sampled_edges
        assert (c.sampled_edges, c.max_stretch) != (a.sampled_edges, a.max_stretch)


def _parent_certify_chunk(hcsr, work, lo, hi, bound, fail_fast):
    """The engine's search loop as it was before targets closed at their
    first witness path, kept verbatim as the parity reference: every
    target is settled (popped) before a search stops."""
    chunk_metrics = MetricsRegistry()
    targets_hist = chunk_metrics.histogram(
        "certify.source.targets", DEFAULT_COUNT_BOUNDS
    )
    n = hcsr.n
    indptr, indices, weights = hcsr.indptr, hcsr.indices, hcsr.weights
    dist = [0.0] * n
    stamp = [0] * n  # dist[v] is live iff stamp[v] == version
    done = [0] * n  # v is settled iff done[v] == version
    is_target = [0] * n  # v is an unsettled target iff is_target[v] == version
    version = 0
    worst = 1.0
    fallbacks = 0
    push, pop = heapq.heappush, heapq.heappop
    for src, targets in work[lo:hi]:
        targets_hist.observe(len(targets))
        version += 1
        # the + 1e-9 mirrors the verifiers' ratio tolerance: a crossing
        # proves ratio > bound + 1e-9 for every unsettled target's edge
        cap = (
            (bound + 1e-9) * max(w for _, w in targets)
            if bound is not None else INF
        )
        remaining = 0
        for vh, _ in targets:
            if is_target[vh] != version:
                is_target[vh] = version
                remaining += 1
        stamp[src] = version
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap and remaining:
            d, u = pop(heap)
            if done[u] == version or d > dist[u]:
                continue
            if d > cap:
                # every unsettled target is beyond bound · max_incident_w:
                # the certificate is already violated for its edge
                if fail_fast:
                    return INF, fallbacks, True, chunk_metrics.snapshot()
                fallbacks += 1
                cap = INF  # lift the radius and keep draining the same heap
            done[u] = version
            if is_target[u] == version:
                is_target[u] = 0
                remaining -= 1
                if not remaining:
                    break
            a, b = indptr[u], indptr[u + 1]
            for s in range(a, b):
                v = indices[s]
                nd = d + weights[s]
                if stamp[v] != version or nd < dist[v]:
                    stamp[v] = version
                    dist[v] = nd
                    push(heap, (nd, v))
        for vh, w in targets:
            if done[vh] != version:
                # unreachable in H
                return INF, fallbacks, False, chunk_metrics.snapshot()
            ratio = dist[vh] / w
            if ratio > worst:
                worst = ratio
    return worst, fallbacks, False, chunk_metrics.snapshot()


@contextlib.contextmanager
def _parent_engine():
    """Run :func:`certify_edge_stretch` on the reference search loop."""

    def chunk(hcsr, work, bound, fail_fast):
        worst, fallbacks, exceeded, _snap = _parent_certify_chunk(
            hcsr, work, 0, len(work), bound, fail_fast)
        return worst, fallbacks, 0, exceeded

    with mock.patch.object(certify_engine, "_certify_chunk", chunk):
        yield


def _parity_failure(graph, spanner, **kwargs):
    """Why the engine's certificate differs from the reference's, or None.

    Every field must be equal, ``max_stretch`` bit for bit, except
    ``fallbacks`` (may only be lower) and ``edges_resolved`` (the
    reference closes no target early)."""
    got = certify_edge_stretch(graph, spanner, **kwargs)
    with _parent_engine():
        want = certify_edge_stretch(graph, spanner, **kwargs)
    if got.max_stretch.hex() != want.max_stretch.hex():
        return f"max_stretch {got.max_stretch!r} != {want.max_stretch!r}"
    if got.fallbacks > want.fallbacks:
        return f"fallbacks {got.fallbacks} > {want.fallbacks}"
    if not 0 <= got.edges_resolved <= got.edges_checked:
        return f"edges_resolved {got.edges_resolved} of {got.edges_checked}"
    same = dataclasses.replace(
        got, fallbacks=want.fallbacks, edges_resolved=want.edges_resolved)
    if same != want:
        return f"{got} != {want}"
    return None


def _fuzz_graph(family, seed):
    if family == "er":
        return erdos_renyi_graph(60, 0.15, seed=seed)
    if family == "geometric":
        return random_geometric_graph(50, seed=seed)
    # seed 1 keeps every weight equal: ties everywhere
    return grid_graph(7, 7, seed=seed, jitter=0.0 if seed == 1 else 1.0)


def _fuzz_structures(graph, seed):
    """name -> (spanner, the stretch it promises)."""
    rng = random.Random(seed)
    kept = [(u, v) for u, v, _w in sorted(graph.edges()) if rng.random() < 0.6]
    structures = {
        f"baswana-sen-k{k}": (baswana_sen_spanner(graph, k, random.Random(seed)),
                              2.0 * k - 1.0)
        for k in (2, 3, 4)
    }
    structures["greedy"] = (greedy_spanner(graph, 3.0), 3.0)
    structures["mst"] = (kruskal_mst(graph), float(graph.n - 1))
    structures["subgraph60"] = (graph.edge_subgraph(kept), 10.0)
    return structures


class TestParentLoopParity:
    """The first-witness rule against a verbatim copy of the loop without
    it: ER, geometric and grid graphs × six structures × every mode ×
    three weight scales."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("family", ["er", "geometric", "grid"])
    def test_certificates_equal_the_reference(self, family, seed):
        graph = _fuzz_graph(family, seed)
        failures, cases = [], 0
        for name, (spanner, promise) in _fuzz_structures(graph, seed).items():
            exact = certify_edge_stretch(graph, spanner).max_stretch
            met = exact if exact < INF else promise
            violated = met / 1.5  # below 1.0 when the spanner is exact
            modes = {
                "exact": {},
                "bounded": {"bound": promise},
                "bounded-violated": {"bound": violated},
                "fail-fast-met": {"bound": met, "fail_fast": True},
                "fail-fast-violated": {"bound": violated, "fail_fast": True},
            }
            for scale in (1.0, 1e-6, 1e6):
                g, h = (x.reweighted(lambda u, v, w: w * scale)
                        for x in (graph, spanner))
                for mode, kwargs in modes.items():
                    cases += 1
                    failure = _parity_failure(g, h, **kwargs)
                    if failure:
                        failures.append(f"{name} {mode} ×{scale}: {failure}")
        assert cases == 6 * 15
        assert not failures, "\n".join(failures)

    def test_reference_engine_closes_nothing(self):
        # the fuzz compares two different loops
        g = erdos_renyi_graph(60, 0.15, seed=1)
        h = baswana_sen_spanner(g, 3, random.Random(1))
        assert certify_edge_stretch(g, h).edges_resolved > 0
        with _parent_engine():
            ref = certify_edge_stretch(g, h)
        assert ref.edges_checked > 0 and ref.edges_resolved == 0


#: mantissas of the wide-weight graphs: repeats make exact ties, and m
#: next to m·(1 + 2^-52) makes near ties
MANTISSAS = (1.0, 1.0 * (1 + 2 ** -52), 1.5, 1.5 * (1 + 2 ** -52), 3.0)


@st.composite
def wide_weight_graphs(draw):
    """A connected graph with weights m·2^e, and a seed for the
    structures built on it.  Each graph draws its exponents from a window
    of [−20, 20] (twelve orders of magnitude): a wide window makes most
    detours far lighter than the edge they replace, a narrow one makes
    stretch above 1."""
    n = draw(st.integers(2, 14))
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
    return g, draw(st.integers(0, 2 ** 16))


class TestWideWeights:
    """Every mode against the legacy certifier on weights from 2^-20 to
    3·2^20: seeded Baswana–Sen (k = 2, 3) and a seeded spanning
    subgraph (the MST plus a random half of the other edges)."""

    @given(wide_weight_graphs())
    @settings(max_examples=100, deadline=None)
    def test_modes_agree_with_legacy(self, drawn):
        graph, seed = drawn
        rng = random.Random(seed)
        tree = kruskal_mst(graph)
        kept = [(u, v) for u, v, _w in sorted(graph.edges())
                if tree.has_edge(u, v) or rng.random() < 0.5]
        structures = [(baswana_sen_spanner(graph, k, random.Random(seed)),
                       2.0 * k - 1.0) for k in (2, 3)]
        structures.append((graph.edge_subgraph(kept), float(graph.n - 1)))
        for spanner, promise in structures:
            reference = _legacy_max_edge_stretch(graph, spanner)
            # bounded at the promise and at a violated bound, which
            # lifts the radius and keeps searching
            for kwargs in ({}, {"bound": promise}, {"bound": reference / 1.5}):
                cert = certify_edge_stretch(graph, spanner, **kwargs)
                assert cert.max_stretch == pytest.approx(reference, rel=1e-9)
            for bound in (reference * 1.5, reference / 1.5):
                cert = certify_edge_stretch(graph, spanner, bound=bound,
                                            fail_fast=True)
                assert cert.ok is (reference <= bound + 1e-9)


class TestResolvedTargets:
    """``edges_resolved``: checked targets closed at their first witness
    path, before the search settled them."""

    @staticmethod
    def _input():
        g = erdos_renyi_graph(120, 0.2, seed=3)
        return g, baswana_sen_spanner(g, 3, random.Random(3))

    def test_most_targets_close_before_settling(self):
        g, h = self._input()
        cert = certify_edge_stretch(g, h, bound=5.0)
        assert cert.edges_checked / 2 < cert.edges_resolved <= cert.edges_checked
        assert cert.to_dict()["edges_resolved"] == cert.edges_resolved

    def test_counter_matches_the_certificate(self):
        g, h = self._input()
        obs_metrics.reset()
        cert = certify_edge_stretch(g, h, bound=5.0)
        counter = obs_metrics.registry().counter("certify.edges.resolved")
        assert counter.value == cert.edges_resolved > 0


class TestLookAhead:
    """A target closes when a relaxation labels one of its H-neighbours,
    once a search of the same chunk has closed a target."""

    @staticmethod
    def _input(arming_first):
        """G and H on ten vertices.  The only H witness for the checked
        edge {u, t} (weight 3) is u–a–b–t with unit edges, and two decoy
        branches hang off u.  The arming source s has the checked edge
        {s, q} (weight 3) and the H path s–p–q; ``arming_first`` puts it
        before u in the work list (sources are the smaller endpoints)."""
        names = (["s", "p", "q", "u", "a", "b", "t", "d1", "d2", "d3"]
                 if arming_first else
                 ["u", "a", "b", "t", "d1", "d2", "d3", "s", "p", "q"])
        ids = {name: i for i, name in enumerate(names)}
        h = WeightedGraph(range(len(names)))
        for x, y, w in [("s", "p", 1.0), ("p", "q", 1.0),
                        ("u", "a", 1.0), ("a", "b", 1.0), ("b", "t", 1.0),
                        ("u", "d1", 0.5), ("d1", "d2", 0.25),
                        ("u", "d3", 0.25)]:
            h.add_edge(ids[x], ids[y], w)
        g = h.copy()
        g.add_edge(ids["s"], ids["q"], 3.0)
        g.add_edge(ids["u"], ids["t"], 3.0)
        return g, h, ids

    @staticmethod
    def _searches(g, h):
        """The certificate and the vertices each search popped, in order."""
        popped = []

        def heappop(heap):
            item = heapq.heappop(heap)
            popped.append(item)
            return item

        shim = types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)
        with mock.patch.object(certify_engine, "heapq", shim):
            cert = certify_edge_stretch(g, h)
        verts = h.freeze().verts
        searches = []
        for d, i in popped:
            if d == 0.0:  # only a source has label 0: a new search
                searches.append([])
            searches[-1].append(verts[i])
        return cert, searches

    def test_armed_search_closes_the_target_one_hop_early(self):
        g, h, ids = self._input(arming_first=True)
        cert, searches = self._searches(g, h)
        assert cert.max_stretch == 1.0
        assert cert.edges_checked == cert.edges_resolved == 2
        assert [search[0] for search in searches] == [ids["s"], ids["u"]]
        # u's search closes t when a's pop labels b: b is never popped,
        # where closing at t itself has to pop b to relax (b, t)
        u_search = searches[1]
        assert ids["a"] in u_search and ids["b"] not in u_search

    def test_chunk_arms_after_its_first_closing(self):
        g, h, ids = self._input(arming_first=False)
        cert, searches = self._searches(g, h)
        assert cert.max_stretch == 1.0
        assert cert.edges_checked == cert.edges_resolved == 2
        assert [search[0] for search in searches] == [ids["u"], ids["s"]]
        # nothing has closed before u's search, so it closes t at t
        assert ids["b"] in searches[0]


class TestDisconnectedContract:
    """All isolated-component behaviours pinned in one place."""

    @staticmethod
    def _two_triangles():
        g = WeightedGraph(range(6))
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            g.add_edge(a, b, 1.0 if a < 3 else 2.0)
        return g

    def test_component_preserving_spanner_is_finite(self):
        g = self._two_triangles()
        g.add_vertex(6)  # isolated vertex: no constraint at all
        h = g.copy()
        h.remove_edge(0, 2)  # detour 0-1-2 exists inside the component
        assert max_edge_stretch(g, h) == pytest.approx(2.0)
        assert certify_edge_stretch(g, h, bound=3.0).max_stretch == pytest.approx(2.0)
        assert max_pairwise_stretch(g, h) == pytest.approx(2.0)

    def test_component_breaking_spanner_is_infinite_for_all_three(self):
        g = self._two_triangles()
        h = g.copy()
        h.remove_edge(3, 4)
        h.remove_edge(3, 5)  # vertex 3 cut off from its own component
        assert max_edge_stretch(g, h) == INF
        assert max_pairwise_stretch(g, h) == INF
        for kwargs in ({}, {"bound": 9.0}, {"sample": 1.0}):
            assert certify_edge_stretch(g, h, **kwargs).max_stretch == INF

    def test_root_stretch_infinite_when_tree_misses_component(self):
        g = path_graph(3)
        t = WeightedGraph(range(3))
        t.add_edge(0, 1, 1.0)
        assert root_stretch(g, t, 0) == INF


class TestRootStretchExact:
    def test_matches_tree_path_sums(self):
        g = erdos_renyi_graph(50, 0.2, seed=8)
        mst = kruskal_mst(g)
        # d_T(0, v) summed along the tree's unique paths
        tree_dist = {0: 0.0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, w in mst.neighbor_items(u):
                if v not in tree_dist:
                    tree_dist[v] = tree_dist[u] + w
                    stack.append(v)
        graph_dist, _ = dijkstra(g, 0)
        expected = max(tree_dist[v] / d for v, d in graph_dist.items() if v != 0)
        assert expected > 1.0
        assert root_stretch(g, mst, 0) == pytest.approx(expected)


class TestVerifierFixes:
    def test_verify_spanner_bounded_rejection_and_pass(self):
        g = erdos_renyi_graph(40, 0.3, seed=12)
        mst = kruskal_mst(g)
        exact = max_edge_stretch(g, mst)
        with pytest.raises(ValidationError, match="stretch violated"):
            verify_spanner(g, mst, exact / 2.0)
        verify_spanner(g, mst, exact)  # exactly the measured value passes

    def test_verify_slt_zero_weight_mst_no_zero_division(self):
        # a single-vertex graph has a zero-weight MST; the old code divided
        # by it and raised ZeroDivisionError instead of validating
        g = WeightedGraph([0])
        t = WeightedGraph([0])
        verify_slt(g, t, 0, alpha=2.0, beta=5.0)  # lightness 0/0 -> 1.0

    def test_verify_slt_reads_the_cached_mst(self, monkeypatch):
        g = WeightedGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 5.0)
        mst = kruskal_mst(g)  # the two unit edges, weight 2
        # the tree is now cached on g's frozen view: no Kruskal runs again
        monkeypatch.setattr(kruskal_module, "_kruskal_edges", mock.Mock(
            side_effect=AssertionError("Kruskal ran although the MST was cached")))
        verify_slt(g, mst, 0, alpha=1e9, beta=1.0)
        heavy = g.edge_subgraph([(0, 1), (0, 2)])  # weight 6, lightness 3
        with pytest.raises(ValidationError, match="lightness"):
            verify_slt(g, heavy, 0, alpha=1e9, beta=1.0)


class TestDijkstraRegressions:
    def test_empty_sources_raise(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="at least one source"):
            dijkstra(g, [])
        with pytest.raises(ValueError, match="at least one source"):
            dijkstra(g.freeze(), iter(()))

    def test_non_vertex_string_source_raises(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="not a vertex"):
            dijkstra(g, "abc")
        # any other non-vertex source, alone or among vertices, is named
        t = kruskal_mst(g)
        for call in (
            lambda: dijkstra(g, 99),
            lambda: dijkstra(g, [0, 99]),
            lambda: hop_distances(g, 99),
            lambda: root_stretch(g, t, 99),
            lambda: slt_report(g, t, 99),
        ):
            with pytest.raises(ValueError, match="source 99 is not a vertex"):
                call()

    def test_string_vertices_still_work(self):
        g = WeightedGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 2.0)
        dist, _ = dijkstra(g, "a")
        assert dist == {"a": 0.0, "b": 1.0, "c": 3.0}
        dist, _ = dijkstra(g, ["a", "c"])  # iterables of strings stay legal
        assert dist["b"] == 1.0

    def test_capped_sssp_multi_source(self):
        csr = path_graph(9).freeze()
        dist, _ = pykern.sssp(csr.indptr, csr.indices, csr.weights,
                              [csr.index_of(0), csr.index_of(8)], 2.0)
        ball = {csr.verts[i]: d for i, d in enumerate(dist) if d < INF}
        assert set(ball) == {0, 1, 2, 6, 7, 8}
        assert ball[2] == 2.0 and ball[6] == 2.0


class TestHarnessCertification:
    def test_record_carries_certification_block(self):
        record = run_profile(get_profile("spanner-er"), "smoke",
                             measure_memory=False)
        assert record.certification is not None
        assert record.certification["mode"] == "bounded"
        assert sorted(record.certification) == [
            "bound", "edges_checked", "edges_in_spanner", "edges_resolved",
            "edges_total", "fallbacks", "mode", "sample", "sampled_edges",
            "sources_explored", "sources_short_circuited"]
        round_trip = type(record).from_dict(record.to_dict())
        assert round_trip.certification == record.certification

    def test_sampled_run_records_sampled_edges(self):
        record = run_profile(get_profile("baswana-sen-er"), "smoke",
                             measure_memory=False, certify_sample=0.5)
        assert record.certification["mode"] == "sampled"
        assert record.certification["sampled_edges"] is not None
        assert record.params["certify_sample"] == 0.5

    def test_congest_profiles_have_no_certification_block(self):
        profile = get_profile("congest-bfs-grid")
        record = run_profile(profile, "smoke", measure_memory=False,
                             certify_sample=0.5)
        assert record.certification is None
        assert record.params == profile.algo_params("smoke")

    def test_schema_v2_record_loads_without_certification(self):
        record = run_profile(get_profile("spanner-er"), "smoke",
                             measure_memory=False)
        data = record.to_dict()
        del data["certification"]  # a schema-v2 document lacks the block
        assert type(record).from_dict(data).certification is None

    def test_run_profile_validates_certify_params(self):
        profile = get_profile("spanner-er")
        with pytest.raises(ValueError, match="certify_sample"):
            run_profile(profile, "smoke", certify_sample=2.0)


class TestOneProcess:
    """Certification runs in the calling process: the library starts no
    process pool for it, and only the serving daemon imports
    :mod:`multiprocessing`."""

    def test_import_repro_loads_no_multiprocessing(self):
        src = Path(certify_engine.__file__).resolve().parents[2]
        probe = "import sys, repro; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_bench_rejects_certify_workers(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--list", "--certify-workers", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("fn, keyword", [
        (certify_edge_stretch, "workers"),
        (verify_spanner, "workers"),
        (spanner_report, "certify_workers"),
        (run_profile, "certify_workers"),
        (run_suite, "certify_workers"),
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_api_takes_no_worker_count(self, fn, keyword):
        # every layer that passed the pool's size down has lost it
        with pytest.raises(TypeError, match=keyword):
            inspect.signature(fn).bind_partial(**{keyword: 2})
