"""Property suite for the distance-serving layer (repro.oracle).

The oracle's contract is *exact-on-structure*: for any served structure
H and any pair, the answer equals Dijkstra-on-H to 1e-9 — the paper's
stretch guarantee vs the host graph is inherited from H, so exactness
here is what keeps it valid.  The suite pins that property on every
queryable smoke profile (the same structures the harness serves), plus
the serving mechanics: batch == singles, cache-warm == cache-cold,
pickle round-trips, LRU accounting, k-nearest, and both landmark
strategies.  The exactness, component and disconnection tests build on
every installed kernel, and a numpy build converts the structure's
columns once.
"""

from __future__ import annotations

import pickle
import random
import re

import pytest

from repro.analysis import sample_pairwise_stretch, verify_oracle
from repro.analysis.stretch import max_pairwise_stretch
from repro.analysis.validation import ValidationError
from repro.graphs import WeightedGraph, erdos_renyi_graph, path_graph
from repro.graphs.shortest_paths import dijkstra
from repro.harness.runner import ALGORITHMS, STRUCTURE_EXTRACTORS, queryable_profiles
from repro.kernels import has_numpy
from repro.oracle import STRATEGIES, DistanceOracle, build_oracle
from repro.oracle.landmarks import landmarks_with_potentials

INF = float("inf")

QUERYABLE = queryable_profiles()

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="numpy not installed")

#: the backends an oracle's landmark potentials can be built on
KERNEL_PARAMS = ["python", pytest.param("numpy", marks=needs_numpy)]


def _smoke_structure(profile):
    """Build the profile's smoke-tier structure (what the oracle serves)."""
    graph = profile.build_graph("smoke")
    build, _ = ALGORITHMS[profile.algorithm]
    artifact = build(graph, profile.algo_params("smoke"),
                     random.Random(profile.seed))[0]
    return STRUCTURE_EXTRACTORS[profile.algorithm](artifact)


def _seeded_mix(structure, count, seed):
    """A seeded query mix with deliberate repeats (cache traffic)."""
    verts = list(structure.vertices())
    rng = random.Random(seed)
    hot = [(rng.choice(verts), rng.choice(verts)) for _ in range(10)]
    return [
        hot[rng.randrange(10)] if rng.random() < 0.4
        else (rng.choice(verts), rng.choice(verts))
        for _ in range(count)
    ]


def _exact(structure, pairs):
    by_source = {}
    out = []
    for u, v in pairs:
        if u not in by_source:
            by_source[u] = dijkstra(structure, u)[0]
        out.append(by_source[u].get(v, INF))
    return out


@pytest.mark.parametrize("kernel", KERNEL_PARAMS)
@pytest.mark.parametrize("profile", QUERYABLE, ids=[p.name for p in QUERYABLE])
def test_oracle_exact_on_every_smoke_profile(profile, kernel):
    """Oracle == Dijkstra-on-structure (1e-9) for a seeded query mix,
    batch == singles, cache-warm == cache-cold, pickle preserves answers."""
    structure = _smoke_structure(profile)
    oracle = build_oracle(structure, landmarks=4, seed=profile.seed, kernel=kernel)
    pairs = _seeded_mix(structure, 120, seed=profile.seed + 1)

    cold = oracle.query_many(pairs)
    for got, want in zip(cold, _exact(structure, pairs)):
        assert got == pytest.approx(want, abs=1e-9)

    # cache-warm answers are bit-identical to the cold ones
    warm = oracle.query_many(pairs)
    assert warm == cold
    assert oracle.cache_info()["hits"] >= len(pairs)

    # batch == singles (same scratch arrays, same cache)
    assert [oracle.query(u, v) for u, v in pairs] == cold

    # pickle round-trip preserves every answer (cache starts cold)
    thawed = pickle.loads(pickle.dumps(oracle))
    assert thawed.cache_info()["hits"] == 0
    assert thawed.query_many(pairs) == cold


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_are_exact_and_deterministic(medium_er, strategy):
    a = build_oracle(medium_er, landmarks=6, strategy=strategy, seed=3)
    b = build_oracle(medium_er, landmarks=6, strategy=strategy, seed=3)
    assert a.landmarks == b.landmarks
    pairs = _seeded_mix(medium_er, 80, seed=5)
    assert a.query_many(pairs) == b.query_many(pairs)
    for got, want in zip(a.query_many(pairs), _exact(medium_er, pairs)):
        assert got == pytest.approx(want, abs=1e-9)


def test_degree_strategy_prefers_hubs(star_with_rim):
    csr = star_with_rim.freeze()
    chosen = landmarks_with_potentials(csr, 1, strategy="degree", seed=0)[0]
    hub = max(range(csr.n), key=csr.degree_idx)
    assert chosen == [hub]


@pytest.mark.parametrize("kernel", KERNEL_PARAMS)
def test_far_sampling_covers_components(kernel):
    g = WeightedGraph()
    for base in (0, 100):  # two disjoint 4-paths
        for i in range(3):
            g.add_edge(base + i, base + i + 1, 1.0)
    csr = g.freeze()
    chosen = landmarks_with_potentials(
        csr, 2, strategy="far", seed=1, kernel=kernel
    )[0]
    comps = {c // 100 for c in (csr.verts[i] for i in chosen)}
    assert comps == {0, 1}, "second landmark must land in the other component"


@pytest.mark.parametrize("kernel", KERNEL_PARAMS)
def test_disconnected_pairs_are_inf_and_same_vertex_is_zero(kernel):
    g = WeightedGraph()
    g.add_edge("a", "b", 2.0)
    g.add_edge("c", "d", 3.0)
    oracle = build_oracle(g, landmarks=2, kernel=kernel)
    assert oracle.query("a", "c") == INF
    assert oracle.query("a", "a") == 0.0
    assert oracle.query("a", "b") == 2.0
    assert oracle.query_many([("a", "c"), ("b", "a")]) == [INF, 2.0]


@needs_numpy
def test_numpy_build_converts_the_columns_once(monkeypatch):
    """A far-sampling build over 8 landmarks converts the frozen view's
    columns once and still makes one ``repro.kernels.sssp`` call per
    landmark, each reading the converted columns."""
    from repro import kernels
    from repro.kernels import npkern

    csr = erdos_renyi_graph(60, 0.15, seed=11).freeze()
    conversions, rows = [], []
    real_prepare, real_sssp = npkern.prepare, kernels.sssp

    def prepare(indptr, indices, weights):
        if indices is csr.indices:  # the view's own list, not an array
            conversions.append(indices)
        return real_prepare(indptr, indices, weights)

    def sssp(*args, **kwargs):
        rows.append(args[-1])
        return real_sssp(*args, **kwargs)

    monkeypatch.setattr(npkern, "prepare", prepare)
    monkeypatch.setattr(kernels, "sssp", sssp)
    oracle = DistanceOracle.build(csr, landmarks=8, kernel="numpy")
    assert len(oracle.landmark_indices) == 8
    assert rows == [[i] for i in oracle.landmark_indices]
    assert len(conversions) == 1


def test_k_nearest_matches_sorted_dijkstra(grid):
    oracle = build_oracle(grid, landmarks=4)
    for v in list(grid.vertices())[:6]:
        dist = {u: d for u, d in dijkstra(grid, v)[0].items() if u != v}
        want = sorted(dist.values())[:7]
        got = [d for _, d in oracle.k_nearest(v, 7)]
        assert got == pytest.approx(want, abs=1e-9)
        ranked = oracle.k_nearest(v, 7)
        assert ranked == sorted(ranked, key=lambda vd: vd[1])


def test_k_nearest_truncates_at_component(triangle):
    g = WeightedGraph(["x"])  # isolated vertex alongside the triangle
    for u, v, w in triangle.edges():
        g.add_edge(u, v, w)
    oracle = build_oracle(g, landmarks=2)
    assert oracle.k_nearest("x", 5) == []
    assert len(oracle.k_nearest(0, 99)) == 2


def test_lru_eviction_and_counters(small_er):
    oracle = build_oracle(small_er, landmarks=2, cache_size=4)
    verts = list(small_er.vertices())
    pairs = [(verts[0], verts[i]) for i in range(1, 9)]
    oracle.query_many(pairs)
    info = oracle.cache_info()
    assert info["size"] == 4  # capacity respected
    assert info["misses"] == 8 and info["hits"] == 0
    oracle.query(*pairs[-1])  # most-recent entry is still cached
    assert oracle.cache_info()["hits"] == 1
    oracle.query(*pairs[0])  # oldest entry was evicted
    assert oracle.cache_info()["misses"] == 9
    oracle.reset_cache()
    assert oracle.cache_info() == {
        "hits": 0, "misses": 0, "pinched": 0, "searches": 0,
        "size": 0, "maxsize": 4,
    }


def test_cache_key_is_symmetric(triangle):
    oracle = build_oracle(triangle, landmarks=1)
    d = oracle.query(0, 2)
    assert oracle.query(2, 0) == d
    assert oracle.cache_info()["hits"] == 1


def test_landmark_endpoint_queries_are_pinched(medium_er):
    oracle = build_oracle(medium_er, landmarks=3, strategy="degree", seed=0)
    lm = oracle.landmarks[0]
    other = next(v for v in medium_er.vertices() if v != lm)
    want = dijkstra(medium_er, lm)[0][other]
    assert oracle.query(lm, other) == pytest.approx(want, abs=1e-9)
    assert oracle.cache_info()["pinched"] == 1
    assert oracle.cache_info()["searches"] == 0


def test_error_cases(small_er):
    oracle = build_oracle(small_er, landmarks=2)
    with pytest.raises(ValueError, match="not a vertex"):
        oracle.query("nope", 0)
    with pytest.raises(ValueError, match="not a vertex"):
        oracle.k_nearest("nope", 2)
    with pytest.raises(ValueError, match="k must be"):
        oracle.k_nearest(0, 0)
    with pytest.raises(ValueError, match="strategy"):
        build_oracle(small_er, strategy="nearest")
    with pytest.raises(ValueError, match="count"):
        build_oracle(small_er, landmarks=0)
    with pytest.raises(ValueError, match="cache_size"):
        build_oracle(small_er, cache_size=0)
    with pytest.raises(ValueError, match="empty"):
        build_oracle(WeightedGraph())


@pytest.mark.parametrize("count", [2.5, 2.0])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_non_integer_landmark_count_is_rejected(strategy, count):
    """A float count raises ValueError naming it, whole or not, on both
    strategies and through every entry point: far sampling would
    otherwise never reach a round count of 2.5 and make every vertex a
    landmark."""
    g = erdos_renyi_graph(30, 0.2, seed=1)
    message = f"landmark count must be an integer >= 1, got {count!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        landmarks_with_potentials(g.freeze(), count, strategy=strategy)
    with pytest.raises(ValueError, match="landmark count"):
        DistanceOracle.build(g, landmarks=count, strategy=strategy)
    with pytest.raises(ValueError, match="landmark count"):
        build_oracle(g, landmarks=count, strategy=strategy)


def test_oracle_over_frozen_csr_matches_weighted(small_er):
    a = build_oracle(small_er, landmarks=3, seed=2)
    b = build_oracle(small_er.freeze(), landmarks=3, seed=2)
    pairs = _seeded_mix(small_er, 40, seed=4)
    assert a.query_many(pairs) == b.query_many(pairs)


def test_single_vertex_structure():
    g = WeightedGraph(["only"])
    oracle = build_oracle(g, landmarks=3)
    assert oracle.query("only", "only") == 0.0
    assert oracle.k_nearest("only", 3) == []


# ---------------------------------------------------------------------------
# analysis integration: oracle-served spot-checks
# ---------------------------------------------------------------------------

class TestAnalysisIntegration:
    def test_verify_oracle_accepts_a_correct_oracle(self, medium_er):
        verify_oracle(medium_er, build_oracle(medium_er, landmarks=4), pairs=40)

    def test_verify_oracle_rejects_wrong_structure(self, medium_er):
        # same vertex set, different metric: answers cannot all agree
        other = erdos_renyi_graph(60, 0.15, seed=999)
        with pytest.raises(ValidationError, match="oracle answer"):
            verify_oracle(medium_er, build_oracle(other, landmarks=4), pairs=60)

    def test_verify_oracle_rejects_vertex_set_mismatch(self, medium_er, triangle):
        with pytest.raises(ValidationError, match="vertices"):
            verify_oracle(medium_er, build_oracle(triangle, landmarks=1))

    def test_verify_oracle_accepts_round_off_at_large_weights(self):
        """At ×1e12 the oracle's sums differ from Dijkstra's in the last
        bits, (58, 30) reading ...689.83 against ...689.81; an absolute
        1e-9 rejected that."""
        g = erdos_renyi_graph(60, 0.1, seed=3).reweighted(lambda u, v, w: w * 1e12)
        verify_oracle(g, build_oracle(g))

    def test_verify_oracle_rejects_high_answers_at_small_weights(self):
        """At ×1e-12 every distance is below 1e-9, so an absolute
        tolerance accepted answers that are all 50% high."""

        class Inflated:
            def __init__(self, oracle):
                self.csr = oracle.csr
                self._oracle = oracle

            def query(self, u, v):
                return 1.5 * self._oracle.query(u, v)

        g = erdos_renyi_graph(60, 0.1, seed=3).reweighted(lambda u, v, w: w * 1e-12)
        with pytest.raises(ValidationError, match="oracle answer"):
            verify_oracle(g, Inflated(build_oracle(g)))

    def test_sample_pairwise_stretch_lower_bounds_exact(self, small_er, rng):
        from repro.spanners import baswana_sen_spanner

        spanner = baswana_sen_spanner(small_er, 2, rng)
        sampled = sample_pairwise_stretch(small_er, spanner, pairs=60, seed=1)
        exact = max_pairwise_stretch(small_er, spanner)
        assert 1.0 <= sampled <= exact + 1e-9

    def test_sample_pairwise_stretch_inf_when_spanner_misses_a_vertex(self):
        g = path_graph(6)
        partial = WeightedGraph()
        for u, v, w in list(g.edges())[:3]:  # vertices 4, 5 absent entirely
            partial.add_edge(u, v, w)
        assert sample_pairwise_stretch(g, partial, pairs=40, seed=0) == INF

    def test_sample_pairwise_stretch_inf_on_disconnection(self):
        g = path_graph(6)
        broken = WeightedGraph(g.vertices())
        edges = list(g.edges())
        for u, v, w in edges[:-1]:
            broken.add_edge(u, v, w)
        # enough pairs that some sampled pair crosses the missing edge
        assert sample_pairwise_stretch(g, broken, pairs=80, seed=0) == INF

    def test_sample_pairwise_stretch_reuses_prebuilt_oracles(self, small_er):
        go = build_oracle(small_er, seed=0)
        a = sample_pairwise_stretch(small_er, small_er, pairs=30, seed=0,
                                    graph_oracle=go, spanner_oracle=go)
        assert a == pytest.approx(1.0)
