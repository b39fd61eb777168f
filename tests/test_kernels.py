"""Kernel parity & dispatch suite (repro.kernels).

The layer's contract is *parity*: the numpy frontier-relaxation kernel
and the pure-Python heap Dijkstra agree on distances to 1e-9 on every
workload — same graphs, same sources, same caps.  Parents may differ on
equal-length ties, but every parent chain must witness a shortest path.
The suite fuzzes that contract over every smoke-tier harness profile
plus the adversarial shapes vectorized relaxation gets wrong first
(zero-weight edges, disconnected components, isolated vertices,
duplicate sources), and then checks the kernel= plumbing end to end:
dijkstra, stretch certification, the oracle, and the harness profile.

numpy-side tests skip cleanly when numpy is absent — the no-numpy CI
leg runs exactly the python half of this file.
"""

from __future__ import annotations

import math

import pytest

from repro.graphs import WeightedGraph, erdos_renyi_graph, ring_chords_graph
from repro.graphs.shortest_paths import dijkstra
from repro.harness import all_profiles, get_profile, run_profile
from repro.kernels import (
    KERNELS,
    has_numpy,
    pykern,
    resolve_kernel,
    residual,
    sssp,
    sssp_matrix,
)

INF = float("inf")

needs_numpy = pytest.mark.skipif(not has_numpy(), reason="numpy not installed")


def _csr_columns(graph: WeightedGraph):
    csr = graph.freeze()
    return csr.indptr, csr.indices, csr.weights


def _raw_csr(n, edges):
    """Build raw CSR columns directly — unlike WeightedGraph.add_edge,
    this accepts zero-weight edges and isolated vertices."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    indptr, indices, weights = [0], [], []
    for u in range(n):
        for v, w in sorted(adj[u]):
            indices.append(v)
            weights.append(w)
        indptr.append(len(indices))
    return indptr, indices, weights


#: zero-weight chain 0-1-2 + weighted tail, a second component, three
#: isolated vertices — every adversarial shape in one graph
ADVERSARIAL = _raw_csr(10, [
    (0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.5), (4, 5, 2.0), (5, 6, 0.0),
])


def _assert_rows_equal(row_a, row_b, tol=1e-9):
    assert len(row_a) == len(row_b)
    for v, (a, b) in enumerate(zip(row_a, row_b)):
        if math.isinf(a) or math.isinf(b):
            assert math.isinf(a) and math.isinf(b), f"vertex {v}: {a} vs {b}"
        else:
            assert abs(a - b) <= tol, f"vertex {v}: {a} vs {b}"


def _assert_parents_witness(indptr, indices, weights, sources, dist, parent):
    """Parents may differ between kernels, but each must witness the
    distances: dist[v] == dist[parent[v]] + w(parent[v], v)."""
    for v, p in enumerate(parent):
        if p == -2:
            assert math.isinf(dist[v])
        elif p == -1:
            assert v in sources and dist[v] == 0.0
        else:
            arc = [
                weights[s]
                for s in range(indptr[p], indptr[p + 1])
                if indices[s] == v
            ]
            assert arc, f"parent {p} of {v} is not a neighbour"
            assert abs(dist[v] - (dist[p] + min(arc))) <= 1e-9


# ---------------------------------------------------------------- dispatch

def test_resolve_python_always_available():
    assert resolve_kernel("python") == "python"
    assert "python" in KERNELS and "numpy" in KERNELS


def test_resolve_auto_matches_availability():
    assert resolve_kernel("auto") == ("numpy" if has_numpy() else "python")


def test_resolve_unknown_kernel_raises():
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("fortran")


def test_resolve_numpy_without_numpy_raises():
    if has_numpy():
        assert resolve_kernel("numpy") == "numpy"
    else:
        with pytest.raises(RuntimeError, match="numpy is not installed"):
            resolve_kernel("numpy")


def test_sssp_rejects_unknown_kernel():
    ip, idx, w = ADVERSARIAL
    with pytest.raises(ValueError, match="unknown kernel"):
        sssp(ip, idx, w, [0], kernel="fortran")


# ------------------------------------------------------- python kernel alone

def test_python_kernel_adversarial_shapes():
    ip, idx, w = ADVERSARIAL
    dist, parent = sssp(ip, idx, w, [0])
    assert dist[0] == dist[1] == dist[2] == 0.0  # zero-weight chain
    assert dist[3] == 1.5
    assert all(math.isinf(dist[v]) for v in (4, 5, 6, 7, 8, 9))
    _assert_parents_witness(ip, idx, w, {0}, dist, parent)
    assert residual(ip, idx, w, dist) == (0.0, 0)


def test_python_kernel_duplicate_sources():
    ip, idx, w = ADVERSARIAL
    single, _ = sssp(ip, idx, w, [4])
    doubled, _ = sssp(ip, idx, w, [4, 4, 4])
    _assert_rows_equal(single, doubled)


def test_python_kernel_cap_contract():
    g = erdos_renyi_graph(60, 0.08, seed=3)
    ip, idx, w = _csr_columns(g)
    exact, _ = sssp(ip, idx, w, [0])
    cap = sorted(d for d in exact if not math.isinf(d))[len(exact) // 3]
    capped, _ = sssp(ip, idx, w, [0], cap=cap)
    for v, d in enumerate(exact):
        if d <= cap:
            assert abs(capped[v] - d) <= 1e-9  # within cap: exact
        else:
            assert capped[v] >= d - 1e-9  # beyond: upper bound or inf


def test_residual_detects_perturbation():
    g = erdos_renyi_graph(50, 0.1, seed=1)
    ip, idx, w = _csr_columns(g)
    dist, _ = sssp(ip, idx, w, [0])
    worst0, unsettled0 = residual(ip, idx, w, dist)
    assert worst0 <= 1e-12 and unsettled0 == 0
    finite = [v for v, d in enumerate(dist) if not math.isinf(d) and d > 0]
    dist[finite[-1]] += 5.0
    worst, _ = residual(ip, idx, w, dist)
    assert worst > 4.9


# ----------------------------------------------------------- numpy parity

@needs_numpy
def test_parity_every_smoke_profile():
    """Distances agree to 1e-9 on every smoke-tier harness workload."""
    seen = set()
    for profile in all_profiles():
        key = (profile.family, tuple(sorted(profile.graph_params("smoke").items())))
        if key in seen:
            continue
        seen.add(key)
        ip, idx, w = _csr_columns(profile.build_graph("smoke"))
        n = len(ip) - 1
        sources = [0, n // 2, n - 1]
        py = pykern.sssp_matrix(ip, idx, w, sources)
        np_rows = sssp_matrix(ip, idx, w, sources, kernel="numpy")
        for a, b in zip(py, np_rows):
            _assert_rows_equal(a, list(b))


@needs_numpy
def test_parity_adversarial_shapes():
    ip, idx, w = ADVERSARIAL
    for sources in ([0], [4], [9], [0, 0, 4], [0, 4, 9]):
        py_d, _ = pykern.sssp(ip, idx, w, sources)
        np_d, np_p = sssp(ip, idx, w, sources, kernel="numpy")
        _assert_rows_equal(py_d, np_d)
        _assert_parents_witness(ip, idx, w, set(sources), np_d, np_p)


@needs_numpy
def test_parity_with_caps():
    g = erdos_renyi_graph(70, 0.07, seed=5)
    ip, idx, w = _csr_columns(g)
    exact = pykern.sssp_matrix(ip, idx, w, [0, 1, 2, 3])
    caps = [None, 4.0, None, 2.0]
    np_rows = sssp_matrix(ip, idx, w, [0, 1, 2, 3], caps=caps, kernel="numpy")
    for row, cap, np_row in zip(exact, caps, np_rows):
        for v, d in enumerate(row):
            if cap is None or d <= cap:
                if math.isinf(d):
                    assert math.isinf(np_row[v])
                else:
                    assert abs(np_row[v] - d) <= 1e-9
            else:
                assert np_row[v] >= d - 1e-9


@needs_numpy
def test_parity_residual():
    g = ring_chords_graph(400, chords=3, seed=2)
    ip, idx, w = _csr_columns(g)
    row = pykern.sssp(ip, idx, w, [7])[0]
    py_res = pykern.residual(ip, idx, w, row)
    np_res = residual(ip, idx, w, row, kernel="numpy")
    assert abs(py_res[0] - np_res[0]) <= 1e-12
    assert py_res[1] == np_res[1]


@needs_numpy
def test_numpy_parent_witnesses():
    g = ring_chords_graph(300, chords=4, seed=9)
    ip, idx, w = _csr_columns(g)
    dist, parent = sssp(ip, idx, w, [0], kernel="numpy")
    _assert_parents_witness(ip, idx, w, {0}, dist, parent)


# ----------------------------------------------------- kernel= integration

@needs_numpy
def test_dijkstra_kernel_flag():
    g = erdos_renyi_graph(60, 0.08, seed=4)
    base_d, _ = dijkstra(g, 0)
    np_d, np_p = dijkstra(g, 0, kernel="numpy")
    assert set(base_d) == set(np_d)
    for v, d in base_d.items():
        assert abs(np_d[v] - d) <= 1e-9
    for v, p in np_p.items():
        if p is not None:
            assert abs(np_d[v] - (np_d[p] + g.weight(p, v))) <= 1e-9


@needs_numpy
def test_certify_kernel_flag():
    from repro.analysis import max_edge_stretch
    from repro.analysis.certify import certify_edge_stretch
    from repro.core import light_spanner
    import random

    g = erdos_renyi_graph(50, 0.12, seed=6)
    res = light_spanner(g, 2, 0.25, random.Random(0))
    py = certify_edge_stretch(g, res.spanner, res.stretch_bound)
    np_cert = certify_edge_stretch(
        g, res.spanner, res.stretch_bound, kernel="numpy"
    )
    assert np_cert.kernel == "numpy" and py.kernel == "python"
    assert np_cert.ok == py.ok
    assert np_cert.edges_resolved == 0  # only the heap engine closes early
    assert np_cert.to_dict()["kernel"] == "numpy"
    assert abs(
        max_edge_stretch(g, res.spanner, kernel="numpy")
        - max_edge_stretch(g, res.spanner)
    ) <= 1e-9


@needs_numpy
def test_oracle_kernel_flag():
    from repro.oracle import DistanceOracle

    g = erdos_renyi_graph(40, 0.15, seed=8)
    base = DistanceOracle.build(g, landmarks=4, seed=0)
    fast = DistanceOracle.build(g, landmarks=4, seed=0, kernel="numpy")
    # backend-independent selection: same landmarks, same answers
    assert base.landmarks == fast.landmarks
    verts = sorted(g.vertices(), key=repr)
    pairs = [(verts[0], verts[-1]), (verts[1], verts[2])]
    assert base.query_many(pairs) == pytest.approx(fast.query_many(pairs))
    assert base.query_many(pairs) == pytest.approx(
        fast.query_many(pairs, kernel="numpy")
    )


def test_harness_kernel_profile_python():
    record = run_profile(get_profile("kernel-sssp-ring"), "smoke")
    assert record.ok
    assert record.metrics["residual"]["ok"]
    assert record.metrics["unsettled-arcs"]["measured"] == 0.0


@needs_numpy
def test_harness_kernel_profile_numpy():
    record = run_profile(get_profile("kernel-sssp-ring"), "smoke", kernel="numpy")
    assert record.ok
    assert record.params["kernel"] == "numpy"


@needs_numpy
def test_harness_certify_kernel_stamped():
    profile = get_profile("spanner-er")
    record = run_profile(profile, "smoke", kernel="numpy")
    assert record.ok
    assert record.params["certify_kernel"] == "numpy"
    assert record.certification["kernel"] == "numpy"


def test_harness_python_default_leaves_params_unstamped():
    """kernel='python' must not perturb committed baseline reports."""
    profile = get_profile("spanner-er")
    record = run_profile(profile, "smoke")
    assert "certify_kernel" not in record.params


def test_run_huge_profile_small_instance(tmp_path):
    from repro.harness import HUGE_TIER, Profile, run_huge_profile

    profile = Profile(
        name="huge-mini", description="test", section="substrate",
        family="ring-chords", algorithm="kernel-sssp",
        params={"kernel": "python", "sources": 4}, seed=0,
        tiers={
            "smoke": {"n": 50, "chords": 2},
            "table1": {"n": 50, "chords": 2},
            "stress": {"n": 50, "chords": 2},
            HUGE_TIER: {"n": 3000, "chords": 3},
        },
    )
    for kernel in ("python",) + (("auto",) if has_numpy() else ()):
        record = run_huge_profile(profile, kernel=kernel, cache_dir=tmp_path)
        assert record.ok and record.tier == HUGE_TIER
        assert record.n == 3000 and record.m > 0
        assert record.certification["mode"] == "fixed-point"
        assert record.certification["unsettled_arcs"] == 0


def test_run_huge_profile_requires_huge_tier():
    from repro.harness import run_huge_profile

    with pytest.raises(KeyError, match="huge"):
        run_huge_profile(get_profile("spanner-er"))


def test_huge_profiles_listed():
    from repro.harness import huge_profiles

    names = [p.name for p in huge_profiles()]
    assert "kernel-sssp-ring" in names
