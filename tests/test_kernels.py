"""Kernel parity & dispatch suite (repro.kernels).

The layer's contract is *parity*: the numpy frontier-relaxation kernel
and the pure-Python heap Dijkstra agree on distances to 1e-9 on every
workload — same graphs, same sources, one source per row or several
in one row.  The numpy kernel returns distances only; parents come
from ``pykern.sssp``, and every parent chain must witness a shortest
path.  The suite fuzzes that contract over every smoke-tier harness
profile plus the adversarial shapes vectorized relaxation gets wrong
first (zero-weight edges, disconnected components, isolated vertices,
duplicate sources), checks the pure-Python kernel's cap contract, and
then checks the kernel= plumbing end to end: the oracle and the
harness profiles, where certification ignores the kernel.

numpy-side tests skip cleanly when numpy is absent — the no-numpy CI
leg runs exactly the python half of this file.
"""

from __future__ import annotations

import math

import pytest

from repro.graphs import WeightedGraph, erdos_renyi_graph, ring_chords_graph
from repro.harness import all_profiles, get_profile, run_profile
from repro.kernels import (
    KERNELS,
    has_numpy,
    pykern,
    resolve_kernel,
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
    """Each parent must witness the distances:
    dist[v] == dist[parent[v]] + w(parent[v], v)."""
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
    dist, parent = pykern.sssp(ip, idx, w, [0])
    assert dist[0] == dist[1] == dist[2] == 0.0  # zero-weight chain
    assert dist[3] == 1.5
    assert all(math.isinf(dist[v]) for v in (4, 5, 6, 7, 8, 9))
    _assert_parents_witness(ip, idx, w, {0}, dist, parent)
    assert pykern.residual(ip, idx, w, dist) == (0.0, 0)


def test_python_kernel_duplicate_sources():
    ip, idx, w = ADVERSARIAL
    single, _ = pykern.sssp(ip, idx, w, [4])
    doubled, _ = pykern.sssp(ip, idx, w, [4, 4, 4])
    _assert_rows_equal(single, doubled)


def test_python_kernel_cap_contract():
    g = erdos_renyi_graph(60, 0.08, seed=3)
    ip, idx, w = _csr_columns(g)
    exact, exact_parent = pykern.sssp(ip, idx, w, [0])
    cap = sorted(d for d in exact if not math.isinf(d))[len(exact) // 3]
    capped, parent = pykern.sssp(ip, idx, w, [0], cap=cap)
    beyond = 0
    for v, d in enumerate(exact):
        if d <= cap:
            assert capped[v] == d  # within cap: exact
            assert parent[v] == exact_parent[v]
        else:
            # the python kernel never sets a label above the cap
            assert math.isinf(capped[v]) and parent[v] == -2
            beyond += 1
    assert beyond > 0


def test_residual_detects_perturbation():
    g = erdos_renyi_graph(50, 0.1, seed=1)
    ip, idx, w = _csr_columns(g)
    dist, _ = pykern.sssp(ip, idx, w, [0])
    worst0, unsettled0 = pykern.residual(ip, idx, w, dist)
    assert worst0 <= 1e-12 and unsettled0 == 0
    finite = [v for v, d in enumerate(dist) if not math.isinf(d) and d > 0]
    dist[finite[-1]] += 5.0
    worst, _ = pykern.residual(ip, idx, w, dist)
    assert worst > 4.9


# ----------------------------------------------------------- numpy parity

@needs_numpy
def test_parity_every_smoke_profile():
    """Distances agree to 1e-9 on every smoke-tier harness workload, one
    source per row and all three sources in one row."""
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
        _assert_rows_equal(
            pykern.sssp(ip, idx, w, sources)[0],
            sssp(ip, idx, w, sources, kernel="numpy"),
        )


@needs_numpy
def test_parity_adversarial_shapes():
    ip, idx, w = ADVERSARIAL
    for sources in ([0], [4], [9], [0, 0, 4], [0, 4, 9]):
        py_d, _ = pykern.sssp(ip, idx, w, sources)
        _assert_rows_equal(py_d, sssp(ip, idx, w, sources, kernel="numpy"))


@needs_numpy
def test_parity_residual():
    from repro.kernels import npkern

    g = ring_chords_graph(400, chords=3, seed=2)
    ip, idx, w = _csr_columns(g)
    row = pykern.sssp(ip, idx, w, [7])[0]
    py_res = pykern.residual(ip, idx, w, row)
    np_res = npkern.residual_matrix_prepared(npkern.prepare(ip, idx, w), [row])
    assert abs(py_res[0] - np_res[0]) <= 1e-12
    assert py_res[1] == np_res[1]


# ----------------------------------------------------- kernel= integration

@needs_numpy
@pytest.mark.parametrize("strategy", ["far", "degree"])
def test_oracle_kernel_flag(strategy):
    from repro.oracle import DistanceOracle

    g = erdos_renyi_graph(40, 0.15, seed=8)
    base = DistanceOracle.build(g, landmarks=4, strategy=strategy, seed=0)
    fast = DistanceOracle.build(
        g, landmarks=4, strategy=strategy, seed=0, kernel="numpy"
    )
    # backend-independent selection: same landmarks, same answers
    assert base.landmarks == fast.landmarks
    verts = sorted(g.vertices(), key=repr)
    pairs = [(verts[0], verts[-1]), (verts[1], verts[2])]
    assert base.query_many(pairs) == pytest.approx(fast.query_many(pairs))


def test_harness_kernel_profile_python():
    record = run_profile(get_profile("kernel-sssp-ring"), "smoke")
    assert record.ok
    assert record.metrics["residual"]["ok"]
    assert record.metrics["unsettled-arcs"]["measured"] == 0.0


@needs_numpy
def test_harness_kernel_profile_numpy(monkeypatch):
    """Each numpy build pass (the timed one, then the memory one)
    converts the columns once, and every row is certified in one
    residual pass."""
    from repro.kernels import npkern

    calls = []
    for name in ("prepare", "residual_matrix_prepared"):
        real = getattr(npkern, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(npkern, name, counted)
    record = run_profile(get_profile("kernel-sssp-ring"), "smoke", kernel="numpy")
    assert record.ok
    assert record.params["kernel"] == "numpy"
    assert record.peak_memory_bytes is not None
    assert calls == ["prepare", "prepare", "residual_matrix_prepared"]


def test_harness_kernel_profile_stamps_the_resolved_backend():
    """A kernel-sssp record names the backend that ran, not the name it
    was given: "auto" reads "numpy" or "python"."""
    record = run_profile(
        get_profile("kernel-sssp-ring"), "smoke", measure_memory=False,
        kernel="auto",
    )
    assert record.ok
    assert record.params["kernel"] == resolve_kernel("auto")


def test_harness_python_default_leaves_params_unstamped():
    """kernel='python' must not perturb committed baseline reports: a
    default run records the profile's own params and stamps no kernel."""
    spanner = get_profile("spanner-er")
    record = run_profile(spanner, "smoke", measure_memory=False)
    assert record.params == spanner.algo_params("smoke")
    ring = get_profile("kernel-sssp-ring")
    record = run_profile(ring, "smoke", measure_memory=False)
    assert record.params == ring.algo_params("smoke")


def test_harness_certification_ignores_kernel():
    """Spanner certification has one engine: every available kernel
    gives the same certification block, and none is stamped into the
    record's params."""
    profile = get_profile("spanner-er")
    kernels = ("python", "auto") + (("numpy",) if has_numpy() else ())
    records = [
        run_profile(profile, "smoke", measure_memory=False, kernel=kernel)
        for kernel in kernels
    ]
    for record in records:
        assert record.ok
        assert record.certification == records[0].certification
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
