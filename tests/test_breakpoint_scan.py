"""Tests for the native §4.1 interval scan."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.breakpoint_scan as breakpoint_scan_module
from repro.congest import SyncNetwork
from repro.core import ScanInvariantError
from repro.core.breakpoint_scan import run_interval_scan
from repro.core.slt import _select_break_points
from repro.congest.ledger import RoundLedger
from repro.graphs import erdos_renyi_graph, random_geometric_graph, random_tree
from repro.mst import kruskal_mst
from repro.spt import approx_spt
from repro.traversal import compute_euler_tour

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: every vertex claims the tour positions one step past its own, so an
#: interval's token starts at a vertex that does not hold it, in a fresh
#: interpreter; run under ``python -O``
_SHIFTED_POSITIONS_SCRIPT = """\
import sys
import repro.core.breakpoint_scan as scan
from repro.graphs import erdos_renyi_graph
from repro.mst import kruskal_mst
from repro.spt import approx_spt
from repro.traversal import compute_euler_tour

if not sys.flags.optimize:
    sys.exit("expected python -O")
scan.IntervalScan._positions_of = lambda self, v: [
    j + 1 for j in self.tour.appearances[v] if j + 1 < self.tour.size]
g = erdos_renyi_graph(30, 0.2, seed=0)
tour = compute_euler_tour(kruskal_mst(g), 0)
try:
    scan.run_interval_scan(g, tour, approx_spt(g, 0, 0.5).dist, 0.5)
except scan.ScanInvariantError as exc:
    print("raised:", exc)
else:
    sys.exit("no ScanInvariantError")
"""


def _setup(n, seed, eps=0.5):
    g = erdos_renyi_graph(n, 0.2, seed=seed)
    mst = kruskal_mst(g)
    tour = compute_euler_tour(mst, 0)
    spt = approx_spt(g, 0, eps)
    return g, tour, spt


class TestNativeScanEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_matches_sequential_reference(self, seed, eps):
        g, tour, spt = _setup(30, seed, eps)
        alpha = math.isqrt(g.n - 1) + 1
        native = run_interval_scan(g, tour, spt.dist, eps, alpha)
        ledger = RoundLedger()
        bp1, _, _ = _select_break_points(tour, spt.dist, eps, alpha, ledger, 5)
        assert native.bp1 == bp1

    def test_geometric_workload(self):
        g = random_geometric_graph(25, seed=5)
        mst = kruskal_mst(g)
        tour = compute_euler_tour(mst, 0)
        spt = approx_spt(g, 0, 0.5)
        alpha = math.isqrt(g.n - 1) + 1
        native = run_interval_scan(g, tour, spt.dist, 0.5, alpha)
        ledger = RoundLedger()
        bp1, _, _ = _select_break_points(tour, spt.dist, 0.5, alpha, ledger, 5)
        assert native.bp1 == bp1


class TestNativeScanRounds:
    def test_rounds_at_most_alpha_plus_constant(self):
        """§4.1: "After α − 1 rounds this procedure ends"."""
        g, tour, spt = _setup(40, 7)
        alpha = math.isqrt(g.n - 1) + 1
        native = run_interval_scan(g, tour, spt.dist, 0.5, alpha)
        assert native.rounds <= alpha + 2

    def test_parallelism_across_intervals(self):
        """Rounds depend on α, not on the number of intervals: a longer
        tour with the same α costs the same rounds."""
        g1, tour1, spt1 = _setup(20, 8)
        g2, tour2, spt2 = _setup(60, 8)
        alpha = 6
        r1 = run_interval_scan(g1, tour1, spt1.dist, 0.5, alpha).rounds
        r2 = run_interval_scan(g2, tour2, spt2.dist, 0.5, alpha).rounds
        assert abs(r1 - r2) <= 2

    def test_bandwidth_respected(self):
        """Tokens are 2-word messages; no edge ever carries two tokens in
        the same direction (each tour edge-direction is traversed once)."""
        g, tour, spt = _setup(30, 9)
        net = SyncNetwork(g, words_per_message=2)
        native = run_interval_scan(g, tour, spt.dist, 0.5, network=net)
        assert native.bp1 is not None  # completed without violations


class TestScanOnTrees:
    def test_tree_graph_scan(self):
        t = random_tree(30, seed=10)
        tour = compute_euler_tour(t, 0)
        spt = approx_spt(t, 0, 0.5)
        alpha = 6
        native = run_interval_scan(t, tour, spt.dist, 0.5, alpha)
        ledger = RoundLedger()
        bp1, _, _ = _select_break_points(tour, spt.dist, 0.5, alpha, ledger, 5)
        assert native.bp1 == bp1

    def test_huge_eps_selects_only_root_positions(self):
        """With eps huge, Equation (2) can only fire where d(rt, v) = 0 —
        i.e. at later appearances of the root itself."""
        t = random_tree(20, seed=11)
        tour = compute_euler_tour(t, 0)
        spt = approx_spt(t, 0, 0.5)
        native = run_interval_scan(t, tour, spt.dist, eps=1e9, alpha=5)
        assert set(native.bp1) <= set(tour.appearances[0])

    def test_tiny_eps_selects_everything_selectable(self):
        """With eps → 0 every non-anchor position with positive tour
        progress joins."""
        t = random_tree(20, seed=12)
        tour = compute_euler_tour(t, 0)
        spt = approx_spt(t, 0, 0.5)
        alpha = 5
        native = run_interval_scan(t, tour, spt.dist, eps=1e-12, alpha=alpha)
        expected = [
            j for j in range(1, tour.size)
            if j % alpha != 0 and tour.order[j] != 0
        ]
        # positions at the root (dist 0) join only if progress > 0
        assert set(native.bp1) >= set(expected) - {0}


class TestScanInvariant:
    """A token that reaches a vertex not holding its tour position raises
    a typed error, also under ``python -O`` (it used to be an
    ``assert``)."""

    def test_shifted_positions_raise(self, monkeypatch):
        monkeypatch.setattr(
            breakpoint_scan_module.IntervalScan, "_positions_of",
            lambda self, v: [j + 1 for j in self.tour.appearances[v]
                             if j + 1 < self.tour.size],
        )
        g, tour, spt = _setup(30, 0)
        with pytest.raises(ScanInvariantError, match="must reach the vertex there"):
            run_interval_scan(g, tour, spt.dist, 0.5)

    def test_raises_under_python_dash_o(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _SHIFTED_POSITIONS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "must reach the vertex there" in proc.stdout
