"""Seeded-run reproducibility regression tests.

The historical bug class: a ``for c in set(...)`` whose hash order leaks
into dict insertion order and from there into RNG consumption order, so
two identically-seeded runs produce different structures whenever
``PYTHONHASHSEED`` differs (string hashing is salted per interpreter
invocation; int hashing is not, which is why the in-process tests never
caught it).  These tests relabel the workload graphs with *string*
vertices and byte-compare canonical serializations produced by fresh
subprocesses under different ``PYTHONHASHSEED`` values — the strongest
claim the fixed ``light_spanner`` / ``simulate_case1_bucket`` /
``compute_le_lists`` sites can make.
"""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.determinism import DEFAULT_SEED, ensure_rng
from repro.graphs import erdos_renyi_graph
from repro.graphs.weighted_graph import WeightedGraph

SRC = str(Path(__file__).resolve().parent.parent / "src")

_PRELUDE = """\
import random
import sys

from repro.graphs import erdos_renyi_graph
from repro.graphs.weighted_graph import WeightedGraph

base = erdos_renyi_graph(24, 0.3, seed=3)
g = WeightedGraph("v%02d" % v for v in base.vertices())
for u, v, w in base.edges():
    g.add_edge("v%02d" % u, "v%02d" % v, w)
"""

_GEOMETRIC_PRELUDE = """\
import random
import sys

from repro.graphs import random_geometric_graph
from repro.graphs.weighted_graph import WeightedGraph

base = random_geometric_graph(24, seed=21)
g = WeightedGraph("v%02d" % v for v in base.vertices())
for u, v, w in base.edges():
    g.add_edge("v%02d" % u, "v%02d" % v, w)
"""

_SPANNER_OUTPUT = """\
edges = sorted(
    (min(u, v), max(u, v), round(w, 9)) for u, v, w in res.spanner.edges()
)
sys.stdout.write(repr((edges, res.rounds)))
"""

#: Each scenario builds a structure from the string-relabelled graph and
#: writes a canonical serialization to stdout.
_SCENARIOS = {
    "light-spanner": _PRELUDE + """\
from repro.core.light_spanner import light_spanner

res = light_spanner(g, 2, 0.25, random.Random(7))
""" + _SPANNER_OUTPUT,
    "cluster-simulation": _PRELUDE + """\
from repro.congest import build_bfs_tree
from repro.core.cluster_simulation import simulate_case1_bucket
from repro.core.light_spanner import _case1_clusters
from repro.mst import kruskal_mst
from repro.traversal import compute_euler_tour

root = min(g.vertices())
tree = build_bfs_tree(g, root)
mst = kruskal_mst(g)
tour = compute_euler_tour(mst, root)
eps_wi = 0.25 * mst.total_weight()
# string cluster ids: unlike the int ids _case1_clusters emits, their
# hash order is PYTHONHASHSEED-salted, so an unsorted set iteration
# inside the simulation would actually diverge here
cluster_of = {v: "C%03d" % c for v, c in _case1_clusters(tour, eps_wi).items()}
sim = simulate_case1_bucket(g, tree, cluster_of, 2, rng=random.Random(7))
edges = sorted(tuple(sorted(e)) for e in sim.edges)
shifts = sorted((c, round(s, 12)) for c, s in sim.shifts.items())
sys.stdout.write(repr((edges, shifts, sim.rounds)))
""",
    "net": _GEOMETRIC_PRELUDE + """\
from repro.core import build_net

nets = [build_net(g, scale, 0.5, random.Random(7)) for scale in (10.0, 40.0)]
sys.stdout.write(repr([(sorted(r.points), r.active_history, r.rounds) for r in nets]))
""",
    "doubling-distributed": _GEOMETRIC_PRELUDE + """\
from repro.core import doubling_spanner

res = doubling_spanner(g, 0.08, random.Random(7), net_method="distributed")
""" + _SPANNER_OUTPUT,
    "doubling": _GEOMETRIC_PRELUDE + """\
from repro.core import doubling_spanner

res = doubling_spanner(g, 0.08, random.Random(7), net_method="greedy")
""" + _SPANNER_OUTPUT,
}

#: The seeded-deterministic projection of one profile record: everything
#: except wall-clock times, span counts and the enabled flag.  The
#: disabled and traced scenarios must produce the *same* bytes — tracing
#: may add spans but must never perturb seeded behavior.
_BENCH_OBS_PROJECTION = """\
proj = (
    sorted(record.observability["metrics"].items()),
    record.net_rounds,
    record.messages,
    record.words,
    record.active_node_rounds,
    record.rounds,
    record.ok,
)
sys.stdout.write(repr(proj))
"""

_SCENARIOS["bench-obs-disabled"] = """\
import sys

from repro.harness.profiles import get_profile
from repro.harness.runner import run_profile

record = run_profile(
    get_profile("congest-bfs-grid"), "smoke", measure_memory=False
)
""" + _BENCH_OBS_PROJECTION

_SCENARIOS["bench-obs-traced"] = """\
import sys

from repro.harness.profiles import get_profile
from repro.harness.runner import run_profile
from repro.obs import trace as obs_trace

obs_trace.enable()
record = run_profile(
    get_profile("congest-bfs-grid"), "smoke", measure_memory=False
)
tracer = obs_trace.disable()
assert tracer is not None and tracer.span_count() > 0
""" + _BENCH_OBS_PROJECTION


def _run_scenario(name, hashseed):
    """Run one scenario in a fresh interpreter under ``hashseed``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", _SCENARIOS[name]],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout, f"scenario {name} produced no output"
    return proc.stdout


class TestHashSeedIndependence:
    """Identically-seeded runs must byte-match across PYTHONHASHSEED."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_identical_across_hash_seeds(self, scenario):
        outputs = {hs: _run_scenario(scenario, hs) for hs in (1, 2)}
        assert outputs[1] == outputs[2], (
            f"{scenario}: identically-seeded runs diverge across "
            f"PYTHONHASHSEED values — a set-iteration order leak"
        )

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_identical_on_rerun(self, scenario):
        assert _run_scenario(scenario, 1) == _run_scenario(scenario, 1)

    def test_tracing_does_not_perturb_seeded_behavior(self):
        """The no-op fast path claim, end to end: a traced run and an
        untraced run project to byte-identical deterministic records."""
        disabled = _run_scenario("bench-obs-disabled", 1)
        traced = _run_scenario("bench-obs-traced", 1)
        assert disabled == traced


class TestEnsureRng:
    def test_passthrough(self):
        rng = random.Random(42)
        assert ensure_rng(rng) is rng

    def test_default_is_seeded(self):
        a, b = ensure_rng(None), ensure_rng(None)
        assert a is not b
        assert [a.random() for _ in range(8)] == [b.random() for _ in range(8)]

    def test_explicit_seed(self):
        assert ensure_rng(None, seed=5).random() == random.Random(5).random()
        assert (
            ensure_rng(None).random() == random.Random(DEFAULT_SEED).random()
        )


class TestInProcessDeterminism:
    """The fixed library surfaces are deterministic run-to-run in-process."""

    def test_connected_components_order_is_insertion_order(self):
        g = WeightedGraph(["c", "a", "b", "z", "y"])
        g.add_edge("a", "b", 1.0)
        comps = g.connected_components()
        # component list follows vertex insertion order, not hash order
        assert [sorted(c, key=repr) for c in comps] == [
            ["c"], ["a", "b"], ["z"], ["y"],
        ]

    def test_light_spanner_same_seed_same_structure(self):
        from repro.core.light_spanner import light_spanner

        g = erdos_renyi_graph(20, 0.3, seed=2)
        runs = [
            sorted(
                (min(u, v), max(u, v), w)
                for u, v, w in light_spanner(
                    g, 2, 0.25, random.Random(11)
                ).spanner.edges()
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
