"""Tests for the keyed-max convergecast and the §5 case-1 simulation."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.cluster_simulation as cluster_simulation_module
from repro.congest import build_bfs_tree
from repro.congest.keyed_aggregate import keyed_max_convergecast
from repro.core import ConvergecastInvariantError
from repro.core.cluster_simulation import simulate_case1_bucket
from repro.core.light_spanner import _case1_clusters
from repro.graphs import erdos_renyi_graph, grid_graph, path_graph, star_graph
from repro.mst import kruskal_mst
from repro.spanners import elkin_neiman_spanner, sample_shifts
from repro.traversal import compute_euler_tour

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: a convergecast that lowers every cluster maximum, in a fresh
#: interpreter; run under ``python -O``
_LOSSY_CONVERGECAST_SCRIPT = """\
import random
import sys
import repro.core.cluster_simulation as cs
from repro.congest import build_bfs_tree
from repro.graphs import path_graph

if not sys.flags.optimize:
    sys.exit("expected python -O")
real = cs.keyed_max_convergecast

def lossy(graph, tree, inputs, network=None):
    merged, rounds = real(graph, tree, inputs, network=network)
    return {key: (val - 1.0, src) for key, (val, src) in merged.items()}, rounds

cs.keyed_max_convergecast = lossy
g = path_graph(8)
try:
    cs.simulate_case1_bucket(g, build_bfs_tree(g, 0), {v: v // 4 for v in g.vertices()},
                             2, random.Random(0))
except cs.ConvergecastInvariantError as exc:
    print("raised:", exc)
else:
    sys.exit("no ConvergecastInvariantError")
"""


class TestKeyedMaxConvergecast:
    def test_single_key_max(self):
        g = path_graph(6)
        tree = build_bfs_tree(g, 0)
        inputs = {v: {"k": (float(v), f"v{v}")} for v in g.vertices()}
        merged, _ = keyed_max_convergecast(g, tree, inputs)
        assert merged == {"k": (5.0, "v5")}

    def test_disjoint_keys_all_collected(self):
        g = grid_graph(3, 3)
        tree = build_bfs_tree(g, 0)
        inputs = {v: {f"key{v}": (1.0, "x")} for v in g.vertices()}
        merged, _ = keyed_max_convergecast(g, tree, inputs)
        assert len(merged) == 9

    def test_rounds_lemma1_shape(self):
        """O(#keys + height) — each tree vertex forwards one message per
        key."""
        g = grid_graph(4, 4)
        tree = build_bfs_tree(g, 0)
        keys = [f"k{i:02d}" for i in range(6)]
        inputs = {
            v: {k: (float(hash((v, k)) % 100), "p") for k in keys}
            for v in g.vertices()
        }
        merged, rounds = keyed_max_convergecast(g, tree, inputs)
        assert len(merged) == 6
        assert rounds <= len(keys) + 2 * tree.height + 6

    def test_empty_inputs(self):
        g = path_graph(4)
        tree = build_bfs_tree(g, 0)
        merged, rounds = keyed_max_convergecast(g, tree, {})
        assert merged == {}
        assert rounds <= 4

    def test_matches_brute_force_merge(self):
        g = erdos_renyi_graph(15, 0.3, seed=1)
        tree = build_bfs_tree(g, 0)
        rng = random.Random(1)
        keys = ["a", "b", "c"]
        inputs = {
            v: {k: (rng.random(), f"src{v}") for k in keys if rng.random() < 0.7}
            for v in g.vertices()
        }
        merged, _ = keyed_max_convergecast(g, tree, inputs)
        for k in keys:
            contributions = [d[k] for d in inputs.values() if k in d]
            if contributions:
                assert merged[k] == max(contributions)

    def test_star_root_at_hub(self):
        g = star_graph(10)
        tree = build_bfs_tree(g, 0)
        inputs = {v: {"m": (float(v), "s")} for v in g.vertices()}
        merged, rounds = keyed_max_convergecast(g, tree, inputs)
        assert merged["m"][0] == 9.0
        assert rounds <= 6


def _case1_setup(n, seed, eps=0.25, bucket_fraction=2.0):
    g = erdos_renyi_graph(n, 0.25, seed=seed)
    tree = build_bfs_tree(g, 0)
    mst = kruskal_mst(g)
    tour = compute_euler_tour(mst, 0)
    big_l = 2 * mst.total_weight()
    eps_wi = eps * big_l / bucket_fraction
    cluster_of = _case1_clusters(tour, eps_wi)
    return g, tree, cluster_of


class TestCase1Simulation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_pure_elkin_neiman(self, seed, k):
        """The message-level simulation must produce exactly the edges of
        the abstract [EN17b] run on the cluster graph."""
        g, tree, cluster_of = _case1_setup(25, seed)
        # build the reference cluster graph
        adjacency = {}
        for c in sorted(set(cluster_of.values()), key=repr):
            adjacency[c] = set()
        for u, v, _ in g.edges():
            cu, cv = cluster_of[u], cluster_of[v]
            if cu != cv:
                adjacency[cu].add(cv)
                adjacency[cv].add(cu)
        shifts = sample_shifts(sorted(adjacency, key=repr), k, random.Random(seed))

        sim = simulate_case1_bucket(g, tree, cluster_of, k, shifts=shifts)
        pure = elkin_neiman_spanner(adjacency, k, shifts=shifts)
        assert sim.edges == pure.edges

    def test_measured_rounds_reasonable(self):
        """Each [EN17b] round costs O(|C_i| + D) measured rounds."""
        g, tree, cluster_of = _case1_setup(30, 3)
        num_clusters = len(set(cluster_of.values()))
        sim = simulate_case1_bucket(g, tree, cluster_of, 2, random.Random(3))
        per_round_cap = 3 * (num_clusters + 2 * tree.height) + 12
        for cc, bc in sim.round_breakdown:
            assert cc + bc <= per_round_cap

    def test_breakdown_length_is_k(self):
        g, tree, cluster_of = _case1_setup(20, 4)
        sim = simulate_case1_bucket(g, tree, cluster_of, 3, random.Random(4))
        assert len(sim.round_breakdown) == 3

    def test_single_cluster_no_edges(self):
        g = path_graph(8)
        tree = build_bfs_tree(g, 0)
        cluster_of = {v: 0 for v in g.vertices()}
        sim = simulate_case1_bucket(g, tree, cluster_of, 2, random.Random(0))
        assert sim.edges == set()

    def test_invalid_k(self):
        g = path_graph(4)
        tree = build_bfs_tree(g, 0)
        with pytest.raises(ValueError):
            simulate_case1_bucket(g, tree, {v: 0 for v in g.vertices()}, 0)

    def test_missing_cluster_rejected(self):
        g = path_graph(4)
        tree = build_bfs_tree(g, 0)
        with pytest.raises(ValueError):
            simulate_case1_bucket(g, tree, {0: 0}, 2)


class TestConvergecastInvariant:
    """A convergecast that loses a cluster's maximum raises a typed error,
    also under ``python -O`` (it used to be an ``assert``)."""

    def test_lowered_maxima_raise(self, monkeypatch):
        real = keyed_max_convergecast

        def lossy(graph, tree, inputs, network=None):
            merged, rounds = real(graph, tree, inputs, network=network)
            return {key: (val - 1.0, src) for key, (val, src) in merged.items()}, rounds

        monkeypatch.setattr(cluster_simulation_module, "keyed_max_convergecast", lossy)
        g = path_graph(8)
        tree = build_bfs_tree(g, 0)
        with pytest.raises(ConvergecastInvariantError, match="every cluster's maximum"):
            simulate_case1_bucket(g, tree, {v: v // 4 for v in g.vertices()}, 2,
                                  random.Random(0))

    def test_raises_under_python_dash_o(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _LOSSY_CONVERGECAST_SCRIPT],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "convergecast must deliver every cluster's maximum" in proc.stdout
