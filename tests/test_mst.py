"""Tests for Kruskal, Borůvka and the fragment decomposition."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs import (
    WeightedGraph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    hop_distances,
    path_graph,
    random_tree,
    ring_of_cliques,
    star_graph,
)
from repro.mst import (
    FragmentInvariantError,
    UnionFind,
    boruvka_mst,
    decompose_fragments,
    kruskal_mst,
)
from repro.mst import boruvka as boruvka_module
from repro.mst import fragments as fragments_module
from repro.mst.fragments import subtree_hop_diameter

SRC = str(Path(__file__).resolve().parent.parent / "src")


class _ChildrenHiddenFromAssignment(list):
    """A child list that the post-order walk reads (``reversed``) and the
    fragment assignment does not (``iter``), so no open subtree is ever
    merged into its parent's."""

    def __iter__(self):
        return iter(())


def _hiding_rooted_children(rooted):
    def hiding(tree, root):
        return {v: _ChildrenHiddenFromAssignment(c) for v, c in rooted(tree, root).items()}
    return hiding


#: the same forcing in a fresh interpreter; run under ``python -O``
_UNMERGED_SUBTREES_SCRIPT = """\
import sys
import repro.mst.fragments as fragments
from repro.graphs import random_tree

if not sys.flags.optimize:
    sys.exit("expected python -O")

class Hidden(list):
    def __iter__(self):
        return iter(())

rooted = fragments._rooted_children

def hiding(tree, root):
    return {v: Hidden(c) for v, c in rooted(tree, root).items()}

fragments._rooted_children = hiding
try:
    fragments.decompose_fragments(random_tree(20, seed=1), 0)
except fragments.FragmentInvariantError as exc:
    print("raised:", exc)
else:
    sys.exit("no FragmentInvariantError")
"""


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind()
        for v in range(4):
            uf.add(v)
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert not uf.same(0, 2)
        assert uf.union(1, 3)
        assert uf.same(0, 2)

    def test_union_already_merged(self):
        uf = UnionFind()
        uf.add(0)
        uf.add(1)
        uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add(0)
        uf.union(0, 0) if False else None
        uf.add(0)
        assert uf.find(0) == 0


class TestKruskal:
    def test_path_graph_mst_is_itself(self):
        g = path_graph(6)
        assert kruskal_mst(g) == g

    def test_cycle_drops_heaviest(self):
        g = cycle_graph(4, weight=1.0)
        g.remove_edge(3, 0)
        g.add_edge(3, 0, 9.0)
        t = kruskal_mst(g)
        assert not t.has_edge(3, 0)
        assert t.is_tree()

    def test_matches_networkx(self, medium_er):
        import networkx as nx

        t = kruskal_mst(medium_er)
        nxt = nx.minimum_spanning_tree(medium_er.to_networkx())
        assert t.total_weight() == pytest.approx(
            sum(d["weight"] for _, _, d in nxt.edges(data=True))
        )

    def test_deterministic_with_ties(self):
        g = complete_graph(8, min_weight=1.0, max_weight=1.0)  # all ties
        assert kruskal_mst(g) == kruskal_mst(g.copy())

    def test_disconnected_raises(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            kruskal_mst(g)

    def test_spans_all_vertices(self, heavy_ring):
        t = kruskal_mst(heavy_ring)
        assert set(t.vertices()) == set(heavy_ring.vertices())
        assert t.is_tree()


class TestKruskalCache:
    """One MST per frozen graph: cached on the CSR view, copied per call."""

    def test_add_edge_shows_in_the_next_mst(self):
        g = cycle_graph(5, weight=2.0)
        first = kruskal_mst(g)
        g.add_edge(0, 2, 0.5)
        second = kruskal_mst(g)
        assert not first.has_edge(0, 2)
        assert second.has_edge(0, 2) and second.is_tree()
        assert second == kruskal_mst(g.copy())

    def test_each_call_returns_a_fresh_tree(self, medium_er):
        first = kruskal_mst(medium_er)
        want = list(first.edges())
        u, v, _w = want[0]
        first.remove_edge(u, v)
        first.add_edge(u, "extra", 1.0)
        second = kruskal_mst(medium_er)
        assert second is not first
        assert list(second.edges()) == want
        assert "extra" not in second

    def test_csr_input(self, medium_er):
        csr = medium_er.to_csr()
        assert kruskal_mst(csr) == kruskal_mst(medium_er)
        assert list(kruskal_mst(csr).edges()) == list(kruskal_mst(medium_er).edges())

    def test_disconnected_raises_on_every_call(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="disconnected"):
                kruskal_mst(g)


class TestBoruvka:
    def test_agrees_with_kruskal(self, medium_er):
        res = boruvka_mst(medium_er)
        assert res.tree == kruskal_mst(medium_er)

    def test_agrees_on_tied_weights(self):
        g = ring_of_cliques(3, 4, intra_weight=1.0, inter_weight=1.0)
        assert boruvka_mst(g).tree == kruskal_mst(g)

    def test_phase_count_logarithmic(self, medium_er):
        res = boruvka_mst(medium_er)
        assert res.phases <= math.ceil(math.log2(medium_er.n)) + 1

    def test_rounds_ledger_populated(self, small_er):
        res = boruvka_mst(small_er, bfs_height=4)
        assert res.rounds > 0
        assert any("moe-convergecast" in p for p in res.ledger.by_phase())

    def test_disconnected_raises(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            boruvka_mst(g)

    def test_single_vertex(self):
        g = WeightedGraph([0])
        res = boruvka_mst(g)
        assert res.tree.n == 1
        assert res.phases == 0


class TestFragments:
    def test_partition_covers_all_vertices(self):
        t = random_tree(50, seed=1)
        decomp = decompose_fragments(t, 0)
        all_members = set()
        for frag in decomp.fragments:
            assert not (all_members & frag.members), "fragments must be disjoint"
            all_members |= frag.members
        assert all_members == set(t.vertices())

    def test_fragment_count_is_o_sqrt_n(self):
        t = random_tree(100, seed=2)
        decomp = decompose_fragments(t, 0)
        s = math.isqrt(99) + 1
        assert decomp.num_fragments <= 100 // s + 1

    def test_fragments_are_connected_subtrees(self):
        t = random_tree(60, seed=3)
        decomp = decompose_fragments(t, 0)
        for frag in decomp.fragments:
            sub = t.subgraph(frag.members)
            assert sub.is_connected()
            assert sub.m == len(frag.members) - 1  # subtree

    def test_hop_diameter_bounded(self):
        t = random_tree(100, seed=4)
        s = math.isqrt(99) + 1
        decomp = decompose_fragments(t, 0, target_size=s)
        assert decomp.max_hop_diameter <= 2 * s

    def test_fragment_roots_are_the_tops_of_their_fragments(self):
        """Each fragment's root is its one member whose parent lies
        outside it; the global root's fragment has none outside."""
        t = random_tree(80, seed=6)
        decomp = decompose_fragments(t, 7)
        parent = {c: v for v, cs in decomp.children.items() for c in cs}
        for frag in decomp.fragments:
            tops = [v for v in frag.members if parent.get(v) not in frag.members]
            assert tops == [frag.root]
        assert decomp.fragments[-1].root == 7

    @pytest.mark.parametrize("root", [0, 7, 39])
    def test_children_orient_the_tree_from_the_root(self, root):
        """``children`` holds every vertex, each non-root once as a child
        of a tree neighbour, in id order."""
        t = random_tree(40, seed=5)
        decomp = decompose_fragments(t, root)
        assert set(decomp.children) == set(t.vertices())
        child_of = [c for cs in decomp.children.values() for c in cs]
        assert sorted(child_of) == sorted(v for v in t.vertices() if v != root)
        for v, cs in decomp.children.items():
            assert all(t.has_edge(v, c) for c in cs)
            assert cs == sorted(cs, key=repr)
        depth = hop_distances(t, root)
        assert all(depth[c] == depth[v] + 1
                   for v, cs in decomp.children.items() for c in cs)

    def test_path_tree_single_fragment_chain(self):
        t = path_graph(16)
        decomp = decompose_fragments(t, 0, target_size=4)
        assert decomp.num_fragments == 4
        assert decomp.max_hop_diameter <= 8

    def test_non_tree_rejected(self, triangle):
        with pytest.raises(ValueError):
            decompose_fragments(triangle, 0)

    def test_bad_root_rejected(self):
        t = random_tree(10, seed=8)
        with pytest.raises(ValueError):
            decompose_fragments(t, 999)

    def test_star_tree_high_degree_root(self):
        from repro.graphs import star_graph

        t = star_graph(50)  # star is already a tree
        decomp = decompose_fragments(t, 0)
        assert decomp.max_hop_diameter <= 2 * (math.isqrt(49) + 1)
        members = set()
        for f in decomp.fragments:
            members |= f.members
        assert members == set(t.vertices())


def _reference_hop_diameter(tree, members):
    """Induced subgraph plus two BFS sweeps: the computation the linear
    helper replaced, kept here as the oracle it must agree with."""
    members = list(members)
    if len(members) <= 1:
        return 0
    sub = tree.subgraph(members)
    d0 = hop_distances(sub, members[0])
    far = max(d0, key=lambda v: d0[v])
    d1 = hop_distances(sub, far)
    return max(d1.values())


def _string_tree(n, seed):
    """A random tree whose vertices are strings, not ints."""
    t = random_tree(n, seed=seed)
    g = WeightedGraph()
    for u, v, w in t.edges():
        g.add_edge(f"v{u}", f"v{v}", w)
    return g


#: name -> tree; every shape the fragment and Borůvka charges meet
TREES = {
    "path1": path_graph(1),
    "path2": path_graph(2),
    "path30": path_graph(30),
    "star20": star_graph(20),
    "caterpillar": caterpillar_graph(12, legs_per_vertex=3),
    "random60": random_tree(60, seed=9),
    "strings": _string_tree(45, seed=10),
    "er-mst": kruskal_mst(erdos_renyi_graph(120, 0.05, seed=11)),
    "er-mst-dense": kruskal_mst(erdos_renyi_graph(80, 0.3, seed=12)),
}


class TestSubtreeHopDiameter:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_whole_tree_from_every_start(self, name):
        tree = TREES[name]
        members = set(tree.vertices())
        expected = _reference_hop_diameter(tree, members)
        for start in tree.vertices():
            assert subtree_hop_diameter(tree, members, start) == expected

    @pytest.mark.parametrize("name", sorted(TREES))
    @pytest.mark.parametrize("target_size", [1, 2, None, "n"])
    def test_fragments_match_reference(self, name, target_size):
        tree = TREES[name]
        root = min(tree.vertices(), key=repr)
        size = tree.n if target_size == "n" else target_size
        decomp = decompose_fragments(tree, root, target_size=size)
        expected = [_reference_hop_diameter(tree, f.members) for f in decomp.fragments]
        assert [f.hop_diameter(tree) for f in decomp.fragments] == expected
        assert decomp.max_hop_diameter == max(expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_boruvka_components_match_reference(self, seed, monkeypatch):
        calls = []

        def checked(forest, members, start):
            got = subtree_hop_diameter(forest, members, start)
            calls.append((len(members), got, _reference_hop_diameter(forest, members)))
            return got

        monkeypatch.setattr(boruvka_module, "subtree_hop_diameter", checked)
        g = erdos_renyi_graph(150, 0.04, seed=seed)
        res = boruvka_mst(g)
        assert res.tree == kruskal_mst(g)
        assert all(got == ref for _size, got, ref in calls)
        # the forest was checked partway through: multi-vertex components
        # that are not yet the whole tree
        assert any(1 < size < g.n for size, _got, _ref in calls)


class TestFragmentInvariant:
    """A sweep that leaves a vertex in no fragment raises a typed error,
    also under ``python -O`` (it used to be an ``assert``)."""

    def test_unmerged_subtrees_raise(self, monkeypatch):
        monkeypatch.setattr(fragments_module, "_rooted_children",
                            _hiding_rooted_children(fragments_module._rooted_children))
        with pytest.raises(FragmentInvariantError, match="every vertex must close"):
            decompose_fragments(random_tree(20, seed=1), 0)

    def test_raises_under_python_dash_o(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _UNMERGED_SUBTREES_SCRIPT],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "every vertex must close into a fragment" in proc.stdout
