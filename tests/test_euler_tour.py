"""Tests for the §3 Euler tour (Lemma 2).

``compute_euler_tour`` charges the staged §3.2–§3.3 computation by
formula and takes the tour from one direct walk.  The staged code below
(``_staged_lengths``, ``_staged_intervals`` and their post-order walk)
is what the library ran as a self-check before; here it is the
reference the walk must agree with, to a relative 1e-9.
"""

import math
import random
from typing import Dict, Hashable, List, Tuple

import pytest

from repro.analysis import max_edge_stretch
from repro.core import light_spanner, shallow_light_tree
from repro.graphs import (
    WeightedGraph, path_graph, random_geometric_graph, random_tree, star_graph,
)
from repro.mst import decompose_fragments, kruskal_mst
from repro.mst import fragments as fragments_module
from repro.mst.fragments import FragmentDecomposition
from repro.traversal import EulerTour, compute_euler_tour

Vertex = Hashable


# ------------------------------------------------ staged §3.2–§3.3 reference

def _agree(a: float, b: float) -> bool:
    """Equal up to summation-order round-off, at any weight scale."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _fragment_of(decomp: FragmentDecomposition) -> Dict[Vertex, int]:
    """Vertex -> the position of its fragment in ``decomp.fragments``."""
    return {v: i for i, f in enumerate(decomp.fragments) for v in f.members}


def _staged_lengths(
    tree: WeightedGraph,
    root: Vertex,
    decomp: FragmentDecomposition,
    children: Dict[Vertex, List[Vertex]],
    post_order: List[Vertex],
) -> Tuple[Dict[Vertex, float], Dict[Vertex, float]]:
    """§3.2 — local tour lengths ℓ(v) and global tour lengths g(v).

    ℓ(v): twice the weight of v's subtree *inside its own fragment*.
    g(v): twice the weight of v's full subtree in T.  Both are computed
    bottom-up exactly as the distributed stages do.
    """
    frag_of = _fragment_of(decomp)
    local_len: Dict[Vertex, float] = {}
    for v in post_order:
        total = 0.0
        for c in children[v]:
            if frag_of[c] == frag_of[v]:
                total += local_len[c] + 2 * tree.weight(v, c)
        local_len[v] = total

    global_len: Dict[Vertex, float] = {}
    for v in post_order:
        total = 0.0
        for c in children[v]:
            total += global_len[c] + 2 * tree.weight(v, c)
        global_len[v] = total
    return local_len, global_len


def _staged_intervals(
    tree: WeightedGraph,
    root: Vertex,
    children: Dict[Vertex, List[Vertex]],
    global_len: Dict[Vertex, float],
) -> Dict[Vertex, Tuple[float, float]]:
    """§3.3 — DFS intervals t(v) = [entry, entry + g(v)], top-down.

    Child j of v with older siblings z_1..z_{j-1} enters at
    ``entry(v) + Σ_{q<j} (g(z_q) + 2 w(v, z_q)) + w(v, z_j)``.
    """
    intervals: Dict[Vertex, Tuple[float, float]] = {root: (0.0, global_len[root])}
    stack: List[Vertex] = [root]
    while stack:
        v = stack.pop()
        a, _ = intervals[v]
        offset = a
        for c in children[v]:
            entry = offset + tree.weight(v, c)
            intervals[c] = (entry, entry + global_len[c])
            offset = entry + global_len[c] + tree.weight(v, c)
            stack.append(c)
    return intervals


def _staged(
    tree: WeightedGraph, root: Vertex
) -> Tuple[Dict[Vertex, float], Dict[Vertex, float], Dict[Vertex, Tuple[float, float]]]:
    """ℓ, g and the DFS intervals from the staged computation."""
    decomp = decompose_fragments(tree, root)
    children = decomp.children
    post: List[Vertex] = []
    stack: List[Tuple[Vertex, bool]] = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            post.append(v)
            continue
        stack.append((v, True))
        for c in reversed(children[v]):
            stack.append((c, False))
    local_len, global_len = _staged_lengths(tree, root, decomp, children, post)
    return local_len, global_len, _staged_intervals(tree, root, children, global_len)


def _assert_staged_agrees(tour: EulerTour) -> None:
    """The checks the library used to run on every call."""
    _, global_len, intervals = _staged(tour.tree, tour.root)
    assert _agree(tour.times[-1], global_len[tour.root])
    assert len(tour.order) == 2 * tour.tree.n - 1
    assert set(intervals) == set(tour.appearances)
    for v, (entry, exit_) in intervals.items():
        assert _agree(tour.times[tour.appearances[v][0]], entry)
        assert _agree(tour.times[tour.appearances[v][-1]], exit_)


# ------------------------------------------------------------------ tests


@pytest.fixture
def paper_tree():
    """The example tree from §3's figure: rt=a with the given weights."""
    g = WeightedGraph()
    g.add_edge("a", "b", 2.0)
    g.add_edge("a", "g", 2.0)
    g.add_edge("b", "c", 1.0)
    g.add_edge("b", "d", 3.0)
    g.add_edge("d", "e", 3.0)
    g.add_edge("d", "f", 4.0)
    return g


class TestTourStructure:
    def test_size_is_2n_minus_1(self):
        t = random_tree(30, seed=1)
        tour = compute_euler_tour(t, 0)
        assert tour.size == 2 * 30 - 1

    def test_total_length_is_twice_tree_weight(self):
        t = random_tree(30, seed=2)
        tour = compute_euler_tour(t, 0)
        assert tour.length == pytest.approx(2 * t.total_weight())

    def test_appearance_counts_match_degree(self):
        """§3: appearances = deg_T(v), root gets deg(rt) + 1."""
        t = random_tree(40, seed=3)
        tour = compute_euler_tour(t, 0)
        for v in t.vertices():
            expected = t.degree(v) + (1 if v == 0 else 0)
            assert len(tour.appearances[v]) == expected

    def test_consecutive_positions_are_tree_edges(self):
        t = random_tree(25, seed=4)
        tour = compute_euler_tour(t, 0)
        for i in range(tour.size - 1):
            u, v = tour.order[i], tour.order[i + 1]
            assert t.has_edge(u, v)
            assert tour.times[i + 1] - tour.times[i] == pytest.approx(t.weight(u, v))

    def test_starts_and_ends_at_root(self):
        t = random_tree(25, seed=5)
        tour = compute_euler_tour(t, 3)
        assert tour.order[0] == 3
        assert tour.order[-1] == 3
        assert tour.times[0] == 0.0

    def test_children_visited_in_id_order(self, paper_tree):
        tour = compute_euler_tour(paper_tree, "a")
        # preorder with id order: a b c b d e d f d b a g a
        assert tour.order == list("abcbdedfdbaga")

    def test_paper_example_visit_times(self, paper_tree):
        tour = compute_euler_tour(paper_tree, "a")
        # cumulative weights along a-b(2) b-c(1) c-b(1) b-d(3) d-e(3) ...
        assert tour.times[:6] == pytest.approx([0, 2, 3, 4, 7, 10])
        assert tour.length == pytest.approx(2 * paper_tree.total_weight())


class TestStagedIntervals:
    """The §3.3 reference's intervals, checked on their own."""

    def test_interval_length_is_subtree_tour(self):
        t = random_tree(30, seed=6)
        tour = compute_euler_tour(t, 0)
        entry, exit_ = _staged(t, 0)[2][0]
        assert entry == 0.0
        assert exit_ == pytest.approx(tour.length)

    def test_child_interval_nested_in_parent(self):
        t = random_tree(30, seed=7)
        intervals = _staged(t, 0)[2]
        for p, children in decompose_fragments(t, 0).children.items():
            pa, pb = intervals[p]
            for v in children:
                a, b = intervals[v]
                assert pa <= a <= b <= pb

    def test_leaf_interval_is_degenerate(self):
        intervals = _staged(star_graph(6), 0)[2]
        for leaf in range(1, 6):
            a, b = intervals[leaf]
            assert a == pytest.approx(b)

    def test_local_length_is_global_length_inside_one_fragment(self):
        """ℓ(v) = g(v) when v's whole subtree lies in v's fragment."""
        t = random_tree(60, seed=8)
        local_len, global_len, _ = _staged(t, 0)
        decomp = decompose_fragments(t, 0)
        children, frag_of = decomp.children, _fragment_of(decomp)

        def subtree(v):
            out, stack = [], [v]
            while stack:
                u = stack.pop()
                out.append(u)
                stack.extend(children[u])
            return out

        inside = 0
        for v in t.vertices():
            if all(frag_of[u] == frag_of[v] for u in subtree(v)):
                assert local_len[v] == global_len[v]
                inside += 1
            else:
                assert local_len[v] < global_len[v]
        assert 0 < inside < t.n


class TestStagedReferenceAgrees:
    """The direct walk against the staged computation it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 150])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_trees(self, n, seed):
        t = random_tree(n, seed=seed)
        for root in sorted({0, n // 2, n - 1}):
            _assert_staged_agrees(compute_euler_tour(t, root))

    def test_paper_tree(self, paper_tree):
        _assert_staged_agrees(compute_euler_tour(paper_tree, "a"))

    @pytest.mark.parametrize("seed, factor", [(5, 1e6), (6, 1e9), (5, 1e12)])
    def test_heavy_weights(self, seed, factor):
        g = random_geometric_graph(40, seed=seed).reweighted(
            lambda u, v, w: w * factor)
        mst = kruskal_mst(g)
        for root in (0, 20):
            _assert_staged_agrees(compute_euler_tour(mst, root))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees_with_random_weights(self, seed):
        rng = random.Random(seed)
        t = random_tree(80, seed=seed).reweighted(
            lambda u, v, w: 10.0 ** rng.uniform(-6, 12))
        _assert_staged_agrees(compute_euler_tour(t, 0))


class TestRoundAccounting:
    def test_rounds_positive_and_itemized(self):
        t = random_tree(50, seed=8)
        tour = compute_euler_tour(t, 0)
        phases = tour.ledger.by_phase()
        assert tour.rounds > 0
        for expected in (
            "broadcast-fragment-tree",
            "local-tour-lengths",
            "broadcast-root-lengths",
            "global-tour-lengths",
            "local-dfs-intervals",
            "convergecast-root-intervals",
            "broadcast-shifts",
            "unweighted-index-pass",
        ):
            assert expected in phases

    def test_rounds_scale_sublinearly(self):
        """Lemma 2: Õ(√n + D) — so rounds(4n) should be about 2x rounds(n)."""
        small = compute_euler_tour(path_graph(64), 0).rounds
        large = compute_euler_tour(path_graph(256), 0).rounds
        assert large < 3.5 * small  # 2x expected, generous slack

    def test_precomputed_decomposition_reused(self):
        t = random_tree(40, seed=9)
        decomp = decompose_fragments(t, 0)
        tour = compute_euler_tour(t, 0, decomposition=decomp)
        assert tour.size == 2 * 40 - 1
        fresh = compute_euler_tour(t, 0)
        assert (tour.order, tour.times) == (fresh.order, fresh.times)
        assert tour.ledger.by_phase() == fresh.ledger.by_phase()

    def test_walk_reads_the_decomposition_without_rooting_again(self, monkeypatch):
        """T is rooted once: handed a decomposition, the tour neither
        checks the tree again nor orients it again."""
        t = random_tree(40, seed=9)
        decomp = decompose_fragments(t, 0)
        want = compute_euler_tour(t, 0, decomp, 5)

        def refused(*args, **kwargs):
            raise AssertionError("the tour rooted T again")

        monkeypatch.setattr(type(t), "is_tree", refused)
        monkeypatch.setattr(fragments_module, "_rooted_children", refused)
        got = compute_euler_tour(t, 0, decomp, 5)
        assert (got.order, got.times, got.ledger.by_phase()) == (
            want.order, want.times, want.ledger.by_phase())

    def test_decomposition_of_another_tree_rejected(self):
        t = random_tree(30, seed=10)
        copy = t.copy()
        with pytest.raises(ValueError, match="another tree or root"):
            compute_euler_tour(copy, 0, decompose_fragments(t, 0))

    def test_decomposition_of_another_root_rejected(self):
        t = random_tree(30, seed=10)
        with pytest.raises(ValueError, match="another tree or root"):
            compute_euler_tour(t, 3, decompose_fragments(t, 0))


class TestValidation:
    def test_non_tree_rejected(self, triangle):
        with pytest.raises(ValueError):
            compute_euler_tour(triangle, 0)

    def test_single_vertex_tree(self):
        g = WeightedGraph([0])
        tour = compute_euler_tour(g, 0)
        assert tour.order == [0]
        assert tour.length == 0.0


class TestWeightScale:
    """The constructions that walk the tour stay correct at large
    weights (the staged reference agrees with the walk there too, see
    ``TestStagedReferenceAgrees.test_heavy_weights``)."""

    @pytest.mark.parametrize("seed, factor", [(5, 1e6), (6, 1e9), (5, 1e12)])
    def test_slt_and_light_spanner_on_heavy_weights(self, seed, factor):
        g = random_geometric_graph(40, seed=seed).reweighted(
            lambda u, v, w: w * factor)
        slt = shallow_light_tree(g, 0, 2.0)
        assert slt.tree.is_tree()
        assert set(slt.tree.vertices()) == set(g.vertices())
        res = light_spanner(g, 2, 0.25, random.Random(seed))
        assert max_edge_stretch(g, res.spanner) <= res.stretch_bound * (1 + 1e-9)
