"""§7's explorations resume across scales, and reproduce the loop that
re-ran them, byte for byte.

Each net point's one-label search starts the first time the point joins
the net and resumes at every later scale it is in: it settles the
vertices whose label is at most 2Δ and keeps its labels, parents,
settled list, heap and walked set.  The reference below is a verbatim
copy of the scale loop before that, with a verbatim copy of its search:
a search is kept while the radius stays below its ``clip``, the
smallest tentative label it left above its radius, and re-runs from
scratch once the radius reaches it.  The two must give the same spanner
edges in the same insertion order, the same ledger and the same
per-scale statistics, on the golden inputs, inputs relabelled to
strings and to shuffled ints, distributed nets, an input whose net
point leaves the net and rejoins it, and the hypothesis graphs of
``tests/test_properties_doubling.py``.
"""

import heapq
import importlib
import math
import random
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

import pytest

from repro.congest.bfs import build_bfs_tree
from repro.congest.ledger import RoundLedger
from repro.core.doubling_spanner import (
    ScaleStats,
    bounded_exploration_cost,
    doubling_spanner,
    en16_round_cost,
)
from repro.core.nets import build_net, greedy_net
from repro.determinism import ensure_rng
from repro.graphs import WeightedGraph, erdos_renyi_graph, grid_graph, random_geometric_graph
from repro.graphs.weighted_graph import Vertex
from repro.kernels.pykern import PARENT_SOURCE, PARENT_UNREACHED
from repro.lelists.le_lists import fl16_round_cost
from repro.mst.kruskal import kruskal_mst

from test_doubling_spanner import _relabelled, golden_input

DOUBLING = importlib.import_module("repro.core.doubling_spanner")
INF = math.inf


class Rerun(NamedTuple):
    """One run of the reference search: labels, parents, the settled
    indices in settle order, and the smallest tentative label above the
    radius (∞ when there is none)."""

    dist: List[float]
    parent: List[int]
    reached: List[int]
    clip: float


def rerun_search(graph, sources, radius, eps):
    """The one-label search that re-ran past its clip, verbatim: Dijkstra
    over the rounded column, popping while the smallest label is at most
    ``radius``."""
    if not radius >= 0:
        raise ValueError(f"radius must be a number >= 0, got {radius!r}")
    if math.isnan(eps):
        raise ValueError(f"eps must not be NaN, got {eps!r}")
    csr = graph.freeze()
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    rounded = csr.rounded_weights(eps)
    dist: List[float] = [INF] * n
    parent: List[int] = [PARENT_UNREACHED] * n
    reached: List[int] = []
    heap: List[Tuple[float, int]] = []
    for s in sources:
        i = csr.index_of(s)
        if parent[i] != PARENT_SOURCE:  # a repeated source starts once
            dist[i] = 0.0
            parent[i] = PARENT_SOURCE
            heap.append((0.0, i))
    heapq.heapify(heap)
    push, pop, settle = heapq.heappush, heapq.heappop, reached.append
    while heap and heap[0][0] <= radius:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry
        settle(u)
        a, b = indptr[u], indptr[u + 1]
        for v, r in zip(indices[a:b], rounded[a:b]):
            nd = d + r
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    while heap and heap[0][0] > dist[heap[0][1]]:
        pop(heap)  # stale entries above the radius
    return Rerun(dist, parent, reached, heap[0][0] if heap else INF)


#: a net point's last exploration: clip, label list, parent list,
#: reached list and walked set, over the frozen view's dense indices
_Memo = Tuple[float, List[float], List[int], List[int], Set[int]]


def rerun_past_clip_spanner(graph, eps, rng=None, net_method="distributed"):
    """The scale loop that re-ran each search once the radius reached its
    clip, verbatim.  Returns the spanner, the ledger and the per-scale
    statistics."""
    if not 0 < eps < 0.125:
        raise ValueError(f"eps must be in (0, 1/8), got {eps}")
    if net_method not in ("distributed", "greedy"):
        raise ValueError(f"unknown net_method {net_method!r}")
    n = graph.n
    if n == 0:
        raise ValueError("doubling_spanner needs a graph with at least one vertex")
    rng = ensure_rng(rng)
    root = min(graph.vertices(), key=repr)

    ledger = RoundLedger()
    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height

    mst_weight = kruskal_mst(graph).total_weight()
    spanner = WeightedGraph(graph.vertices())
    scales: List[ScaleStats] = []
    csr = graph.freeze()  # shared by every per-net-point exploration
    verts, index_of = csr.verts, csr.index_of
    # net points are visited, and walked to, by ascending repr; rank[i]
    # orders vertex i's repr, and equal reprs share a rank
    reprs = [repr(v) for v in verts]
    order = {r: k for k, r in enumerate(sorted(set(reprs)))}
    rank = [order[r] for r in reprs]

    base = 1.0 + eps
    # the scales start at the lightest edge, so that edge is explored,
    # and end at w(T); with no edge (n = 1) one scale at Δ = 1 visits
    # the lone vertex
    if csr.m:
        w_min = csr.min_weight()
        num_scales = math.ceil(math.log(mst_weight / w_min, base)) + 1
    else:
        w_min, num_scales = 1.0, 1
    delta = 0.5  # the paper's "e.g., we can take δ = 1/2"
    skeleton_size = max(1, math.ceil(math.sqrt(n * max(math.log(n + 1), 1.0))))
    beta = max(1, math.ceil(math.log2(n + 1)))  # charged [EN16] hopbound
    # net-point index -> its last exploration.  The search repeats itself
    # decision for decision at every radius below its clip, and the
    # radius 2·(1+ε)^i grows strictly with i, so an exploration re-runs
    # only once the radius reaches its clip.
    explored: List[Optional[_Memo]] = [None] * n
    # carried from scale to scale: the path count of each net point's
    # last walk, and per vertex how many of the last net's explorations
    # reached it
    paths: List[int] = [0] * n
    load: List[int] = [0] * n
    last_net: Set[int] = set()
    max_overlap = 0

    for i in range(num_scales):
        scale = w_min * base ** i
        scale_ledger = RoundLedger()

        # --- net with covering radius εΔ/2 (Δ_net = εΔ/3, δ = 1/2) ---
        net_param = eps * scale / 3.0
        if net_method == "distributed":
            net_res = build_net(graph, net_param, delta, rng, root=root)
            net_points: Set[Vertex] = net_res.points
            scale_ledger.merge(net_res.ledger, prefix=f"scale{i}:net:")
        else:
            net_points = greedy_net(graph, net_param)
            iters = math.ceil(math.log2(n + 2))
            scale_ledger.charge(
                f"scale{i}:net", iters * fl16_round_cost(n, height, delta)
            )

        # --- [EN16] hopset for this scale's explorations (charged, not built) ---
        scale_ledger.charge(f"scale{i}:hopset", en16_round_cost(n, height, beta))

        # --- 2Δ-bounded explorations from every net point ---
        radius = 2.0 * scale
        # in the set's own order, so paths enter the spanner in that order
        net = [index_of(v) for v in net_points]
        net_set = set(net)
        left = last_net - net_set
        for u in left:  # an exploration leaves the count with its net point
            gone = explored[u]
            if gone is not None:  # always: the last net was explored
                for x in gone[3]:
                    load[x] -= 1
        changed = bool(left)
        same_net = net_set == last_net
        paths_added = 0
        for u in sorted(net, key=rank.__getitem__):
            memo = explored[u]
            # a net point that stays keeps its tree in the count, and over
            # an unchanged net that tree's last walk added every path a
            # walk would add now, so only its path count is read again
            counted, known = u in last_net, same_net
            if memo is None or radius >= memo[0]:
                if memo is not None and counted:
                    for x in memo[3]:
                        load[x] -= 1
                run = rerun_search(csr, [verts[u]], radius, eps)
                memo = explored[u] = (run.clip, run.dist, run.parent, run.reached,
                                      set())
                counted = known = False
            if not counted:
                for x in memo[3]:
                    load[x] += 1
                changed = True
            if not known:
                paths[u] = _rerun_walk(spanner, graph, verts, net, rank, u, memo, radius)
            paths_added += paths[u]
        if changed:
            max_overlap = max(load)
        last_net = net_set
        scale_ledger.charge(
            f"scale{i}:explorations",
            bounded_exploration_cost(n, height, beta, max_overlap, skeleton_size),
        )

        ledger.merge(scale_ledger)
        scales.append(
            ScaleStats(
                index=i,
                scale=scale,
                net_size=len(net_points),
                paths_added=paths_added,
                max_overlap=max_overlap,
                rounds=scale_ledger.total,
            )
        )

    return spanner, ledger, scales


def _rerun_walk(spanner: WeightedGraph, graph: WeightedGraph, verts: Sequence[Vertex],
          net: List[int], rank: List[int], u: int, memo: _Memo, radius: float) -> int:
    """Add to ``spanner`` the path to ``u`` from every net point ranked
    above it that ``u``'s tree settled, a label at most ``radius``, in
    ``net``'s order, and return how many paths that is.  A vertex in the
    tree's walked set leads to ``u`` over edges a walk of this tree
    added, so a walk stops there; a label is looked up only to ask for,
    and add, an edge."""
    _clip, label, parent, _reached, walked = memo
    rank_u = rank[u]
    count = 0
    for v in net:
        if rank[v] <= rank_u or label[v] > radius:
            continue
        node = v
        while node not in walked and parent[node] >= 0:
            walked.add(node)
            prev = parent[node]
            a, b = verts[prev], verts[node]
            if not spanner.has_edge(a, b):
                spanner.add_edge(a, b, graph.weight(a, b))
            node = prev
        count += 1
    return count


def assert_same_as_rerunning(graph, eps, seed, net_method):
    """The construction and the reference agree edge for edge, in
    insertion order, ledger entry for ledger entry and scale for scale;
    returns the construction's result."""
    res = doubling_spanner(graph, eps, random.Random(seed), net_method=net_method)
    spanner, ledger, scales = rerun_past_clip_spanner(
        graph, eps, random.Random(seed), net_method)
    assert list(res.spanner.edges()) == list(spanner.edges())
    assert res.ledger.entries() == ledger.entries()
    assert res.scales == scales
    return res


def _logged(graph, eps, seed, monkeypatch):
    """A greedy-net construction's nets, one set per scale, and the
    sources of the searches it started, in order."""
    nets, started = [], []
    net, start = DOUBLING.greedy_net, DOUBLING.bounded_approx_spt

    def logged_net(g, radius):
        points = net(g, radius)
        nets.append(set(points))
        return points

    def logged_start(csr, sources, radius, e):
        started.extend(sources)
        return start(csr, sources, radius, e)

    with monkeypatch.context() as patch:
        patch.setattr(DOUBLING, "greedy_net", logged_net)
        patch.setattr(DOUBLING, "bounded_approx_spt", logged_start)
        doubling_spanner(graph, eps, random.Random(seed), net_method="greedy")
    return nets, started


class TestResumeParity:
    @pytest.mark.parametrize("name", ["geo1", "geo2", "geo3", "grid-smoke", "geo-stress"])
    def test_golden_inputs(self, name):
        graph, eps, seed = golden_input(name)
        assert_same_as_rerunning(graph, eps, seed, "greedy")

    @pytest.mark.parametrize("net_method", ["greedy", "distributed"])
    @pytest.mark.parametrize("how", ["strings", "shuffled"])
    @pytest.mark.parametrize("family", ["geometric", "ties"])
    def test_labels_that_are_not_indices(self, family, how, net_method):
        base = (random_geometric_graph(25, seed=1) if family == "geometric"
                else grid_graph(5, 5))  # every weight 1: ties everywhere
        g = _relabelled(base, how, seed=3)
        index_of = g.freeze().index_of
        assert sum(index_of(v) != v for v in g.vertices()) > 20
        assert_same_as_rerunning(g, 0.08, 1, net_method)

    @pytest.mark.parametrize("n, seed, eps", [(20, 6, 0.1), (25, 2, 0.08), (30, 3, 0.05)])
    def test_distributed_nets(self, n, seed, eps):
        g = random_geometric_graph(n, seed=seed)
        assert_same_as_rerunning(g, eps, seed, "distributed")

    @pytest.mark.parametrize("factor", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_weights_far_from_one(self, factor):
        g = erdos_renyi_graph(25, 4.0 / 25, seed=1).reweighted(
            lambda u, v, w: w * factor)
        assert_same_as_rerunning(g, 0.08, 1, "greedy")

    def test_a_net_point_that_leaves_and_rejoins(self, monkeypatch):
        g, eps, seed = erdos_renyi_graph(20, 0.2, seed=1), 0.08, 1
        nets, started = _logged(g, eps, seed, monkeypatch)
        rejoins: List[Vertex] = []
        gone: Set[Vertex] = set()
        for before, after in zip(nets, nets[1:]):
            rejoins += after & gone
            gone = (gone | (before - after)) - after
        assert rejoins
        # one search per point that was ever in the net: a point that
        # leaves keeps its search, and resumes it when it rejoins
        assert len(started) == len(set(started)) == len(set().union(*nets))
        assert_same_as_rerunning(g, eps, seed, "greedy")
