"""§7 scales carry their walks and participation count across scales.

``doubling_spanner`` walks a net point's tree into the spanner only
when the net changed since the last scale or the point's exploration
re-ran, and keeps one per-vertex participation count that a net point's
reached list enters and leaves with the point or its exploration.  The
reference below is a verbatim copy of the scale loop before that: every
net point walks at every scale, and each scale counts participation
afresh with a ``Counter``.  The two must give the same spanner edges in
the same insertion order, the same ledger and the same per-scale
statistics, on the golden inputs, string labels, distributed nets, an
input whose greedy net drops a point and takes it back, and an input
whose net stays while only some of its explorations re-run.
"""

import importlib
import math
import random
from collections import Counter
from itertools import chain
from typing import List, Optional, Set, Tuple

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
from repro.graphs import WeightedGraph, erdos_renyi_graph, random_geometric_graph
from repro.graphs.weighted_graph import Vertex
from repro.harness.profiles import get_profile
from repro.kernels.pykern import PARENT_UNREACHED
from repro.mst.kruskal import kruskal_mst
from repro.spt.approx_spt import bounded_approx_spt

DOUBLING = importlib.import_module("repro.core.doubling_spanner")


def walk_every_point_spanner(graph, eps, rng=None, net_method="distributed"):
    """The scale loop before walks and participation were carried
    across scales, verbatim: every net point walks at every scale and
    each scale builds its own ``Counter``.  Returns the spanner, the
    ledger and the per-scale statistics."""
    n = graph.n
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
    verts, index_of, unreached = csr.verts, csr.index_of, PARENT_UNREACHED
    # net points are visited, and walked to, by ascending repr; rank[i]
    # orders vertex i's repr, and equal reprs share a rank
    reprs = [repr(v) for v in verts]
    order = {r: k for k, r in enumerate(sorted(set(reprs)))}
    rank = [order[r] for r in reprs]

    base = 1.0 + eps
    num_scales = max(1, math.ceil(math.log(max(mst_weight, base), base))) + 1
    # the smallest scale must not exceed the lightest edge, or edges
    # lighter than 1 are never explored
    first_scale = min(0, math.floor(math.log(csr.min_weight(), base))) if csr.m else 0
    delta = 0.5  # the paper's "e.g., we can take δ = 1/2"
    skeleton_size = max(1, math.ceil(math.sqrt(n * max(math.log(n + 1), 1.0))))
    beta = max(1, math.ceil(math.log2(n + 1)))  # charged [EN16] hopbound
    # net-point index -> (clip, parent list, reached indices, walked set)
    # of its last exploration, all over csr's dense indices.  The search
    # repeats itself decision for decision at every radius below its
    # clip, and the radius 2·(1+ε)^i grows strictly with i, so an
    # exploration re-runs only once the radius reaches its clip.
    explored: List[Optional[Tuple[float, List[int], List[int], Set[int]]]] = [None] * n

    for i in range(first_scale, num_scales):
        scale = base ** i
        scale_ledger = RoundLedger()

        # --- net with covering radius εΔ/2 (Δ_net = εΔ/3, δ = 1/2) ---
        net_param = eps * scale / 3.0
        if net_method == "distributed":
            net_res = build_net(graph, net_param, delta, rng, root=root)
            net_points: Set[Vertex] = net_res.points
            scale_ledger.merge(net_res.ledger, prefix=f"scale{i}:net:")
        else:
            net_points = greedy_net(graph, net_param)
            from repro.lelists.le_lists import fl16_round_cost

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
        reached_lists: List[List[int]] = []
        paths_added = 0
        for u in sorted(net, key=rank.__getitem__):
            memo = explored[u]
            if memo is None or radius >= memo[0]:
                run = bounded_approx_spt(csr, [verts[u]], radius, eps)
                memo = explored[u] = (run.clip, run.parent, run.reached, set())
            _clip, parent, reached, walked = memo
            reached_lists.append(reached)
            # every vertex on an already-walked path leads to u over edges
            # a walk of this same tree added, at this scale or an earlier
            # one, so a later walk stops there
            rank_u = rank[u]
            for v in net:
                if rank[v] <= rank_u or parent[v] == unreached:
                    continue
                # add the reported path to the spanner; a label is
                # looked up only to ask for, and add, an edge
                node = v
                while node not in walked and parent[node] >= 0:
                    walked.add(node)
                    prev = parent[node]
                    a, b = verts[prev], verts[node]
                    if not spanner.has_edge(a, b):
                        spanner.add_edge(a, b, graph.weight(a, b))
                    node = prev
                paths_added += 1
        participation = Counter(chain.from_iterable(reached_lists))
        max_overlap = max(participation.values(), default=0)
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


def assert_same_as_walking_every_point(graph, eps, seed, net_method):
    """The construction and the reference agree edge for edge, in
    insertion order, phase for phase and scale for scale; returns the
    construction's result."""
    res = doubling_spanner(graph, eps, random.Random(seed), net_method=net_method)
    spanner, ledger, scales = walk_every_point_spanner(
        graph, eps, random.Random(seed), net_method)
    assert list(res.spanner.edges()) == list(spanner.edges())
    assert res.ledger.by_phase() == ledger.by_phase()
    assert res.scales == scales
    return res


def _scale_log(graph, eps, seed, monkeypatch):
    """Per scale of a greedy-net construction: the net, the net points
    whose exploration ran, and the net points that walked."""
    log = []
    net, spt, walk = DOUBLING.greedy_net, DOUBLING.bounded_approx_spt, DOUBLING._walk

    def logged_net(g, radius):
        points = net(g, radius)
        log.append((set(points), set(), set()))
        return points

    def logged_spt(csr, sources, radius, e):
        log[-1][1].update(sources)
        return spt(csr, sources, radius, e)

    def logged_walk(spanner, g, verts, points, rank, u, memo):
        log[-1][2].add(verts[u])
        return walk(spanner, g, verts, points, rank, u, memo)

    with monkeypatch.context() as patch:
        patch.setattr(DOUBLING, "greedy_net", logged_net)
        patch.setattr(DOUBLING, "bounded_approx_spt", logged_spt)
        patch.setattr(DOUBLING, "_walk", logged_walk)
        doubling_spanner(graph, eps, random.Random(seed), net_method="greedy")
    return log


def _golden_input(name):
    """The inputs ``tests/test_doubling_golden.py`` pins, with their ε
    and seed."""
    if name == "grid-smoke":
        profile = get_profile("doubling-grid")
        return profile.build_graph("smoke"), 0.1, profile.seed
    if name == "geo-stress":
        profile = get_profile("doubling-geometric")
        return profile.build_graph("stress"), profile.params["eps"], profile.seed
    seed = int(name[len("geo"):])
    return random_geometric_graph(30, seed=seed), 0.08, seed


def _strings(g):
    """``g`` with labels ``v00``… that sort in the reverse of the
    vertices' insertion order, so no label is its index."""
    verts = list(g.vertices())
    name = {v: "v%02d" % (len(verts) - 1 - k) for k, v in enumerate(verts)}
    out = WeightedGraph(name[v] for v in verts)
    for u, v, w in g.edges():
        out.add_edge(name[u], name[v], w)
    return out


#: a greedy net that drops a point and takes it back at a later scale
REJOIN = (lambda: erdos_renyi_graph(20, 0.2, seed=1), 0.08, 1)
#: nets that stay from one scale to the next while only some of their
#: explorations re-run
PARTIAL = (lambda: random_geometric_graph(12, seed=1), 0.08, 1)


class TestCarriedStateParity:
    @pytest.mark.parametrize("name", ["geo1", "geo2", "geo3", "grid-smoke", "geo-stress"])
    def test_golden_inputs(self, name):
        graph, eps, seed = _golden_input(name)
        assert_same_as_walking_every_point(graph, eps, seed, "greedy")

    @pytest.mark.parametrize("net_method", ["greedy", "distributed"])
    def test_string_labels(self, net_method):
        g = _strings(random_geometric_graph(25, seed=1))
        assert sum(g.freeze().index_of(v) != int(v[1:]) for v in g.vertices()) > 20
        assert_same_as_walking_every_point(g, 0.08, 1, net_method)

    @pytest.mark.parametrize("n, seed, eps", [(20, 6, 0.1), (25, 2, 0.08), (30, 3, 0.05)])
    def test_distributed_nets(self, n, seed, eps):
        g = random_geometric_graph(n, seed=seed)
        assert_same_as_walking_every_point(g, eps, seed, "distributed")

    def test_a_net_point_that_leaves_and_rejoins(self, monkeypatch):
        make, eps, seed = REJOIN
        log = _scale_log(make(), eps, seed, monkeypatch)
        # (re-ran its exploration, walked) per point and scale it rejoins at
        rejoins = []
        gone: Set[Vertex] = set()
        for (before, _ran, _walked), (after, ran, walked) in zip(log, log[1:]):
            rejoins += [(v in ran, v in walked) for v in after & gone]
            gone = (gone | (before - after)) - after
        # some point comes back with the tree it kept, which re-enters
        # the count, and every point that comes back walks again
        assert (False, True) in rejoins
        assert all(walked for _ran, walked in rejoins)
        assert_same_as_walking_every_point(make(), eps, seed, "greedy")

    def test_a_net_that_stays_while_some_explorations_rerun(self, monkeypatch):
        make, eps, seed = PARTIAL
        log = _scale_log(make(), eps, seed, monkeypatch)
        partial = [(net, ran, walked) for (last, _r, _w), (net, ran, walked)
                   in zip(log, log[1:]) if net == last and 0 < len(ran) < len(net)]
        assert partial
        # over an unchanged net, exactly the points that explored again walk
        assert all(walked == ran for _net, ran, walked in partial)
        assert_same_as_walking_every_point(make(), eps, seed, "greedy")


class TestWalks:
    def test_a_visit_walks_only_where_the_net_or_its_tree_changed(self, monkeypatch):
        graph, eps, seed = _golden_input("geo1")
        log = _scale_log(graph, eps, seed, monkeypatch)
        last: Set[Vertex] = set()
        for net, ran, walked in log:
            assert walked == (net if net != last else ran)
            last = net
