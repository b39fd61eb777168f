"""A message-level Bellman–Ford program, checked against sequential references.

:class:`BoundedBellmanFord` is an honest CONGEST node program: ``hops``
synchronous relaxation rounds from a source set, with distance- and
radius-pruning, measuring real rounds.  Message: the sender's current
estimate (1 word).  With one source and a hop budget of n it quiesces
at the exact SPT, and its round count is the shortest-path hop radius —
up to n − 1 on adversarial weighted graphs, which is why the paper
reaches for the approximate SPT of [BKKL17] instead (§4: exact SPT
algorithms "require more than Õ(√n + D) rounds").

The tests validate the simulator with it: against Dijkstra, and against
:func:`hop_bounded_distances`, plain Bellman–Ford truncated at ``hops``
iterations — the object CONGEST computes in ``hops`` rounds.
"""

from typing import Dict, Iterable, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_spanning_tree
from repro.congest import build_bfs_tree
from repro.congest.algorithm import CongestAlgorithm, Inbox, NodeView, Outbox
from repro.congest.simulator import SyncNetwork
from repro.graphs import (
    WeightedGraph,
    dijkstra,
    erdos_renyi_graph,
    path_graph,
    random_geometric_graph,
)
from repro.graphs.weighted_graph import Vertex
from repro.spt import SPTree

INF = float("inf")


def hop_bounded_distances(
    graph: WeightedGraph, source: Vertex, hops: int
) -> Tuple[Dict[Vertex, float], Dict[Vertex, Optional[Vertex]]]:
    """``d^{(h)}_G(source, ·)``: lightest path using at most ``hops`` edges.

    Plain Bellman–Ford truncated at ``hops`` iterations.
    """
    dist: Dict[Vertex, float] = {source: 0.0}
    parent: Dict[Vertex, Optional[Vertex]] = {source: None}
    frontier: Set[Vertex] = {source}
    for _ in range(hops):
        updates: Dict[Vertex, Tuple[float, Vertex]] = {}
        for u in sorted(frontier, key=repr):
            du = dist[u]
            for v, w in graph.neighbor_items(u):
                nd = du + w
                if nd < dist.get(v, INF) and (v not in updates or nd < updates[v][0]):
                    updates[v] = (nd, u)
        frontier = set()
        for v, (nd, u) in updates.items():
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = u
                frontier.add(v)
        if not frontier:
            break
    return dist, parent


class BoundedBellmanFord(CongestAlgorithm):
    """``hops`` rounds of synchronous relaxation from a source set.

    State written: ``bbf_dist`` (estimate; INF when unreached or beyond
    ``radius``), ``bbf_parent``.  A node transmits only in rounds where
    its estimate improved, so the run quiesces once every estimate is
    final.
    """

    def __init__(
        self, sources: Iterable[Vertex], hops: int, radius: float = INF
    ) -> None:
        self.sources = set(sources)
        self.hops = hops
        self.radius = radius

    def setup(self, node: NodeView) -> Outbox:
        if node.id in self.sources:
            node.state["bbf_dist"] = 0.0
            node.state["bbf_parent"] = None
            return {nbr: 0.0 for nbr in node.neighbors}
        node.state["bbf_dist"] = INF
        node.state["bbf_parent"] = None
        return {}

    def step(self, node: NodeView, inbox: Inbox) -> Outbox:
        # The hop budget is metered by the global round counter (activity
        # contract: a sleeping node is not stepped, so a local invocation
        # counter would undercount and accept relaxations past the budget).
        if node.round > self.hops:
            return {}
        improved = False
        for sender, est in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            candidate = est + node.edge_weight(sender)
            if candidate <= self.radius and candidate < node.state["bbf_dist"]:
                node.state["bbf_dist"] = candidate
                node.state["bbf_parent"] = sender
                improved = True
        if improved and node.round < self.hops:
            return {nbr: node.state["bbf_dist"] for nbr in node.neighbors}
        return {}

    def is_done(self, node: NodeView) -> bool:
        return True  # quiescence (or the hop budget) ends the run


def bounded_bellman_ford(
    graph: WeightedGraph,
    sources: Iterable[Vertex],
    hops: int,
    radius: float = INF,
) -> Tuple[Dict[Vertex, float], Dict[Vertex, Optional[Vertex]], int]:
    """Run :class:`BoundedBellmanFord`; return (dist, parent, rounds).

    ``dist[v]`` is present iff v was reached within ``hops`` relaxations
    and ``radius`` total weight — ``d^{(hops)}_G`` restricted to the
    ball.

    Raises
    ------
    ValueError
        If ``hops < 1`` or no sources are given.
    """
    sources = list(sources)
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if not sources:
        raise ValueError("need at least one source")
    net = SyncNetwork(graph)
    rounds = net.run(BoundedBellmanFord(sources, hops, radius))
    dist: Dict[Vertex, float] = {}
    parent: Dict[Vertex, Optional[Vertex]] = {}
    for v in graph.vertices():
        d = net.view(v).state["bbf_dist"]
        if d < INF:
            dist[v] = d
            parent[v] = net.view(v).state["bbf_parent"]
    return dist, parent, rounds


def exact_spt_distributed(graph: WeightedGraph, root: Vertex) -> SPTree:
    """The exact SPT from ``root``, with the rounds the program took.

    A shortest path has at most n − 1 edges, so a hop budget of n never
    binds and the run ends by quiescence.

    Raises
    ------
    ValueError
        If the graph is disconnected.
    """
    dist, parent, rounds = bounded_bellman_ford(graph, [root], graph.n)
    for v in graph.vertices():
        if v not in dist:
            raise ValueError(f"graph disconnected: {v!r} unreachable from {root!r}")
    return SPTree(root=root, parent=parent, dist=dist, rounds=rounds)


_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_weighted(draw, min_n=3, max_n=14):
    n = draw(st.integers(min_n, max_n))
    g = WeightedGraph(range(n))
    weights = st.floats(1.0, 50.0, allow_nan=False, allow_infinity=False)
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v, draw(weights))
    extra = draw(st.integers(0, 8))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, draw(weights))
    return g


class TestHopBoundedDistances:
    def test_respects_hop_budget(self):
        g = path_graph(10)
        dist, _ = hop_bounded_distances(g, 0, hops=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_matches_dijkstra_with_enough_hops(self, small_er):
        bounded, _ = hop_bounded_distances(small_er, 0, hops=small_er.n)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert bounded[v] == pytest.approx(d)

    def test_finds_light_path_within_budget(self):
        # direct heavy edge vs a 2-hop light detour: budget decides
        g = WeightedGraph()
        g.add_edge(0, 2, 10.0)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        d1, _ = hop_bounded_distances(g, 0, hops=1)
        d2, _ = hop_bounded_distances(g, 0, hops=2)
        assert d1[2] == 10.0
        assert d2[2] == 2.0

    def test_parent_pointers_give_valid_path(self, small_er):
        dist, parent = hop_bounded_distances(small_er, 0, hops=6)
        for v in dist:
            node, hops = v, 0
            while parent[node] is not None:
                assert small_er.has_edge(node, parent[node])
                node = parent[node]
                hops += 1
            assert node == 0
            assert hops <= 6


class TestAgainstSequentialReference:
    @pytest.mark.parametrize("hops", [1, 3, 6])
    def test_matches_hop_bounded_distances(self, small_er, hops):
        native, _, _ = bounded_bellman_ford(small_er, [0], hops)
        reference, _ = hop_bounded_distances(small_er, 0, hops)
        assert set(native) == set(reference)
        for v, d in reference.items():
            assert native[v] == pytest.approx(d)

    def test_full_hops_matches_dijkstra(self, small_er):
        native, _, _ = bounded_bellman_ford(small_er, [0], small_er.n)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert native[v] == pytest.approx(d)

    def test_multi_source_is_min_over_sources(self, medium_er):
        sources = [0, 9, 23]
        native, _, _ = bounded_bellman_ford(medium_er, sources, medium_er.n)
        exact, _ = dijkstra(medium_er, sources)
        for v, d in exact.items():
            assert native[v] == pytest.approx(d)


class TestBudgets:
    def test_hop_budget_limits_reach(self):
        g = path_graph(12)
        dist, _, _ = bounded_bellman_ford(g, [0], hops=4)
        assert set(dist) == {0, 1, 2, 3, 4}

    def test_radius_prunes(self):
        g = path_graph(12)
        dist, _, _ = bounded_bellman_ford(g, [0], hops=12, radius=5.0)
        assert set(dist) == {0, 1, 2, 3, 4, 5}

    def test_rounds_at_most_hops_plus_constant(self):
        g = erdos_renyi_graph(40, 0.15, seed=1)
        _, _, rounds = bounded_bellman_ford(g, [0], hops=5)
        assert rounds <= 5 + 3

    def test_parent_pointers_valid(self, small_er):
        dist, parent, _ = bounded_bellman_ford(small_er, [0, 7], hops=8)
        for v in dist:
            node, total = v, 0.0
            while parent[node] is not None:
                total += small_er.weight(node, parent[node])
                node = parent[node]
            assert node in (0, 7)
            assert total == pytest.approx(dist[v])


class TestValidation:
    def test_bad_hops(self, small_er):
        with pytest.raises(ValueError):
            bounded_bellman_ford(small_er, [0], 0)

    def test_no_sources(self, small_er):
        with pytest.raises(ValueError):
            bounded_bellman_ford(small_er, [], 3)

    def test_disconnected_leaves_unreached(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        dist, _, _ = bounded_bellman_ford(g, [0], hops=5)
        assert set(dist) == {0, 1}


class TestExactSPT:
    def test_matches_dijkstra(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        exact, _ = dijkstra(small_er, 0)
        for v, d in exact.items():
            assert spt.dist[v] == pytest.approx(d)

    def test_rounds_bounded_by_hop_radius(self):
        g = path_graph(20)
        spt = exact_spt_distributed(g, 0)
        assert spt.rounds <= 20 + 3

    def test_tree_is_valid_spanning_tree(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        verify_spanning_tree(small_er, spt.as_graph(small_er))

    def test_path_to_root_follows_parents(self, small_er):
        spt = exact_spt_distributed(small_er, 0)
        for v in small_er.vertices():
            path = spt.path_to_root(v)
            assert path[0] == v and path[-1] == 0
            total = sum(
                small_er.weight(a, b) for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(spt.dist[v])

    def test_disconnected_raises(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            exact_spt_distributed(g, 0)


class TestOnDoublingGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_geometric_graph(35, seed=7)

    def test_bfs_and_spt_agree_on_root_reachability(self, graph):
        bfs = build_bfs_tree(graph, 0)
        spt = exact_spt_distributed(graph, 0)
        assert set(bfs.depth) == set(spt.dist)

    def test_spt_rounds_at_most_hops_times_slack(self, graph):
        spt = exact_spt_distributed(graph, 0)
        assert spt.rounds <= graph.n + 2


class TestBoundedBFProperties:
    @given(connected_weighted(), st.integers(1, 6))
    @settings(**_SETTINGS)
    def test_matches_sequential(self, g, hops):
        native, _, _ = bounded_bellman_ford(g, [0], hops)
        reference, _ = hop_bounded_distances(g, 0, hops)
        assert set(native) == set(reference)
        for v, d in reference.items():
            assert native[v] == pytest.approx(d)

    @given(connected_weighted())
    @settings(**_SETTINGS)
    def test_enough_hops_is_exact(self, g):
        native, _, _ = bounded_bellman_ford(g, [0], g.n)
        exact, _ = dijkstra(g, 0)
        for v, d in exact.items():
            assert native[v] == pytest.approx(d)
