"""Round-engine differential suite.

The round engine's whole claim is that it changes *what the executor
scans*, never *what the algorithm does*: a node program that honours the
activity contract must behave exactly as under a loop that steps and
polls every node every round.  :class:`DenseNetwork` is that loop, kept
here as the reference.  This suite runs every seeded CONGEST harness
profile at smoke tier, and hand-built programs, once on each network,
recording every sent message, and asserts the executions agree

* round-for-round (every message is sent in the same round),
* message-for-message (same sender, receiver and payload),
* on all traffic counters (rounds, messages, words), and
* on the final per-node state.

``active_node_rounds`` is the one quantity allowed (indeed expected) to
differ: the engine must never step more nodes than the reference.
"""

import random

import pytest

from repro.congest import CongestAlgorithm, SyncNetwork, build_bfs_tree
from repro.graphs import (
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
)
from repro.harness import congest_profiles
from repro.harness.runner import ALGORITHMS
from repro.spanners import sample_shifts
from test_bellman_ford import BoundedBellmanFord
from test_elkin_neiman_distributed import DistributedElkinNeiman


class TracingNetwork(SyncNetwork):
    """Records every non-empty outbox as (lifetime round, sender, messages).

    ``total_rounds`` is used as the timestamp because multi-phase
    builders reset the per-run counter between phases while the lifetime
    counter keeps ticking at identical points on both networks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []

    def _check_outbox(self, sender, view, outbox):
        super()._check_outbox(sender, view, outbox)
        if outbox:
            self.trace.append((
                self.total_rounds,
                sender,
                tuple(sorted(outbox.items(), key=lambda kv: repr(kv[0]))),
            ))


class DenseNetwork(TracingNetwork):
    """The scan-everything reference loop: every node is stepped and
    polled every round, so it needs no activity contract at all."""

    def _run_rounds(self, algorithm, max_rounds):
        n = len(self._verts)
        verts, vidx, view_list = self._verts, self._vidx, self._view_list
        inflight = [{} for _ in range(n)]

        # Round 0: setup.
        any_message = False
        for i in range(n):
            view = view_list[i]
            view._wake = False
            outbox = algorithm.setup(view) or {}
            sender = verts[i]
            self._check_outbox(sender, view, outbox)
            for dst, payload in outbox.items():
                inflight[vidx[dst]][sender] = payload
                any_message = True
        self.rounds_executed = 1
        self.total_rounds += 1

        is_done = algorithm.is_done
        step = algorithm.step
        while True:
            if all(is_done(view) for view in view_list) and not any_message:
                break
            if self.rounds_executed >= max_rounds:
                raise RuntimeError(
                    f"algorithm did not terminate within {max_rounds} rounds"
                )
            delivery = inflight
            inflight = [{} for _ in range(n)]
            any_message = False
            for i in range(n):
                view = view_list[i]
                view._wake = False  # wake requests are moot: everyone steps
                outbox = step(view, delivery[i]) or {}
                if outbox:
                    sender = verts[i]
                    self._check_outbox(sender, view, outbox)
                    for dst, payload in outbox.items():
                        inflight[vidx[dst]][sender] = payload
                        any_message = True
            self.total_active_node_rounds += n
            self.rounds_executed += 1
            self.total_rounds += 1
        return self.rounds_executed


def _run_profile_traced(profile, network_cls):
    graph = profile.build_graph("smoke")
    params = profile.algo_params("smoke")
    net = network_cls(graph)
    build, _certify = ALGORITHMS[profile.algorithm]
    artifact, rounds, stats = build(
        graph, params, random.Random(profile.seed), network=net
    )
    states = {v: dict(net.view(v).state) for v in graph.vertices()}
    return net, rounds, stats, states


CONGEST_PROFILES = [p.name for p in congest_profiles()]


class TestProfileParity:
    @pytest.mark.parametrize("name", CONGEST_PROFILES)
    def test_sparse_matches_dense(self, name):
        profile = next(p for p in congest_profiles() if p.name == name)
        sparse_net, sparse_rounds, sparse_stats, sparse_states = (
            _run_profile_traced(profile, TracingNetwork)
        )
        dense_net, dense_rounds, dense_stats, dense_states = (
            _run_profile_traced(profile, DenseNetwork)
        )

        assert sparse_rounds == dense_rounds
        assert sparse_stats.rounds == dense_stats.rounds
        assert sparse_stats.messages == dense_stats.messages
        assert sparse_stats.words == dense_stats.words
        # message-for-message, round-for-round
        assert sparse_net.trace == dense_net.trace
        # identical final local knowledge at every node
        assert sparse_states == dense_states
        # the engine must never step more nodes than the reference
        assert sparse_stats.active_node_rounds <= dense_stats.active_node_rounds

    @pytest.mark.parametrize("name", CONGEST_PROFILES)
    def test_sparse_engine_actually_sparser(self, name):
        """Utilization: every congest workload leaves some node idle in
        some round, so the engine steps strictly fewer nodes."""
        profile = next(p for p in congest_profiles() if p.name == name)
        _, _, sparse_stats, _ = _run_profile_traced(profile, TracingNetwork)
        _, _, dense_stats, _ = _run_profile_traced(profile, DenseNetwork)
        assert sparse_stats.active_node_rounds < dense_stats.active_node_rounds


class TestPrimitiveParity:
    """Direct engine-vs-reference checks on hand-built workloads."""

    def test_bfs_trace_identical(self):
        g = grid_graph(7, 5)
        sparse, dense = TracingNetwork(g), DenseNetwork(g)
        t1 = build_bfs_tree(g, 0, network=sparse)
        t2 = build_bfs_tree(g, 0, network=dense)
        assert t1.parent == t2.parent and t1.depth == t2.depth
        assert t1.rounds == t2.rounds
        assert sparse.trace == dense.trace

    def test_wake_driven_queue_drain(self):
        """A node draining a local queue (no incoming mail) relies on wake
        requests; rounds and messages must match the reference run."""

        class Drain(CongestAlgorithm):
            def setup(self, node):
                node.state["q"] = [1, 2, 3] if node.id == 2 else []
                return self._emit(node)

            def _emit(self, node):
                if node.id == 2 and node.state["q"]:
                    out = {1: node.state["q"].pop(0)}
                    if node.state["q"]:
                        node.request_wake()
                    return out
                return {}

            def step(self, node, inbox):
                if node.id == 1:
                    node.state.setdefault("got", []).extend(inbox.values())
                return self._emit(node)

            def is_done(self, node):
                return not node.state.get("q")

        g = path_graph(4)
        results = {}
        for network_cls in (TracingNetwork, DenseNetwork):
            net = network_cls(g)
            rounds = net.run(Drain())
            results[network_cls] = (rounds, net.total_messages_sent,
                                    net.total_words_sent, net.trace,
                                    net.view(1).state.get("got"))
        assert results[TracingNetwork] == results[DenseNetwork]
        assert results[TracingNetwork][4] == [1, 2, 3]


GRAPHS = {
    "er60": lambda: erdos_renyi_graph(60, 0.1, seed=3),
    "grid6x5": lambda: grid_graph(6, 5),
    "geo40": lambda: random_geometric_graph(40, seed=2),
}


def _bellman_ford(graph, hops):
    return BoundedBellmanFord([0], graph.n if hops == "n" else hops)


def _elkin_neiman(graph, k):
    shifts = sample_shifts(list(graph.vertices()), k, random.Random(k))
    return DistributedElkinNeiman(shifts, k)


class TestGlobalRoundParity:
    """Programs that meter themselves by ``node.round``: a wrong round
    counter on the engine's side would shift their hop budgets or
    phase ends, and the traces would diverge."""

    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("make, arg", [
        *((_bellman_ford, hops) for hops in (1, 3, 8, "n")),
        *((_elkin_neiman, k) for k in (1, 2, 3)),
    ], ids=["bf-1", "bf-3", "bf-8", "bf-n", "en-1", "en-2", "en-3"])
    def test_engine_matches_reference(self, graph_name, make, arg):
        graph = GRAPHS[graph_name]()
        runs = []
        for network_cls in (TracingNetwork, DenseNetwork):
            net = network_cls(graph)
            rounds = net.run(make(graph, arg))
            states = {v: dict(net.view(v).state) for v in graph.vertices()}
            runs.append((net, rounds, states))
        (sparse, sparse_rounds, sparse_states), (dense, dense_rounds,
                                                 dense_states) = runs

        assert sparse_rounds == dense_rounds
        assert sparse.total_messages_sent == dense.total_messages_sent
        assert sparse.total_words_sent == dense.total_words_sent
        assert sparse.trace == dense.trace
        assert sparse_states == dense_states
        assert sparse.total_active_node_rounds <= dense.total_active_node_rounds
