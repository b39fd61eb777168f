"""Tests for the CONGEST simulator, BFS, primitives and ledger."""

import pytest

from repro.congest import (
    BandwidthViolation,
    CongestAlgorithm,
    RoundLedger,
    SyncNetwork,
    broadcast_rounds,
    build_bfs_tree,
    convergecast_rounds,
    payload_words,
    pipelined_aggregate_rounds,
)
from repro.congest.primitives import local_phase_rounds
from repro.graphs import (
    WeightedGraph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hop_distances,
    path_graph,
    star_graph,
)


class TestPayloadWords:
    def test_scalars(self):
        assert payload_words(5) == 1
        assert payload_words(3.14) == 1
        assert payload_words(True) == 1
        assert payload_words(None) == 0

    def test_strings(self):
        assert payload_words("join") == 1
        assert payload_words("x" * 17) == 3

    def test_containers(self):
        assert payload_words((1, 2.0)) == 2
        assert payload_words([1, 2, 3]) == 3
        assert payload_words({"k": 1}) == 2
        assert payload_words(()) == 1  # a message always costs >= 1 word


class _Flood(CongestAlgorithm):
    """Each node forwards the max value it has seen (test algorithm)."""

    def setup(self, node):
        node.state["val"] = hash(node.id) % 100
        return {nbr: node.state["val"] for nbr in node.neighbors}

    def step(self, node, inbox):
        new = max(inbox.values(), default=node.state["val"])
        if new > node.state["val"]:
            node.state["val"] = new
            return {nbr: new for nbr in node.neighbors}
        return {}


class _Oversender(CongestAlgorithm):
    def setup(self, node):
        return {nbr: tuple(range(100)) for nbr in node.neighbors}


class _NonNeighborSender(CongestAlgorithm):
    def __init__(self, target):
        self.target = target

    def setup(self, node):
        return {self.target: 1}


class TestSyncNetwork:
    def test_flood_converges_to_global_max(self):
        g = cycle_graph(9)
        net = SyncNetwork(g)
        net.run(_Flood())
        vals = {net.view(v).state["val"] for v in g.vertices()}
        assert len(vals) == 1  # everyone agrees

    def test_flood_round_count_bounded_by_diameter(self):
        g = cycle_graph(10)
        net = SyncNetwork(g)
        rounds = net.run(_Flood())
        assert rounds <= 10 // 2 + 2

    def test_bandwidth_enforced(self):
        net = SyncNetwork(path_graph(3), words_per_message=4)
        with pytest.raises(BandwidthViolation):
            net.run(_Oversender())

    def test_non_neighbor_send_rejected(self):
        g = path_graph(4)
        net = SyncNetwork(g)
        with pytest.raises(ValueError):
            net.run(_NonNeighborSender(target=3))

    def test_runaway_algorithm_raises(self):
        class Chatter(CongestAlgorithm):
            def setup(self, node):
                return {nbr: 1 for nbr in node.neighbors}

            def step(self, node, inbox):
                return {nbr: 1 for nbr in node.neighbors}

            def is_done(self, node):
                return False

        with pytest.raises(RuntimeError):
            SyncNetwork(path_graph(3)).run(Chatter(), max_rounds=10)

    def test_reset_clears_state_and_counters(self):
        g = cycle_graph(6)
        net = SyncNetwork(g)
        net.run(_Flood())
        net.reset()
        assert net.rounds_executed == 0
        assert net.messages_sent == 0
        assert net.view(0).state == {}

    def test_message_accounting(self):
        g = path_graph(2)
        net = SyncNetwork(g)
        net.run(_Flood())
        assert net.messages_sent >= 2  # at least the setup exchange


class TestSparseEngine:
    def test_stall_raises_contract_error(self):
        """A node that is never done but requests no wake and gets no mail
        can never make progress: the engine fails fast instead of
        spinning to max_rounds."""

        class Sleeper(CongestAlgorithm):
            def is_done(self, node):
                return False

        with pytest.raises(RuntimeError, match="activity contract"):
            SyncNetwork(path_graph(3)).run(Sleeper())

    def test_poller_rewakes_every_round(self):
        """A polling program (steps itself by the global round counter,
        no mail) requests a wake in setup and in every step."""

        class Poller(CongestAlgorithm):
            def setup(self, node):
                node.request_wake()
                return {}

            def step(self, node, inbox):
                node.state["last_round"] = node.round
                if not self.is_done(node):
                    node.request_wake()
                return {}

            def is_done(self, node):
                return node.state.get("last_round", 0) >= 3

        net = SyncNetwork(path_graph(3))
        rounds = net.run(Poller())
        assert rounds >= 3
        for v in range(3):
            assert net.view(v).state["last_round"] >= 3

    def test_wake_request_drives_local_work(self):
        """request_wake steps a node next round even without mail."""

        class Countdown(CongestAlgorithm):
            def setup(self, node):
                node.state["n"] = 3
                node.request_wake()
                return {}

            def step(self, node, inbox):
                node.state["n"] -= 1
                if node.state["n"] > 0:
                    node.request_wake()
                return {}

            def is_done(self, node):
                return node.state["n"] == 0

        net = SyncNetwork(path_graph(2))
        rounds = net.run(Countdown())
        assert rounds >= 3
        assert all(net.view(v).state["n"] == 0 for v in range(2))

    def test_global_round_counter_visible_to_nodes(self):
        class Recorder(CongestAlgorithm):
            def setup(self, node):
                node.request_wake()
                return {}

            def step(self, node, inbox):
                node.state.setdefault("rounds", []).append(node.round)
                if not self.is_done(node):
                    node.request_wake()
                return {}

            def is_done(self, node):
                return len(node.state.get("rounds", [])) >= 4

        net = SyncNetwork(path_graph(2))
        net.run(Recorder())
        assert net.view(0).state["rounds"] == [1, 2, 3, 4]

    def test_active_node_rounds_utilization(self):
        """The flood keeps only changed nodes busy: the engine's step
        count is strictly below the n x step-rounds a scan-everything
        loop would pay."""
        g = cycle_graph(12)
        net = SyncNetwork(g)
        net.run(_Flood())
        assert 0 < net.active_node_rounds < g.n * (net.rounds_executed - 1)

    def test_lifetime_counters_survive_reset(self):
        g = cycle_graph(6)
        net = SyncNetwork(g)
        net.run(_Flood())
        first = (net.total_rounds, net.total_messages_sent, net.total_words_sent)
        assert first[0] == net.rounds_executed
        net.reset()
        assert net.rounds_executed == 0
        assert (net.total_rounds, net.total_messages_sent, net.total_words_sent) == first
        net.run(_Flood())
        assert net.total_rounds == first[0] + net.rounds_executed
        assert net.total_messages_sent == first[1] + net.messages_sent

    def test_counters_untouched_on_bandwidth_violation(self):
        """The whole outbox is validated before any message is counted, so
        a violation never leaves messages_sent/words_sent half-advanced."""

        class MixedOutbox(CongestAlgorithm):
            def setup(self, node):
                if node.id == 1:
                    return {0: 1, 2: tuple(range(100))}
                return {}

        net = SyncNetwork(path_graph(3), words_per_message=4)
        with pytest.raises(BandwidthViolation):
            net.run(MixedOutbox())
        assert net.messages_sent == 0
        assert net.words_sent == 0

    def test_counters_untouched_on_non_neighbor_send(self):
        net = SyncNetwork(path_graph(4))
        with pytest.raises(ValueError):
            net.run(_NonNeighborSender(target=3))
        assert net.messages_sent == 0
        assert net.words_sent == 0


class TestNodeView:
    def test_neighbors_cached_tuple(self):
        net = SyncNetwork(cycle_graph(5))
        view = net.view(0)
        first = view.neighbors
        assert isinstance(first, tuple)
        assert view.neighbors is first  # no per-access materialization
        assert set(first) == {1, 4}

    def test_payload_words_memoized(self):
        from repro.congest.simulator import _WORDS_CACHE

        payload = ("tag", 1, 2.5)
        expected = payload_words(payload)
        assert payload in _WORDS_CACHE
        assert payload_words(payload) == expected == 3
        # unhashable payloads still compute (uncached path)
        assert payload_words([1, [2, 3]]) == 3


class TestBFS:
    def test_bfs_depths_match_hop_distances(self):
        g = erdos_renyi_graph(30, 0.15, seed=2)
        tree = build_bfs_tree(g, 0)
        expected = hop_distances(g, 0)
        assert tree.depth == expected

    def test_bfs_rounds_close_to_depth(self):
        g = grid_graph(5, 5)
        tree = build_bfs_tree(g, 0)
        assert tree.height == 8
        assert tree.rounds <= tree.height + 3

    def test_bfs_parent_is_one_level_up(self):
        g = grid_graph(4, 4)
        tree = build_bfs_tree(g, 0)
        for v, p in tree.parent.items():
            if p is not None:
                assert tree.depth[v] == tree.depth[p] + 1

    def test_bfs_children_inverse_of_parent(self):
        g = star_graph(8)
        tree = build_bfs_tree(g, 0)
        children = tree.children()
        assert sorted(children[0]) == list(range(1, 8))

    def test_bfs_path_to_root(self):
        g = path_graph(5)
        tree = build_bfs_tree(g, 0)
        assert tree.path_to_root(4) == [4, 3, 2, 1, 0]

    def test_bfs_disconnected_raises(self):
        g = WeightedGraph(range(3))
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            build_bfs_tree(g, 0)


class TestPrimitives:
    def test_broadcast_rounds_lemma1_shape(self):
        assert broadcast_rounds(10, 5) == 15
        assert convergecast_rounds(10, 5) == 15
        assert pipelined_aggregate_rounds(4, 2) == 6

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            broadcast_rounds(-1, 5)
        with pytest.raises(ValueError):
            local_phase_rounds(-3)

    def test_local_phase_minimum_one(self):
        assert local_phase_rounds(0) == 1


class TestLedger:
    def test_charge_and_total(self):
        led = RoundLedger()
        led.charge("a", 5)
        led.charge("b", 7)
        led.charge("a", 3)
        assert led.total == 15
        assert led.by_phase() == {"a": 8, "b": 7}

    def test_charge_rounds_float(self):
        led = RoundLedger()
        led.charge("x", 2.6)
        assert led.total == 3

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("x", -1)

    def test_merge_with_prefix(self):
        a = RoundLedger()
        a.charge("p", 1)
        b = RoundLedger()
        b.charge("q", 2)
        a.merge(b, prefix="sub:")
        assert a.by_phase() == {"p": 1, "sub:q": 2}
        assert len(a.entries()) == 2
