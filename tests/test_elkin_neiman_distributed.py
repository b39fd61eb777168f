"""The Elkin–Neiman spanner as a native CONGEST node program, and its tests.

§5 simulates [EN17b] on cluster graphs; on an ordinary unweighted
communication graph the algorithm is directly distributed — k rounds,
messages of two words ``(s(x), m(x)−1)``.  :class:`DistributedElkinNeiman`
runs it on the simulator, which (a) validates the pure-function
implementation in :mod:`repro.spanners.elkin_neiman` against a
message-level execution, and (b) demonstrates the O(k)-round claim with
*measured* rounds.

Shift values travel as floats; ids as vertex ids — 2 words, inside the
model's O(log n)-bit budget (footnote 8).
"""

import random

from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

import pytest

from repro.congest.algorithm import CongestAlgorithm, Inbox, NodeView, Outbox
from repro.congest.simulator import SyncNetwork
from repro.determinism import ensure_rng
from repro.graphs import WeightedGraph, cycle_graph, erdos_renyi_graph, grid_graph
from repro.spanners import ElkinNeimanRun, elkin_neiman_spanner, sample_shifts

Vertex = Hashable


class DistributedElkinNeiman(CongestAlgorithm):
    """k-round max-propagation of exponential shifts (unweighted graphs).

    State written per node: ``en_edges`` — the set of neighbours the node
    buys spanner edges to (sources within 1 of its max, §5's rule).

    Activity contract: every node with a neighbour transmits in every
    round until k, so mail alone keeps the whole graph active for the
    algorithm's k rounds — ``en_round`` (mail-bearing rounds seen) then
    coincides with the global round counter, and isolated nodes are
    terminated at setup.
    """

    def __init__(self, shifts: Dict[Vertex, float], k: int) -> None:
        self.shifts = shifts
        self.k = k

    def setup(self, node: NodeView) -> Outbox:
        # Isolated nodes never receive mail, so (activity contract) they
        # must terminate immediately rather than count empty rounds.
        node.state["en_round"] = self.k if node.degree == 0 else 0
        node.state["en_m"] = self.shifts[node.id]
        node.state["en_source"] = node.id
        node.state["en_best"] = {}  # source -> (value, delivering neighbour)
        msg = (node.id, self.shifts[node.id] - 1.0)
        return {nbr: msg for nbr in node.neighbors}

    def step(self, node: NodeView, inbox: Inbox) -> Outbox:
        if node.state["en_round"] >= self.k:
            return {}
        node.state["en_round"] += 1
        for sender, (src, val) in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            best = node.state["en_best"].get(src)
            if best is None or val > best[0]:
                node.state["en_best"][src] = (val, sender)
            if val > node.state["en_m"]:
                node.state["en_m"] = val
                node.state["en_source"] = src
        if node.state["en_round"] >= self.k:
            return {}
        msg = (node.state["en_source"], node.state["en_m"] - 1.0)
        return {nbr: msg for nbr in node.neighbors}

    def is_done(self, node: NodeView) -> bool:
        return node.state.get("en_round", 0) >= self.k

    def finish(self, node: NodeView) -> None:
        edges: Set[Vertex] = set()
        m = node.state["en_m"]
        for src, (val, sender) in node.state["en_best"].items():
            if src != node.id and val >= m - 1.0:
                edges.add(sender)
        node.state["en_edges"] = edges


def elkin_neiman_distributed(
    graph: WeightedGraph,
    k: int,
    rng: Optional[random.Random] = None,
    shifts: Optional[Dict[Vertex, float]] = None,
    network: Optional[SyncNetwork] = None,
) -> Tuple[ElkinNeimanRun, int]:
    """Run the native [EN17b] program; return (run, measured rounds).

    The graph is treated as unweighted (the algorithm's setting); the
    returned edges are a (2k−1)-hop-spanner of it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = ensure_rng(rng)
    if shifts is None:
        shifts = sample_shifts(list(graph.vertices()), k, rng)
    net = network if network is not None else SyncNetwork(graph)
    net.reset()
    rounds = net.run(DistributedElkinNeiman(shifts, k))
    edges: Set[FrozenSet[Vertex]] = set()
    for v in graph.vertices():
        for nbr in net.view(v).state["en_edges"]:
            edges.add(frozenset((v, nbr)))
    run = ElkinNeimanRun(edges=edges, shifts=shifts, rounds=rounds, messages_per_round=[])
    return run, rounds


def _adjacency(g):
    return {v: set(g.neighbors(v)) for v in g.vertices()}


class TestEquivalenceWithPureFunction:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_same_edges_given_same_shifts(self, seed, k):
        g = erdos_renyi_graph(30, 0.2, seed=seed)
        shifts = sample_shifts(list(g.vertices()), k, random.Random(seed))
        native, _ = elkin_neiman_distributed(g, k, shifts=shifts)
        pure = elkin_neiman_spanner(_adjacency(g), k, shifts=shifts)
        assert native.edges == pure.edges

    def test_same_on_grid(self):
        g = grid_graph(5, 5)
        shifts = sample_shifts(list(g.vertices()), 2, random.Random(9))
        native, _ = elkin_neiman_distributed(g, 2, shifts=shifts)
        pure = elkin_neiman_spanner(_adjacency(g), 2, shifts=shifts)
        assert native.edges == pure.edges


class TestNativeExecution:
    def test_measured_rounds_is_k_plus_constant(self):
        g = erdos_renyi_graph(40, 0.2, seed=4)
        _, rounds = elkin_neiman_distributed(g, 3, random.Random(4))
        assert rounds <= 3 + 3  # k delivery rounds + setup/teardown

    def test_stretch_guarantee_native(self):
        from tests.test_spanners import _unweighted_stretch

        g = erdos_renyi_graph(35, 0.2, seed=5)
        run, _ = elkin_neiman_distributed(g, 2, random.Random(5))
        assert _unweighted_stretch(_adjacency(g), run.edges) <= 3

    def test_bandwidth_never_violated(self):
        """Messages are (id, float) pairs — 2 words, inside the budget."""
        g = cycle_graph(20)
        net = SyncNetwork(g, words_per_message=2)
        run, _ = elkin_neiman_distributed(g, 2, random.Random(6), network=net)
        assert run.edges  # completed without BandwidthViolation

    def test_invalid_k(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            elkin_neiman_distributed(g, 0)
