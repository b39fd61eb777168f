"""Node-program interface for the CONGEST simulator.

An algorithm is written from the point of view of a single node.  The
simulator hands each node a :class:`NodeView` exposing only *local*
knowledge — its id, its incident edges and their weights, and a private
state dict — plus whatever global constants the algorithm was constructed
with (n, k, ε, ... are legitimately global in the CONGEST model).

The activity contract
---------------------

The round engine of :class:`~repro.congest.simulator.SyncNetwork` only
*steps* a node in rounds where it has something to do.  Node programs
therefore promise:

* **Idle unless messaged** — a node's behaviour between two deliveries is
  a no-op: ``step(node, {})`` returns no messages and changes no state
  the engine can observe (``is_done`` in particular must not flip while
  the node sleeps).
* **Wake requests** — a node with *local* pending work (a queue it drains
  one message per round, a key stream it advances, a poll it repeats)
  calls :meth:`NodeView.request_wake` before returning from
  ``setup``/``step``; the engine then steps it in the next round even
  without mail.  Wake requests are one-shot — re-request every round the
  work persists.
* **Global rounds** — programs that meter themselves by the *round
  number* (hop budgets, fixed-length phases) read :attr:`NodeView.round`
  instead of counting their own step invocations: a sleeping node is not
  stepped, so a local counter undercounts.

Programs honouring the contract behave identically — round-for-round
and message-for-message — to a scan-everything loop that steps every
node every round; the parity suite in ``tests/test_congest_parity.py``
asserts exactly that against such a reference loop.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, Mapping, Tuple

Vertex = Hashable


class NodeView:
    """Local view a node program gets: id, incident edges, private state.

    Instances are created by :class:`~repro.congest.simulator.SyncNetwork`;
    algorithms must not construct them directly.
    """

    __slots__ = ("id", "_incident", "_neighbors", "state", "_wake", "_network")

    def __init__(self, uid: Vertex, incident: Dict[Vertex, float]) -> None:
        self.id = uid
        self._incident = incident
        self._neighbors: Tuple[Vertex, ...] = tuple(incident)
        self.state: Dict[str, Any] = {}
        self._wake = False
        self._network = None  # set by SyncNetwork; exposes the round counter

    @property
    def neighbors(self) -> Tuple[Vertex, ...]:
        """Ids of adjacent nodes (local knowledge: incident edges).

        Cached as a tuple — node programs call this inside per-round
        loops, and the incident-edge set never changes during a run.
        """
        return self._neighbors

    def edge_weight(self, neighbor: Vertex) -> float:
        """Weight of the incident edge to ``neighbor``."""
        return self._incident[neighbor]

    def incident_edges(self) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(neighbor, weight)`` pairs."""
        return iter(self._incident.items())

    @property
    def degree(self) -> int:
        """Number of incident edges."""
        return len(self._incident)

    @property
    def round(self) -> int:
        """The network's current round number (1 in the first step round).

        Synchronous rounds are globally known in the CONGEST model, so a
        node may legitimately meter itself by this counter — and it
        *must* use this rather than counting its own ``step``
        invocations (sleeping rounds are not delivered).
        """
        return self._network.rounds_executed if self._network is not None else 0

    def request_wake(self) -> None:
        """Ask to be stepped next round even if no mail arrives.

        One-shot: the request covers only the next round; a program with
        ongoing local work re-requests on every step.
        """
        self._wake = True

    def __repr__(self) -> str:
        return f"NodeView({self.id!r}, deg={self.degree})"


# Outgoing messages: neighbor id -> payload (any picklable value whose word
# count fits the network's per-message budget).
Outbox = Dict[Vertex, Any]
# Inbox: neighbor id -> payload received from that neighbor this round.
Inbox = Mapping[Vertex, Any]


class CongestAlgorithm:
    """Base class for synchronous node programs.

    Lifecycle per node:

    1. ``setup(node)`` — once, before round 0; returns the round-0 outbox.
    2. ``step(node, inbox)`` — in every round where the node is *active*
       (it has mail or requested a wake); receives the messages sent to
       this node in the previous round and returns the outbox.
    3. ``is_done(node)`` — evaluated after ``setup`` and after each
       ``step`` of that node (not every round — see the activity contract
       in the module docstring); the simulation stops when every node is
       done *and* no messages are in flight (reaching ``max_rounds``
       first raises).
    4. ``finish(node)`` — once, after the final round (collect outputs).

    Subclasses override what they need; the defaults send nothing and
    finish immediately.
    """

    def setup(self, node: NodeView) -> Outbox:
        """Initialize local state; return messages for round 0."""
        return {}

    def step(self, node: NodeView, inbox: Inbox) -> Outbox:
        """One synchronous round: consume the inbox, produce the outbox."""
        return {}

    def is_done(self, node: NodeView) -> bool:
        """True when this node has terminated (default: immediately)."""
        return True

    def finish(self, node: NodeView) -> None:
        """Hook called once when the simulation stops."""
