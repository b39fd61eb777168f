"""Synchronous CONGEST network executor.

:class:`SyncNetwork` runs a :class:`~repro.congest.algorithm.CongestAlgorithm`
over a :class:`~repro.graphs.WeightedGraph`, enforcing the model's
constraints:

* **Locality** — each node program only ever sees its own
  :class:`~repro.congest.algorithm.NodeView` and its inbox.
* **Bandwidth** — each message must fit ``words_per_message`` machine words
  (a word is O(log n) bits; the paper's footnote 8).  Oversized payloads
  raise :class:`BandwidthViolation` — an algorithm bug, not a runtime
  condition to catch.
* **Synchrony** — messages sent in round ``r`` are delivered at the start
  of round ``r + 1``; the round counter is the complexity measure.

The round engine steps a node only when it has mail or requested a
wake-up (the activity contract of :mod:`repro.congest.algorithm`),
maintains termination with an incrementally updated done-counter instead
of scanning every view each round, and delivers messages through
persistent integer-indexed inbox buffers — so a pipelined broadcast that
keeps only a tree frontier busy pays O(active) Python-call overhead per
round, not O(n).  Scheduled nodes are stepped in ascending dense-index
order.  ``tests/test_congest_parity.py`` keeps the scan-everything loop
(every node stepped every round) as the reference this engine must match
message for message.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Hashable, List, Union

from repro.congest.algorithm import CongestAlgorithm, NodeView
from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

Vertex = Hashable


class BandwidthViolation(RuntimeError):
    """A node tried to send a message exceeding the per-edge word budget."""


#: memo for :func:`payload_words`, keyed by the (hashable) payload itself.
#: Node programs send the same few payload shapes over and over (tags,
#: small tuples of ids and weights), so repeated word counting is wasted
#: work.  Equal payloads always count the same words (the accounting is a
#: function of structure and value), so equality-based memoization is
#: sound.  Bounded: cleared wholesale if it ever grows pathological.
_WORDS_CACHE: Dict[Any, int] = {}
_WORDS_CACHE_MAX = 1 << 16


def payload_words(payload: Any) -> int:
    """Number of machine words a payload occupies on the wire.

    Accounting rules (one word = O(log n) bits, enough for a vertex id or a
    poly(n)-bounded weight, per the paper's footnote 8):

    * ``None`` — 0 words (a bare "ping" still costs 1 via the minimum below);
    * numbers, booleans, vertex ids (hashable scalars) — 1 word;
    * strings — 1 word per 8 characters (tags like "join" are 1 word);
    * tuples / lists / sets / dicts — sum over entries.

    Every non-``None`` message costs at least 1 word.  Results are
    memoized for hashable payloads (the common case: repeated small
    tuples of ids and weights).
    """
    try:
        return _WORDS_CACHE[payload]
    except KeyError:
        pass
    except TypeError:  # unhashable (lists, dicts, nested unhashables)
        return _uncached_payload_words(payload)
    words = _uncached_payload_words(payload)
    if len(_WORDS_CACHE) >= _WORDS_CACHE_MAX:
        _WORDS_CACHE.clear()
    _WORDS_CACHE[payload] = words
    return words


def _uncached_payload_words(payload: Any) -> int:
    if payload is None:
        return 0
    if isinstance(payload, bool) or isinstance(payload, (int, float)):
        return 1
    if isinstance(payload, str):
        return max(1, (len(payload) + 7) // 8)
    if isinstance(payload, (tuple, list, frozenset, set)):
        return max(1, sum(payload_words(item) for item in payload))
    if isinstance(payload, dict):
        return max(1, sum(payload_words(k) + payload_words(v) for k, v in payload.items()))
    return 1  # opaque scalar (e.g. an enum member): one word


class SyncNetwork:
    """Synchronous executor for CONGEST node programs.

    Parameters
    ----------
    graph:
        The communication graph (also the input graph — per the model,
        every node knows its incident edges and their weights).  Either a
        :class:`WeightedGraph` or a frozen :class:`CSRGraph`; internally
        the network relabels nodes to dense indices once so the per-round
        message fan-out runs over flat lists instead of label-keyed dicts.
    words_per_message:
        Per-edge-per-round bandwidth in words.  The model allows O(log n)
        bits ≈ O(1) words; the default of 4 accommodates the paper's
        messages, which are constant-length tuples of ids and weights
        (e.g. ``(s(x), m(x) - 1)`` in §5 or ``(x_iα, R_{x_iα})`` in §4.1).
        An oversized message raises :class:`BandwidthViolation`.

    Counters
    --------
    ``rounds_executed`` covers the current run (it is what
    :attr:`NodeView.round` reads) and is zeroed by :meth:`reset`.
    ``total_rounds``, ``total_messages_sent``, ``total_words_sent`` and
    ``total_active_node_rounds`` (the number of ``step`` invocations —
    the engine's utilization measure) accumulate over the network's
    lifetime, so multi-phase constructions that reuse one network report
    aggregate traffic; a run's own traffic is the difference across it.
    """

    def __init__(
        self,
        graph: Union[WeightedGraph, CSRGraph],
        words_per_message: int = 4,
    ) -> None:
        self.graph = graph
        self.words_per_message = words_per_message
        self.rounds_executed = 0
        self.total_rounds = 0
        self.total_messages_sent = 0
        self.total_words_sent = 0
        self.total_active_node_rounds = 0
        # dense relabeling: node i of the round loop is label _verts[i]
        self._verts: List[Vertex] = list(graph.vertices())
        self._vidx: Dict[Vertex, int] = {v: i for i, v in enumerate(self._verts)}
        self._view_list: List[NodeView] = [
            NodeView(v, dict(graph.neighbor_items(v))) for v in self._verts
        ]
        # weak: a view that held its network would make every network a
        # reference cycle, alive until the cycle collector runs
        network = weakref.ref(self)
        for view in self._view_list:
            view._network = network
        self._views: Dict[Vertex, NodeView] = {
            v: view for v, view in zip(self._verts, self._view_list)
        }

    # ------------------------------------------------------------------
    def view(self, v: Vertex) -> NodeView:
        """The node view for vertex ``v`` (inspect state after a run)."""
        return self._views[v]

    def reset(self) -> None:
        """Clear node state and the round counter (reuse the network for a
        new run).  Lifetime ``total_*`` counters are preserved."""
        self.rounds_executed = 0
        for view in self._views.values():
            view.state = {}
            view._wake = False

    # ------------------------------------------------------------------
    def _check_outbox(
        self, sender: Vertex, view: NodeView, outbox: Dict[Vertex, Any]
    ) -> None:
        # Validate the whole outbox before touching the counters: a raised
        # BandwidthViolation / ValueError must not leave total_messages_sent
        # or total_words_sent partially advanced by earlier messages of the
        # same outbox.
        words_total = 0
        for dst, payload in outbox.items():
            if dst not in view._incident:
                raise ValueError(
                    f"node {sender!r} tried to message non-neighbor {dst!r}"
                )
            words = payload_words(payload)
            if words > self.words_per_message:
                raise BandwidthViolation(
                    f"node {sender!r} -> {dst!r}: payload {payload!r} is "
                    f"{words} words, budget is {self.words_per_message}"
                )
            words_total += words
        self.total_messages_sent += len(outbox)
        self.total_words_sent += words_total

    def run(self, algorithm: CongestAlgorithm, max_rounds: int = 10_000) -> int:
        """Execute ``algorithm`` until termination; return rounds executed.

        Termination: all nodes report ``is_done`` and no messages are in
        flight.

        Raises
        ------
        RuntimeError
            If ``max_rounds`` elapses before termination (runaway
            algorithms are bugs; the paper's algorithms all have explicit
            round bounds), or if the run stalls: some node is not done
            yet no node has mail or a wake request, so no future round
            can change anything.  A stall means the program violates the
            activity contract.
        """
        # Lifetime total_* counters before/after bracket exactly this
        # run's traffic, so the fold into the process-wide registry is a
        # clean delta per run.
        rounds0 = self.total_rounds
        messages0 = self.total_messages_sent
        words0 = self.total_words_sent
        active0 = self.total_active_node_rounds
        with obs_trace.span("congest.run", algorithm=type(algorithm).__name__):
            rounds = self._run_rounds(algorithm, max_rounds)
        reg = obs_metrics.registry()
        reg.counter("congest.rounds.executed").inc(self.total_rounds - rounds0)
        reg.counter("congest.messages.sent").inc(
            self.total_messages_sent - messages0
        )
        reg.counter("congest.words.sent").inc(self.total_words_sent - words0)
        reg.counter("congest.active_node.rounds").inc(
            self.total_active_node_rounds - active0
        )
        for view in self._view_list:
            algorithm.finish(view)
        return rounds

    # ------------------------------------------------------------------
    def _run_rounds(self, algorithm: CongestAlgorithm, max_rounds: int) -> int:
        n = len(self._verts)
        verts, vidx, view_list = self._verts, self._vidx, self._view_list
        is_done = algorithm.is_done
        step = algorithm.step
        # per-round utilization gauge (last round's level + observed peak)
        active_gauge = obs_metrics.gauge("congest.network.active_nodes")

        # Persistent integer-indexed inbox buffers, double-buffered: nodes
        # read round-r mail from ``cur_box`` while round-(r+1) mail lands
        # in ``nxt_box``.  Only mailed slots are ever reallocated, so the
        # per-round allocation cost is O(active), not O(n).
        cur_box: List[Dict[Vertex, Any]] = [{} for _ in range(n)]
        nxt_box: List[Dict[Vertex, Any]] = [{} for _ in range(n)]
        cur_mail: List[int] = []  # indices holding mail for the current round
        nxt_mail: List[int] = []
        nxt_flag = bytearray(n)  # membership mask for nxt_mail

        done = bytearray(n)
        done_count = 0
        wake: List[int] = []  # indices that requested a wake for next round
        wake_flag = bytearray(n)

        # Round 0: setup.
        for i in range(n):
            view = view_list[i]
            view._wake = False
            outbox = algorithm.setup(view) or {}
            self._check_outbox(verts[i], view, outbox)
            for dst, payload in outbox.items():
                j = vidx[dst]
                nxt_box[j][verts[i]] = payload
                if not nxt_flag[j]:
                    nxt_flag[j] = 1
                    nxt_mail.append(j)
            if view._wake:
                view._wake = False
                if not wake_flag[i]:
                    wake_flag[i] = 1
                    wake.append(i)
            if is_done(view):
                done[i] = 1
                done_count += 1
        self.rounds_executed = 1
        self.total_rounds += 1

        while True:
            if done_count == n and not nxt_mail:
                break
            if self.rounds_executed >= max_rounds:
                raise RuntimeError(
                    f"algorithm did not terminate within {max_rounds} rounds"
                )
            if not nxt_mail and not wake:
                # Some node is not done, but nothing is scheduled: no
                # future round can change anything.  Fail fast instead of
                # spinning to max_rounds.
                stalled = n - done_count
                raise RuntimeError(
                    f"engine stalled after {self.rounds_executed} "
                    f"round(s): {stalled} node(s) not done but no mail or "
                    f"wake requests — the node program violates the "
                    f"activity contract (see repro.congest.algorithm)"
                )

            # Swap buffers: last round's outgoing mail becomes delivery.
            cur_box, nxt_box = nxt_box, cur_box
            cur_mail, nxt_mail = nxt_mail, cur_mail
            nxt_mail.clear()
            for j in cur_mail:
                nxt_flag[j] = 0

            cur_wake, wake = wake, []
            for i in cur_wake:
                wake_flag[i] = 0

            if cur_wake:
                merged = set(cur_mail)
                merged.update(cur_wake)
                schedule = sorted(merged)
            else:
                schedule = sorted(cur_mail)

            active = 0
            for i in schedule:
                view = view_list[i]
                inbox = cur_box[i]
                outbox = step(view, inbox) or {}
                if inbox:
                    cur_box[i] = {}
                if outbox:
                    self._check_outbox(verts[i], view, outbox)
                    for dst, payload in outbox.items():
                        j = vidx[dst]
                        nxt_box[j][verts[i]] = payload
                        if not nxt_flag[j]:
                            nxt_flag[j] = 1
                            nxt_mail.append(j)
                if view._wake:
                    view._wake = False
                    if not wake_flag[i]:
                        wake_flag[i] = 1
                        wake.append(i)
                now_done = is_done(view)
                if now_done != bool(done[i]):
                    done[i] = 1 if now_done else 0
                    done_count += 1 if now_done else -1
                active += 1
            self.total_active_node_rounds += active
            active_gauge.set(active)
            self.rounds_executed += 1
            self.total_rounds += 1
        return self.rounds_executed

    def __repr__(self) -> str:
        return (
            f"SyncNetwork(n={self.graph.n}, m={self.graph.m}, "
            f"rounds={self.total_rounds}, msgs={self.total_messages_sent})"
        )
