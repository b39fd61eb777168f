"""Synchronous CONGEST-model simulator.

The paper's model (§2): every vertex hosts a processor; computation
proceeds in synchronous rounds; in each round every vertex may send one
message of O(log n) bits to each neighbour; local computation is free;
complexity = number of rounds.

This package provides:

* :class:`~repro.congest.simulator.SyncNetwork` — a faithful synchronous
  executor with per-edge bandwidth enforcement and round counting; its
  round engine steps only nodes with mail or a requested wake-up;
* :class:`~repro.congest.algorithm.CongestAlgorithm` — the node-program
  interface (purely local knowledge), including the activity contract
  the engine relies on;
* :mod:`~repro.congest.bfs` — a natively-simulated BFS-tree construction
  (the tree τ all the paper's constructions assume, §2);
* :mod:`~repro.congest.primitives` — Lemma-1 broadcast / convergecast cost
  accounting and helpers;
* :class:`~repro.congest.ledger.RoundLedger` — the round-accounting object
  composed constructions use to charge primitive phases at the cost the
  paper analyses.
"""

from repro.congest.algorithm import CongestAlgorithm
from repro.congest.simulator import (
    BandwidthViolation,
    SyncNetwork,
    payload_words,
)
from repro.congest.ledger import RoundLedger
from repro.congest.bfs import BFSTree, build_bfs_tree, DistributedBFS
from repro.congest.primitives import (
    broadcast_rounds,
    convergecast_rounds,
    pipelined_aggregate_rounds,
)
from repro.congest.pipeline import (
    PipelinedBroadcast,
    PipelinedConvergecast,
    broadcast_messages,
    convergecast_messages,
)

__all__ = [
    "CongestAlgorithm",
    "SyncNetwork",
    "BandwidthViolation",
    "payload_words",
    "RoundLedger",
    "BFSTree",
    "build_bfs_tree",
    "DistributedBFS",
    "broadcast_rounds",
    "convergecast_rounds",
    "pipelined_aggregate_rounds",
    "PipelinedBroadcast",
    "PipelinedConvergecast",
    "broadcast_messages",
    "convergecast_messages",
]
