"""Distributed BFS tree (the tree τ of §2).

Every construction in the paper assumes a BFS tree of the communication
graph is available ("Since all our algorithms have a larger running time,
we always assume that we have such a tree at our disposal", §2).  This
module builds it two ways:

* :class:`DistributedBFS` — an honest CONGEST node program (flooding),
  executed on :class:`~repro.congest.simulator.SyncNetwork`; takes
  ``depth + O(1)`` measured rounds;
* :func:`build_bfs_tree` — the convenience entry point used by the rest of
  the library: runs the node program and packages the result.

Taking the paper at its word, τ is built once per network: without a
``network=``, :func:`build_bfs_tree` keeps the tree on the graph's
frozen CSR view, keyed by root (:meth:`~repro.graphs.csr.CSRGraph.bfs_tree`),
so the constructions that share one unchanged graph share one
simulation.  Each call still returns its own maps and the measured
rounds, which every ledger charges as ``bfs-tree``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from repro.congest.algorithm import CongestAlgorithm, Inbox, NodeView, Outbox
from repro.congest.simulator import SyncNetwork
from repro.graphs.csr import BFSParts
from repro.graphs.weighted_graph import WeightedGraph

Vertex = Hashable


@dataclass
class BFSTree:
    """A rooted BFS tree of the communication graph.

    Attributes
    ----------
    root:
        The root vertex (usually the paper's ``rt``).
    parent:
        Map vertex → parent (root maps to ``None``).
    depth:
        Map vertex → hop distance from the root.
    rounds:
        Rounds the distributed construction took.
    """

    root: Vertex
    parent: Dict[Vertex, Optional[Vertex]]
    depth: Dict[Vertex, int]
    rounds: int = 0

    @property
    def height(self) -> int:
        """Maximum depth — the pipelining latency used by Lemma 1."""
        return max(self.depth.values()) if self.depth else 0

    def children(self) -> Dict[Vertex, List[Vertex]]:
        """Map vertex → list of children (derived from ``parent``)."""
        out: Dict[Vertex, List[Vertex]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                out[p].append(v)
        return out

    def path_to_root(self, v: Vertex) -> List[Vertex]:
        """Vertices from ``v`` up to (and including) the root."""
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path


class DistributedBFS(CongestAlgorithm):
    """Flooding BFS from a designated root.

    Round r delivers the frontier at hop distance r.  Each message is a
    single word (the sender's depth).  Nodes adopt the first sender as
    parent, ties broken by id order — deterministic, per the model.

    Purely mail-driven (activity contract): only the flood frontier is
    ever stepped by the engine, so a BFS over n nodes costs
    O(n + m) node-steps total instead of O(n · depth).
    """

    def __init__(self, root: Vertex) -> None:
        self.root = root

    def setup(self, node: NodeView) -> Outbox:
        if node.id == self.root:
            node.state["bfs_depth"] = 0
            node.state["bfs_parent"] = None
            return {nbr: 0 for nbr in node.neighbors}
        node.state["bfs_depth"] = None
        node.state["bfs_parent"] = None
        return {}

    def step(self, node: NodeView, inbox: Inbox) -> Outbox:
        if node.state["bfs_depth"] is not None or not inbox:
            return {}
        parent = min(inbox, key=repr)  # deterministic tie-break
        node.state["bfs_parent"] = parent
        node.state["bfs_depth"] = inbox[parent] + 1
        return {nbr: node.state["bfs_depth"] for nbr in node.neighbors if nbr != parent}

    def is_done(self, node: NodeView) -> bool:
        # the run ends when no mail is in flight: once the flood drains,
        # unreached nodes (disconnected graph) are reported by build_bfs_tree
        return True


def _simulate(graph: WeightedGraph, root: Vertex, net: SyncNetwork) -> BFSParts:
    """Run :class:`DistributedBFS` on ``net``: parents, depths, rounds."""
    net.reset()
    rounds = net.run(DistributedBFS(root))
    parent: Dict[Vertex, Optional[Vertex]] = {}
    depth: Dict[Vertex, int] = {}
    for v in graph.vertices():
        state = net.view(v).state
        if state.get("bfs_depth") is None:
            raise ValueError(f"graph is disconnected: {v!r} unreached from {root!r}")
        parent[v] = state["bfs_parent"]
        depth[v] = state["bfs_depth"]
    return parent, depth, rounds


def build_bfs_tree(
    graph: WeightedGraph, root: Vertex, network: Optional[SyncNetwork] = None
) -> BFSTree:
    """Run :class:`DistributedBFS` on ``graph`` and package the tree.

    Without ``network``, the tree is simulated once per frozen view of
    ``graph`` and root; a later call on the unchanged graph copies it.
    With ``network``, the simulation always runs on that network, so its
    message counters advance.  Either way the caller owns the returned
    maps.

    Raises
    ------
    ValueError
        If ``root`` is not a vertex of ``graph``, or the graph is
        disconnected (some node never hears the flood).
    """
    if not graph.has_vertex(root):
        raise ValueError(f"BFS root {root!r} is not a vertex of the graph")
    if network is not None:
        parent, depth, rounds = _simulate(graph, root, network)
        return BFSTree(root=root, parent=parent, depth=depth, rounds=rounds)
    parent, depth, rounds = graph.freeze().bfs_tree(
        root, lambda: _simulate(graph, root, SyncNetwork(graph))
    )
    return BFSTree(root=root, parent=dict(parent), depth=dict(depth), rounds=rounds)
