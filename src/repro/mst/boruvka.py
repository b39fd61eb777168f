"""Borůvka-phase MST with distributed-style round accounting.

This is the stand-in for the [KP98]/[Elk17b] Õ(√n + D)-round MST (DESIGN.md
substitution 2).  It runs the classical synchronous Borůvka schedule —
every component picks its minimum outgoing edge (MOE) under the global
deterministic edge order, all MOEs are added, components merge — for
O(log n) phases.

Round accounting per phase mirrors the pipelined implementation: finding
the MOE is a convergecast inside each component over its current tree edges
(cost = the largest component hop-diameter), and announcing the merges is a
Lemma-1 broadcast of one message per component.  The totals are *measured*
from the actual component structure, so benchmarks can compare the growth
against the paper's Õ(√n + D) target.

The result is validated structurally (spanning tree, same weight as
Kruskal) by the test-suite; by the deterministic tie-break it is the same
tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.congest.ledger import RoundLedger
from repro.congest.primitives import broadcast_rounds, local_phase_rounds
from repro.graphs.weighted_graph import WeightedGraph
from repro.mst.fragments import subtree_hop_diameter
from repro.mst.kruskal import UnionFind, edge_sort_key

Vertex = Hashable


@dataclass
class BoruvkaResult:
    """Output of :func:`boruvka_mst`.

    Attributes
    ----------
    tree:
        The MST (spans all vertices of the input graph).
    phases:
        Number of Borůvka phases executed (<= ceil(log2 n)).
    ledger:
        Per-phase round accounting.
    """

    tree: WeightedGraph
    phases: int
    ledger: RoundLedger

    @property
    def rounds(self) -> int:
        """Total charged rounds."""
        return self.ledger.total


def boruvka_mst(graph: WeightedGraph, bfs_height: Optional[int] = None) -> BoruvkaResult:
    """Compute the MST by synchronous Borůvka phases with round accounting.

    Parameters
    ----------
    graph:
        Connected weighted graph.
    bfs_height:
        Height of the BFS tree τ used for the per-phase announcement
        broadcast; defaults to a crude upper bound (n - 1) if not given —
        pass the real height for meaningful round numbers.

    Raises
    ------
    ValueError
        If the graph is disconnected.
    """
    n = graph.n
    if n == 0:
        return BoruvkaResult(WeightedGraph(), 0, RoundLedger())
    height = bfs_height if bfs_height is not None else max(0, n - 1)

    ledger = RoundLedger()
    uf = UnionFind()
    for v in graph.vertices():
        uf.add(v)
    forest = WeightedGraph(graph.vertices())
    phases = 0
    num_components = n

    while num_components > 1:
        phases += 1
        # each component's minimum outgoing edge, under the global order
        moe: Dict[Vertex, Tuple[Vertex, Vertex, float]] = {}
        for u, v, w in graph.edges():
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            key = edge_sort_key(u, v, w)
            for r in (ru, rv):
                if r not in moe or edge_sort_key(*moe[r]) > key:
                    moe[r] = (u, v, w)
        if not moe:
            raise ValueError("graph is disconnected; MST does not exist")

        # round accounting: intra-component convergecast + merge broadcast
        comp_members: Dict[Vertex, list] = {}
        for v in graph.vertices():
            comp_members.setdefault(uf.find(v), []).append(v)
        max_diam = max(
            subtree_hop_diameter(forest, set(members), members[0])
            for members in comp_members.values()
        )
        ledger.charge(f"phase{phases}:moe-convergecast", local_phase_rounds(max_diam))
        ledger.charge(
            f"phase{phases}:merge-broadcast",
            broadcast_rounds(len(comp_members), height),
        )

        merged_any = False
        for u, v, w in moe.values():
            if uf.union(u, v):
                forest.add_edge(u, v, w)
                num_components -= 1
                merged_any = True
        if not merged_any:  # cannot happen on a connected graph
            raise RuntimeError("Borůvka made no progress")

    return BoruvkaResult(tree=forest, phases=phases, ledger=ledger)
