"""Eulerian tour of the MST (§3, Lemma 2).

The traversal ``L = {rt = x_0, x_1, ..., x_{2n-2}}`` is the preorder DFS
walk of the MST T rooted at ``rt``, children visited in id order.  Each
vertex ``v`` appears ``deg_T(v)`` times (the root ``deg_T(rt) + 1``); the
walk's total weighted length is ``2·w(T)``; the visit time of appearance
``x`` is ``R_x = d_L(rt, x)``.

Lemma 2 computes L in Õ(√n + D) CONGEST rounds through the staged
fragment algorithm of §3.1–§3.3: local tour lengths ``ℓ(v)`` inside base
fragments, a broadcast that lets everyone evaluate the global lengths
``g(r_i)`` of fragment roots on the virtual tree T′, local propagation of
``g(v)``, then the same pattern once more for DFS intervals.  Each
stage's round cost depends only on the number of base fragments, their
largest hop diameter and the height of τ, so the ledger charges every
stage by its formula from those three numbers.  The tour itself comes
from one direct walk of T, oriented as the fragment decomposition
rooted it, which gives the positions, visit times and appearances.  The
staged computation of ``ℓ``, ``g`` and the intervals is the reference
in ``tests/test_euler_tour.py``: it agrees with the walk to a relative
1e-9 (the two add the same weights in different orders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.congest.ledger import RoundLedger
from repro.congest.primitives import broadcast_rounds, convergecast_rounds, local_phase_rounds
from repro.graphs.weighted_graph import WeightedGraph
from repro.mst.fragments import FragmentDecomposition, decompose_fragments

Vertex = Hashable


@dataclass
class EulerTour:
    """The MST traversal L with all per-appearance metadata.

    Attributes
    ----------
    order:
        The traversal as a vertex sequence, ``order[i] = x_i``
        (length ``2n - 1``).
    times:
        ``times[i] = R_{x_i}``, the weighted visit time of position i.
    appearances:
        ``appearances[v]`` — sorted positions of v in the tour (the
        paper's L(v)).
    ledger:
        Round accounting for the staged computation (Lemma 2 target:
        Õ(√n + D)).
    """

    tree: WeightedGraph
    root: Vertex
    order: List[Vertex]
    times: List[float]
    appearances: Dict[Vertex, List[int]]
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def length(self) -> float:
        """Total weighted length of the tour; equals ``2·w(T)``."""
        return self.times[-1] if self.times else 0.0

    @property
    def size(self) -> int:
        """Number of tour positions (``2n - 1``)."""
        return len(self.order)

    @property
    def rounds(self) -> int:
        """Total charged CONGEST rounds."""
        return self.ledger.total


def _direct_tour(
    tree: WeightedGraph, root: Vertex, children: Dict[Vertex, List[Vertex]]
) -> Tuple[List[Vertex], List[float]]:
    """The DFS tour (iterative) over ``children``, T oriented away from
    ``root`` with children in id order: positions and visit times."""
    order: List[Vertex] = [root]
    times: List[float] = [0.0]
    weight = tree.weight
    # stack of (vertex, its remaining children, last one first)
    stack: List[Tuple[Vertex, List[Vertex]]] = [(root, children[root][::-1])]
    while stack:
        v, remaining = stack[-1]
        if remaining:
            c = remaining.pop()
            order.append(c)
            times.append(times[-1] + weight(v, c))
            stack.append((c, children[c][::-1]))
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                order.append(p)
                times.append(times[-1] + weight(v, p))
    return order, times


def compute_euler_tour(
    tree: WeightedGraph,
    root: Vertex,
    decomposition: Optional[FragmentDecomposition] = None,
    bfs_height: Optional[int] = None,
) -> EulerTour:
    """Compute the traversal L per Lemma 2, with round accounting.

    Parameters
    ----------
    tree:
        The MST (must be a tree containing ``root``).
    decomposition:
        The base fragments of ``tree`` rooted at ``root``
        (:func:`~repro.mst.fragments.decompose_fragments`, which checks
        that ``tree`` is a tree); built here if omitted.  The tour walks
        its ``children`` and charges from its fragment count and largest
        hop diameter.
    bfs_height:
        Height of the BFS tree τ (for Lemma-1 charges); defaults to the
        number of fragments, a conservative stand-in when τ is unknown.

    Raises
    ------
    ValueError
        If ``tree`` is not a tree or ``root`` not one of its vertices, or
        if ``decomposition`` belongs to another tree object or another
        root.
    """
    decomp = decomposition if decomposition is not None else decompose_fragments(tree, root)
    if decomp.tree is not tree or decomp.root != root:
        raise ValueError(
            f"the decomposition is of another tree or root "
            f"(rooted at {decomp.root!r}, the tour at {root!r})"
        )
    height = bfs_height if bfs_height is not None else decomp.num_fragments

    ledger = RoundLedger()
    max_frag_diam = decomp.max_hop_diameter
    num_frags = decomp.num_fragments

    # §3.1: broadcast the fragment tree T' (one message per external edge).
    ledger.charge("broadcast-fragment-tree", broadcast_rounds(num_frags, height))

    # §3.2: local tour lengths (fragment-local), root-length broadcast,
    # then global tour lengths (fragment-local again).
    ledger.charge("local-tour-lengths", local_phase_rounds(max_frag_diam))
    ledger.charge("broadcast-root-lengths", broadcast_rounds(num_frags, height))
    ledger.charge("global-tour-lengths", local_phase_rounds(max_frag_diam))

    # §3.3: local DFS intervals, convergecast of root intervals to rt,
    # rt's local shift computation, broadcast of shifts.
    ledger.charge("local-dfs-intervals", local_phase_rounds(max_frag_diam))
    ledger.charge("convergecast-root-intervals", convergecast_rounds(2 * num_frags, height))
    ledger.charge("broadcast-shifts", broadcast_rounds(num_frags, height))

    # The unweighted pass that gives each appearance its *index* costs the
    # same again ("running the same algorithm that finds visiting times,
    # ignoring the weights", §4.1).
    ledger.charge("unweighted-index-pass", ledger.total)

    order, times = _direct_tour(tree, root, decomp.children)
    appearances: Dict[Vertex, List[int]] = {}
    for i, v in enumerate(order):
        appearances.setdefault(v, []).append(i)

    return EulerTour(
        tree=tree,
        root=root,
        order=order,
        times=times,
        appearances=appearances,
        ledger=ledger,
    )
