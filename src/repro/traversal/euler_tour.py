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
``g(v)``, then the same pattern once more for DFS intervals.  We execute
those stages faithfully over the fragment decomposition — each value is
computed from exactly the information the paper says the vertex has — and
charge the ledger with each stage's measured cost.  A direct recursive DFS
cross-checks the staged result, so the tour used downstream is
*certified*.  The two add the same weights in different orders, so they
agree to a relative 1e-9 rather than exactly; a larger disagreement
raises :class:`EulerTourMismatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.congest.ledger import RoundLedger
from repro.congest.primitives import broadcast_rounds, convergecast_rounds, local_phase_rounds
from repro.graphs.weighted_graph import WeightedGraph
from repro.mst.fragments import FragmentDecomposition, decompose_fragments, _rooted_children

Vertex = Hashable


class EulerTourMismatch(RuntimeError):
    """The staged §3 tour computation disagrees with the direct DFS walk."""


def _agree(a: float, b: float) -> bool:
    """Equal up to summation-order round-off, at any weight scale."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


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
    intervals:
        Global DFS interval ``t(v) = [entry, exit]`` per vertex (§3.3).
    ledger:
        Round accounting for the staged computation (Lemma 2 target:
        Õ(√n + D)).
    """

    tree: WeightedGraph
    root: Vertex
    order: List[Vertex]
    times: List[float]
    appearances: Dict[Vertex, List[int]]
    intervals: Dict[Vertex, Tuple[float, float]]
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

    def tour_distance(self, i: int, j: int) -> float:
        """``d_L(x_i, x_j)`` — distance along the tour between positions."""
        return abs(self.times[i] - self.times[j])

    def first_appearance(self, v: Vertex) -> int:
        """Position of v's first (preorder) appearance."""
        return self.appearances[v][0]


def _direct_tour(
    tree: WeightedGraph, root: Vertex
) -> Tuple[List[Vertex], List[float]]:
    """Reference DFS tour (iterative), children in id order."""
    _, children = _rooted_children(tree, root)
    order: List[Vertex] = [root]
    times: List[float] = [0.0]
    # stack of (vertex, iterator over remaining children)
    stack: List[Tuple[Vertex, List[Vertex]]] = [(root, list(children[root]))]
    while stack:
        v, remaining = stack[-1]
        if remaining:
            c = remaining.pop(0)
            order.append(c)
            times.append(times[-1] + tree.weight(v, c))
            stack.append((c, list(children[c])))
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                order.append(p)
                times.append(times[-1] + tree.weight(v, p))
    return order, times


def _staged_lengths(
    tree: WeightedGraph,
    root: Vertex,
    decomp: FragmentDecomposition,
    children: Dict[Vertex, List[Vertex]],
    post_order: List[Vertex],
) -> Tuple[Dict[Vertex, float], Dict[Vertex, float]]:
    """§3.2 — local tour lengths ℓ(v) and global tour lengths g(v).

    ℓ(v): twice the weight of v's subtree *inside its own fragment*.
    g(v): twice the weight of v's full subtree in T.  Both are computed
    bottom-up exactly as the distributed stages do.
    """
    frag_of = decomp.fragment_of
    local_len: Dict[Vertex, float] = {}
    for v in post_order:
        total = 0.0
        for c in children[v]:
            if frag_of[c] == frag_of[v]:
                total += local_len[c] + 2 * tree.weight(v, c)
        local_len[v] = total

    global_len: Dict[Vertex, float] = {}
    for v in post_order:
        total = 0.0
        for c in children[v]:
            total += global_len[c] + 2 * tree.weight(v, c)
        global_len[v] = total
    return local_len, global_len


def _staged_intervals(
    tree: WeightedGraph,
    root: Vertex,
    children: Dict[Vertex, List[Vertex]],
    global_len: Dict[Vertex, float],
) -> Dict[Vertex, Tuple[float, float]]:
    """§3.3 — DFS intervals t(v) = [entry, entry + g(v)], top-down.

    Child j of v with older siblings z_1..z_{j-1} enters at
    ``entry(v) + Σ_{q<j} (g(z_q) + 2 w(v, z_q)) + w(v, z_j)``.
    """
    intervals: Dict[Vertex, Tuple[float, float]] = {root: (0.0, global_len[root])}
    stack: List[Vertex] = [root]
    while stack:
        v = stack.pop()
        a, _ = intervals[v]
        offset = a
        for c in children[v]:
            entry = offset + tree.weight(v, c)
            intervals[c] = (entry, entry + global_len[c])
            offset = entry + global_len[c] + tree.weight(v, c)
            stack.append(c)
    return intervals


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
        Pre-computed base fragments (recomputed if omitted).
    bfs_height:
        Height of the BFS tree τ (for Lemma-1 charges); defaults to the
        number of fragments, a conservative stand-in when τ is unknown.

    Raises
    ------
    ValueError
        If ``tree`` is not a tree.
    EulerTourMismatch
        If the staged computation disagrees with the direct walk.
    """
    if not tree.is_tree():
        raise ValueError("Euler tour requires a tree")
    n = tree.n
    decomp = decomposition if decomposition is not None else decompose_fragments(tree, root)
    height = bfs_height if bfs_height is not None else decomp.num_fragments

    parent, children = _rooted_children(tree, root)
    post: List[Vertex] = []
    stack: List[Tuple[Vertex, bool]] = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            post.append(v)
            continue
        stack.append((v, True))
        for c in reversed(children[v]):
            stack.append((c, False))

    ledger = RoundLedger()
    max_frag_diam = decomp.max_hop_diameter()
    num_frags = decomp.num_fragments

    # §3.1: broadcast the fragment tree T' (one message per external edge).
    ledger.charge("broadcast-fragment-tree", broadcast_rounds(num_frags, height))

    # §3.2: local tour lengths (fragment-local), root-length broadcast,
    # then global tour lengths (fragment-local again).
    local_len, global_len = _staged_lengths(tree, root, decomp, children, post)
    ledger.charge("local-tour-lengths", local_phase_rounds(max_frag_diam))
    ledger.charge("broadcast-root-lengths", broadcast_rounds(num_frags, height))
    ledger.charge("global-tour-lengths", local_phase_rounds(max_frag_diam))

    # §3.3: local DFS intervals, convergecast of root intervals to rt,
    # rt's local shift computation, broadcast of shifts.
    intervals = _staged_intervals(tree, root, children, global_len)
    ledger.charge("local-dfs-intervals", local_phase_rounds(max_frag_diam))
    ledger.charge("convergecast-root-intervals", convergecast_rounds(2 * num_frags, height))
    ledger.charge("broadcast-shifts", broadcast_rounds(num_frags, height))

    # The unweighted pass that gives each appearance its *index* costs the
    # same again ("running the same algorithm that finds visiting times,
    # ignoring the weights", §4.1).
    ledger.charge("unweighted-index-pass", ledger.total)

    order, times = _direct_tour(tree, root)

    # Certification: the staged quantities must agree with the direct walk.
    if not _agree(times[-1], global_len[root]):
        raise EulerTourMismatch("g(rt) must equal tour length")
    if len(order) != 2 * n - 1:
        raise EulerTourMismatch("tour must have 2n - 1 positions")

    appearances: Dict[Vertex, List[int]] = {}
    for i, v in enumerate(order):
        appearances.setdefault(v, []).append(i)

    for v, (entry, exit_) in intervals.items():
        if not _agree(times[appearances[v][0]], entry):
            raise EulerTourMismatch(f"interval entry mismatch at {v!r}")
        if not _agree(times[appearances[v][-1]], exit_):
            raise EulerTourMismatch(f"interval exit mismatch at {v!r}")

    return EulerTour(
        tree=tree,
        root=root,
        order=order,
        times=times,
        appearances=appearances,
        intervals=intervals,
        ledger=ledger,
    )
