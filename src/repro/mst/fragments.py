"""Base-fragment decomposition of the MST (§3.1).

The first phase of the [KP98]/[Elk17b] MST algorithm leaves a partition of
the MST T into O(√n) *base fragments*, each of hop-diameter O(√n); the
remaining O(√n) MST edges (*external edges*) connect the fragments into the
virtual tree T′, which is small enough to broadcast to the whole network.
The Euler-tour construction (§3, and through it the bucket machinery of
§5) and the SLT's ABP computation (§4.2) charge their rounds from two
numbers of this decomposition: how many fragments there are and their
largest hop diameter.  T′ itself is never needed, so it is not built.

We build it directly: a post-order sweep over T closes a fragment whenever
the open subtree hanging below the current vertex reaches ``s = ceil(√n)``
vertices.  Guarantees (asserted by the test-suite):

* fragments partition V(T) into connected subtrees;
* at most ``n / s + 1 = O(√n)`` fragments;
* every open branch below a fragment root has < s vertices, so fragment
  hop-diameter is < 2s = O(√n)  (fragment *size* may exceed s at
  high-degree vertices, but only the hop-diameter enters round costs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Container, Dict, Hashable, List, Optional, Set, Tuple

from repro.graphs.weighted_graph import WeightedGraph

Vertex = Hashable


class FragmentInvariantError(RuntimeError):
    """The post-order sweep left a vertex in no fragment.

    Every open subtree is merged into its parent's and the root always
    closes a fragment, so this means the sweep itself is broken.  A
    typed error rather than an ``assert``, so ``python -O`` keeps it.
    """


def _farthest_member(
    tree: WeightedGraph, members: Container[Vertex], source: Vertex
) -> Tuple[Vertex, int]:
    """BFS from ``source`` that never leaves ``members``; returns a vertex
    of the last layer and its hop distance."""
    seen = {source}
    frontier = [source]
    depth = 0
    while True:
        nxt = []
        for u in frontier:
            for v in tree.neighbors(u):
                if v in members and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            return frontier[0], depth
        frontier, depth = nxt, depth + 1


def subtree_hop_diameter(
    tree: WeightedGraph, members: Container[Vertex], start: Vertex
) -> int:
    """Hop diameter of the connected subtree of ``tree`` spanned by ``members``.

    Two BFS sweeps from ``start`` (a member) that skip non-members.  On a
    subtree the tree path between two members never leaves it, so this
    equals the diameter of ``tree.subgraph(members)``, and each sweep
    costs the members' degrees instead of a pass over the whole tree.
    """
    far, _ = _farthest_member(tree, members, start)
    return _farthest_member(tree, members, far)[1]


@dataclass
class Fragment:
    """One base fragment of the MST.

    Attributes
    ----------
    root:
        The fragment's root ``r_i`` — the unique vertex with an MST edge
        toward the parent fragment (the global root for its own fragment).
    members:
        Vertex set of the fragment.
    """

    root: Vertex
    members: Set[Vertex] = field(default_factory=set)

    def hop_diameter(self, tree: WeightedGraph) -> int:
        """Hop diameter of the fragment inside the MST."""
        return subtree_hop_diameter(tree, self.members, self.root)


@dataclass
class FragmentDecomposition:
    """The base fragments of T rooted at ``root`` (§3.1), with what the
    round charges read from them, each computed once.

    Attributes
    ----------
    tree / root:
        The MST T and the global root ``rt`` it is rooted at.
    fragments:
        The base fragments, in the order the post-order sweep closed
        them (the root's fragment last).
    children:
        T oriented away from ``root``: every vertex's children, in id
        order (§3) — the orientation the Euler tour walks.
    max_hop_diameter:
        The largest fragment hop diameter, which Lemma 2's local stages
        and §4.2's ABP phase charge.
    """

    tree: WeightedGraph
    root: Vertex
    fragments: List[Fragment]
    children: Dict[Vertex, List[Vertex]]
    max_hop_diameter: int

    @property
    def num_fragments(self) -> int:
        """Number of base fragments."""
        return len(self.fragments)


def _rooted_children(tree: WeightedGraph, root: Vertex) -> Dict[Vertex, List[Vertex]]:
    """Orient the tree away from ``root``; children sorted by id (§3:
    "the order between the children of a vertex is determined using their
    id")."""
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in tree.neighbors(u):
            if v not in parent:
                parent[v] = u
                stack.append(v)
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for v in children:
        children[v].sort(key=repr)
    return children


def decompose_fragments(
    tree: WeightedGraph, root: Vertex, target_size: Optional[int] = None
) -> FragmentDecomposition:
    """Partition the rooted MST into O(√n) base fragments.

    Parameters
    ----------
    tree:
        The MST (must be a tree).
    root:
        The global root ``rt``.
    target_size:
        Fragment-closing threshold ``s``; default ``ceil(sqrt(n))``.

    Raises
    ------
    ValueError
        If ``tree`` is not a tree or ``root`` is not one of its vertices.
    FragmentInvariantError
        If the sweep leaves a vertex in no fragment (a broken sweep).
    """
    if not tree.is_tree():
        raise ValueError("fragment decomposition requires a tree")
    if not tree.has_vertex(root):
        raise ValueError(f"root {root!r} not in tree")
    n = tree.n
    s = target_size if target_size is not None else max(1, math.isqrt(n - 1) + 1)

    children = _rooted_children(tree, root)

    # Post-order traversal (iterative; trees can be deep).
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

    fragments: List[Fragment] = []
    open_below: Dict[Vertex, List[Vertex]] = {}  # open (unassigned) subtree per vertex
    for v in post:
        mine = [v]
        for c in children[v]:
            mine.extend(open_below.pop(c, []))
        if len(mine) >= s or v == root:
            fragments.append(Fragment(root=v, members=set(mine)))
        else:
            open_below[v] = mine
    if open_below:
        raise FragmentInvariantError(
            f"every vertex must close into a fragment, but the open subtrees "
            f"below {sorted(map(repr, open_below))[:3]} were never merged"
        )

    return FragmentDecomposition(
        tree=tree,
        root=root,
        fragments=fragments,
        children=children,
        max_hop_diameter=max(f.hop_diameter(tree) for f in fragments),
    )
