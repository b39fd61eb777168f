"""Indexed CSR (compressed-sparse-row) fast-path graph backend.

:class:`~repro.graphs.weighted_graph.WeightedGraph` is the mutable
construction layer: algorithms build, merge and prune graphs through its
adjacency-map API.  Once a graph stops mutating, the hot loops — Dijkstra
relaxations, spanner cluster scans, CONGEST message fan-out — pay for
dict-of-dict iteration, per-edge ``canonical_edge`` calls and hashing of
arbitrary vertex labels on every visit.

:class:`CSRGraph` is the read-only fast path: vertices are relabelled to
``0..n-1`` once, and the adjacency structure is flattened into three
contiguous arrays

* ``indptr``  — ``n + 1`` row offsets; the neighbours of vertex ``i``
  occupy slots ``indptr[i]:indptr[i+1]``,
* ``indices`` — neighbour vertex indices, sorted within each row,
* ``weights`` — the matching edge weights (``array('d')``, contiguous
  C doubles).

Each undirected edge occupies two slots (one per direction).  Degree is
an O(1) subtraction, edge lookup is a binary search of a sorted row, and
the inner loops of the consumers become integer-indexed array scans with
no hashing at all.  Build via :meth:`CSRGraph.from_weighted` or the
:meth:`WeightedGraph.freeze` / :meth:`WeightedGraph.to_csr` bridge.

The label-level inspection API (``vertices``/``edges``/``neighbors``/
``neighbor_items``/``degree``/``has_edge``/``weight``...) mirrors
``WeightedGraph`` so read-only consumers accept either backend; the
index-level API (``row``, ``indices``, ``weights``, ``mirror``,
``rounded_weights``, ``repr_order``, ``mst_edges``, ``bfs_tree``) is
what the rewritten hot paths use directly.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from typing import (
    TYPE_CHECKING, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.graphs.weighted_graph import WeightedGraph

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]
#: a BFS tree's parent map, depth map and measured rounds
BFSParts = Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int], int]


def round_up_weights(weights: Iterable[float], eps: float) -> List[float]:
    """Round each weight up to the next integer power of ``1 + eps``.

    The library's concrete (1+ε)-approximation (DESIGN.md substitution
    3); ``eps <= 0`` leaves the weights unchanged.  ``log(1 + eps)`` is
    taken once, and each power ``(1 + eps) ** e`` once per exponent.
    CPython evaluates ``math.log(w, b)`` as ``log(w) / log(b)``, so
    dividing by the stored logarithm gives the exponent that
    ``ceil(log(w, 1 + eps) - 1e-12)`` gives, and so the same rounded
    weight, bit for bit.
    """
    if eps <= 0:
        return list(weights)
    base = 1.0 + eps
    log_base = math.log(base)
    log, ceil = math.log, math.ceil
    exponents = [ceil(log(w) / log_base - 1e-12) for w in weights]
    powers = {e: base ** e for e in dict.fromkeys(exponents)}
    return [powers[e] for e in exponents]


class CSRGraph:
    """Immutable compressed-sparse-row view of a weighted undirected graph.

    Instances are built once (:meth:`from_weighted`) and never mutated;
    there are deliberately no ``add_edge``/``remove_edge`` methods.  The
    raw arrays are public on purpose — hot loops bind them to locals and
    scan ``indices[indptr[i]:indptr[i+1]]`` directly.
    """

    __slots__ = (
        "indptr", "indices", "weights", "verts", "_index", "_mirror",
        "_min_weight", "_repr_order", "_rounded", "_sorted", "_mst", "_bfs",
    )

    def __init__(
        self,
        indptr: List[int],
        indices: List[int],
        weights: "array[float]",
        verts: List[Vertex],
    ) -> None:
        from repro.graphs.weighted_graph import vertex_le

        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.verts = verts
        self._index: Dict[Vertex, int] = {v: i for i, v in enumerate(verts)}
        self._mirror: Optional[List[int]] = None
        self._min_weight: Optional[float] = None
        self._repr_order: Optional[List[int]] = None
        self._rounded: Dict[float, "array[float]"] = {}
        self._mst: Optional[List[Tuple[int, int, float]]] = None
        self._bfs: Dict[Vertex, BFSParts] = {}
        # when the label order is already canonical (the common case:
        # generators insert int vertices 0..n-1 in order), edges() can
        # yield (verts[i], verts[j]) directly without re-canonicalising
        self._sorted: bool = all(
            vertex_le(verts[k], verts[k + 1]) for k in range(len(verts) - 1)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_weighted(cls, graph: "WeightedGraph") -> "CSRGraph":
        """Flatten a :class:`WeightedGraph` (vertex order = insertion order)."""
        verts: List[Vertex] = list(graph.vertices())
        index = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        indptr = [0] * (n + 1)
        total = 0
        for i, v in enumerate(verts):
            total += graph.degree(v)
            indptr[i + 1] = total
        indices = [0] * total
        weights = array("d", bytes(8 * total))
        pos = 0
        for v in verts:
            row = sorted((index[u], w) for u, w in graph.neighbor_items(v))
            for j, w in row:
                indices[pos] = j
                weights[pos] = w
                pos += 1
        return cls(indptr, indices, weights, verts)

    def freeze(self) -> "CSRGraph":
        """The view itself: it is already frozen.  Code that accepts
        either backend reaches the frozen view with ``graph.freeze()``."""
        return self

    def to_weighted(self) -> "WeightedGraph":
        """Thaw back into a mutable :class:`WeightedGraph`."""
        from repro.graphs.weighted_graph import WeightedGraph

        g = WeightedGraph(self.verts)
        indptr, indices, weights, verts = (
            self.indptr, self.indices, self.weights, self.verts,
        )
        for i in range(len(verts)):
            for s in range(indptr[i], indptr[i + 1]):
                j = indices[s]
                if i < j:
                    g.add_edge(verts[i], verts[j], weights[s])
        return g

    # ------------------------------------------------------------------
    # Index-level API (the fast path)
    # ------------------------------------------------------------------
    def index_of(self, v: Vertex) -> int:
        """Dense index of vertex ``v`` (KeyError if absent)."""
        return self._index[v]

    def row(self, i: int) -> range:
        """Slot range of vertex ``i``'s neighbours in ``indices``/``weights``."""
        return range(self.indptr[i], self.indptr[i + 1])

    def degree_idx(self, i: int) -> int:
        """Degree of the vertex with dense index ``i`` (O(1))."""
        return self.indptr[i + 1] - self.indptr[i]

    def edge_slot(self, i: int, j: int) -> int:
        """Slot of the directed arc ``i -> j``, or ``-1`` if absent.

        Binary search of the sorted row — O(log deg(i)).
        """
        lo, hi = self.indptr[i], self.indptr[i + 1]
        s = bisect_left(self.indices, j, lo, hi)
        return s if s < hi and self.indices[s] == j else -1

    def mirror(self) -> List[int]:
        """Slot permutation mapping each arc to its reverse arc.

        ``mirror()[s]`` is the slot of ``j -> i`` when slot ``s`` holds
        ``i -> j``.  Built lazily (one binary search per arc) and cached;
        mutating consumers (e.g. the Baswana–Sen alive-mask) use it to
        retire both directions of an edge in O(log deg).
        """
        if self._mirror is None:
            indptr, indices = self.indptr, self.indices
            mirror = [0] * len(indices)
            for i in range(len(self.verts)):
                for s in range(indptr[i], indptr[i + 1]):
                    mirror[s] = self.edge_slot(indices[s], i)
            self._mirror = mirror
        return self._mirror

    def rounded_weights(self, eps: float) -> "array[float]":
        """``weights`` with each entry rounded by :func:`round_up_weights`.

        The column the (1+ε)-approximate explorations relax over.  Built
        lazily (one logarithm per slot) and cached per ``eps``, so the
        §7 explorations, which all share one ε, round each weight once
        rather than once per relaxation.  ``eps <= 0`` returns
        ``weights`` itself.
        """
        if eps <= 0:
            return self.weights
        column = self._rounded.get(eps)
        if column is None:
            column = array("d", round_up_weights(self.weights, eps))
            self._rounded[eps] = column
        return column

    def mst_edges(
        self, compute: Callable[["CSRGraph"], List[Tuple[int, int, float]]]
    ) -> List[Tuple[int, int, float]]:
        """The MST's ``(i, j, w)`` index triples, cached on the view.

        ``compute`` (:mod:`repro.mst.kruskal`'s index Kruskal) runs on
        the first call only; every later call returns the same list, so
        the constructions and reports that ask for the MST of one frozen
        graph share one run.  The cache holds ``n − 1`` triples and goes
        away with the view, which ``WeightedGraph`` drops on mutation.
        A ``compute`` that raises (a disconnected graph) caches nothing.
        """
        if self._mst is None:
            self._mst = compute(self)
        return self._mst

    def bfs_tree(self, root: Vertex, compute: Callable[[], BFSParts]) -> BFSParts:
        """The BFS tree τ from ``root``, cached on the view per root.

        ``compute`` (:mod:`repro.congest.bfs`'s simulation) runs on the
        first call for a root only; later calls return the same parts,
        which the caller copies before handing them out.  Like
        :meth:`mst_edges`, the cache goes away with the view, and a
        ``compute`` that raises (a disconnected graph) caches nothing.
        """
        parts = self._bfs.get(root)
        if parts is None:
            parts = self._bfs[root] = compute()
        return parts

    def edges_idx(self) -> Iterator[Tuple[int, int, float]]:
        """Each undirected edge once, as ``(i, j, w)`` with ``i < j``."""
        indptr, indices, weights = self.indptr, self.indices, self.weights
        for i in range(len(self.verts)):
            for s in range(indptr[i], indptr[i + 1]):
                j = indices[s]
                if i < j:
                    yield i, j, weights[s]

    # ------------------------------------------------------------------
    # Label-level API (mirrors WeightedGraph inspection)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.verts)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over vertex labels (dense-index order)."""
        return iter(self.verts)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Each undirected edge once, as canonical ``(u, v, weight)`` labels.

        Yields the same orientation as ``WeightedGraph.edges()`` so edge
        lists built from either backend compare equal.
        """
        indptr, indices, weights, verts = (
            self.indptr, self.indices, self.weights, self.verts,
        )
        if self._sorted:
            for i in range(len(verts)):
                u = verts[i]
                for s in range(indptr[i], indptr[i + 1]):
                    j = indices[s]
                    if i < j:
                        yield u, verts[j], weights[s]
            return
        from repro.graphs.weighted_graph import canonical_edge

        for i, j, w in self.edges_idx():
            u, v = canonical_edge(verts[i], verts[j])
            yield u, v, w

    def edge_set(self) -> Set[Edge]:
        """Canonical edge set (parity with ``WeightedGraph.edge_set``)."""
        from repro.graphs.weighted_graph import canonical_edge

        return {canonical_edge(u, v) for u, v, _ in self.edges()}

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Neighbour labels of ``v`` (sorted by dense index)."""
        verts = self.verts
        for s in self.row(self._index[v]):
            yield verts[self.indices[s]]

    def neighbor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """``(neighbour, weight)`` pairs of ``v``."""
        verts, indices, weights = self.verts, self.indices, self.weights
        for s in self.row(self._index[v]):
            yield verts[indices[s]], weights[s]

    def degree(self, v: Vertex) -> int:
        """Degree of ``v`` (O(1))."""
        i = self._index[v]
        return self.indptr[i + 1] - self.indptr[i]

    def has_vertex(self, v: Vertex) -> bool:
        """True iff ``v`` is a vertex."""
        return v in self._index

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``{u, v}`` is an edge."""
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return False
        return self.edge_slot(iu, iv) >= 0

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of ``{u, v}`` (KeyError if absent)."""
        s = self.edge_slot(self._index[u], self._index[v])
        if s < 0:
            raise KeyError((u, v))
        return self.weights[s]

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(self.weights) / 2.0

    def min_weight(self) -> float:
        """Minimum edge weight (``inf`` on an edgeless graph).

        Found on the first call and cached, like :meth:`rounded_weights`:
        the view never changes, and ``WeightedGraph`` drops it on
        mutation, so the §6–§7 scale loops that ask at every scale scan
        the column once.
        """
        if self._min_weight is None:
            self._min_weight = min(self.weights, default=float("inf"))
        return self._min_weight

    def repr_order(self) -> List[int]:
        """The vertex indices in the order of the vertices' reprs, equal
        reprs in vertex order.

        Sorted on the first call and cached, like :meth:`min_weight`, so
        the greedy nets that scan in this order at every §7 scale, and
        the scale loop that ranks its net points by it, sort once per
        frozen view.  Callers must not mutate the list.
        """
        if self._repr_order is None:
            reprs = [repr(v) for v in self.verts]
            self._repr_order = sorted(range(len(reprs)), key=reprs.__getitem__)
        return self._repr_order

    def max_weight(self) -> float:
        """Maximum edge weight (0 on an edgeless graph)."""
        return max(self.weights, default=0.0)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.verts)

    def __len__(self) -> int:
        return len(self.verts)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m})"
