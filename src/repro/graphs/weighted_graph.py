"""Core weighted undirected graph used throughout the reproduction.

The paper works with weighted undirected graphs ``G = (V, E, w)`` where the
minimum edge weight is 1 and the maximum is poly(n) (Preliminaries, §2).
:class:`WeightedGraph` is a thin adjacency-map structure with exactly the
operations the algorithms need: neighbour iteration, edge weights, subgraph
extraction, union, and weight aggregation.  It deliberately stores each
undirected edge once in a canonical ``(min(u, v), max(u, v))`` form so that
edge sets coming from different algorithms compare cleanly.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.graphs.csr import CSRGraph

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

_INF = float("inf")


#: Types whose ``<=`` is a genuine total order.  The fast path is
#: restricted to exactly these: containers can embed partially-ordered
#: members (a tuple of frozensets compares by subset order without
#: raising), which would make ``vertex_le(u, v)`` and ``vertex_le(v, u)``
#: both False and silently break edge canonicalisation.
_TOTAL_ORDER_TYPES = (int, str, bytes)


def vertex_le(u: Vertex, v: Vertex) -> bool:
    """Total order on vertices: ``u`` precedes (or equals) ``v``.

    Fast path: same-type int/str/bytes (and non-NaN float) vertices
    compare directly — for the ubiquitous int vertices a single C-level
    comparison instead of the two ``repr()`` string builds the old
    implementation paid on every edge visit.  Everything else falls back
    to a ``(type name, repr)`` key, which is total and deterministic.
    """
    tu, tv = type(u), type(v)
    if tu is tv:
        if tu in _TOTAL_ORDER_TYPES:
            return u <= v
        if tu is float and u == u and v == v:  # NaN breaks totality
            return u <= v
    return (tu.__name__, repr(u)) <= (tv.__name__, repr(v))


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``{u, v}``."""
    return (u, v) if vertex_le(u, v) else (v, u)


class WeightedGraph:
    """An undirected graph with positive, finite edge weights.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices (edges add endpoints
        automatically).

    Notes
    -----
    Vertices may be any hashable object; the generators in this package use
    integers ``0..n-1``.  Weights must be positive and finite (NaN and
    infinity are rejected where an edge is added); the paper assumes
    weights in ``[1, poly(n)]`` but the data structure does not enforce a
    finite upper bound.
    """

    __slots__ = ("_adj", "_csr_cache")

    def __init__(self, vertices: Optional[Iterable[Vertex]] = None) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        self._csr_cache = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._csr_cache = None

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Add (or overwrite) the undirected edge ``{u, v}`` with ``weight``.

        Raises
        ------
        ValueError
            If ``u == v`` (self-loop) or ``weight`` is not a positive
            finite number (``weight <= 0``, NaN or infinite).
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        if not 0 < weight < _INF:  # also false for NaN
            raise ValueError(f"edge weights must be positive and finite, got {weight!r}")
        weight = float(weight)
        adj = self._adj
        try:
            adj[u][v] = weight
        except KeyError:
            adj[u] = {v: weight}
        try:
            adj[v][u] = weight
        except KeyError:
            adj[v] = {u: weight}
        self._csr_cache = None

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``{u, v}``.

        Raises
        ------
        KeyError
            If the edge is not present.
        """
        del self._adj[u][v]
        del self._adj[v][u]
        self._csr_cache = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over each undirected edge once, as ``(u, v, weight)``.

        Each edge is stored in both endpoint rows; yielding only the
        canonically-ordered direction visits every edge exactly once
        without the O(m) seen-set the old implementation materialised.
        """
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if vertex_le(u, v):
                    yield u, v, w

    def edge_set(self) -> Set[Edge]:
        """Return the set of canonical edges (without weights)."""
        return {canonical_edge(u, v) for u, v, _ in self.edges()}

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbours of ``v``."""
        return iter(self._adj[v])

    def neighbor_items(self, v: Vertex) -> Iterator[Tuple[Vertex, float]]:
        """Iterate over ``(neighbour, weight)`` pairs of ``v``."""
        return iter(self._adj[v].items())

    def degree(self, v: Vertex) -> int:
        """Number of neighbours of ``v``."""
        return len(self._adj[v])

    def has_vertex(self, v: Vertex) -> bool:
        """True iff ``v`` is a vertex of the graph."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``{u, v}`` is an edge of the graph."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of the edge ``{u, v}``.

        Raises
        ------
        KeyError
            If the edge is not present.
        """
        return self._adj[u][v]

    def total_weight(self) -> float:
        """Sum of all edge weights, ``w(G)``."""
        return sum(w for _, _, w in self.edges())

    def min_weight(self) -> float:
        """Minimum edge weight (``inf`` on an edgeless graph)."""
        return min((w for _, _, w in self.edges()), default=float("inf"))

    def max_weight(self) -> float:
        """Maximum edge weight (0 on an edgeless graph)."""
        return max((w for _, _, w in self.edges()), default=0.0)

    def aspect_ratio(self) -> float:
        """Ratio of maximum to minimum edge weight (Λ in the paper)."""
        lo = self.min_weight()
        if lo == float("inf"):
            return 1.0
        return self.max_weight() / lo

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedGraph":
        """Deep copy of the graph."""
        g = WeightedGraph()
        for v in self._adj:
            g.add_vertex(v)
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "WeightedGraph":
        """Vertex-induced subgraph ``G[C]`` (used for strong diameters, §2)."""
        keep = set(vertices)
        g = WeightedGraph(keep)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v, w)
        return g

    def edge_subgraph(
        self, edges: Iterable[Edge], include_all_vertices: bool = True
    ) -> "WeightedGraph":
        """Subgraph on a given set of edges (weights taken from ``self``).

        Parameters
        ----------
        edges:
            Iterable of vertex pairs; each must be an edge of ``self``.
        include_all_vertices:
            When True (default) the result spans all of ``self``'s
            vertices — the natural setting for spanners, which must span V.
        """
        g = WeightedGraph(self._adj if include_all_vertices else None)
        for u, v in edges:
            g.add_edge(u, v, self.weight(u, v))
        return g

    def union(self, other: "WeightedGraph") -> "WeightedGraph":
        """Union of two graphs; on conflicting weights, keep the smaller."""
        g = self.copy()
        for v in other.vertices():
            g.add_vertex(v)
        for u, v, w in other.edges():
            if not g.has_edge(u, v) or g.weight(u, v) > w:
                g.add_edge(u, v, w)
        return g

    def reweighted(
        self, fn: Callable[[Vertex, Vertex, float], float]
    ) -> "WeightedGraph":
        """Return a copy with each edge ``(u, v, w)`` reweighted to ``fn(u, v, w)``."""
        g = WeightedGraph(self._adj)
        for u, v, w in self.edges():
            g.add_edge(u, v, fn(u, v, w))
        return g

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_component(self, source: Vertex) -> Set[Vertex]:
        """Set of vertices reachable from ``source``."""
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_connected(self) -> bool:
        """True iff the graph is connected (empty graph counts as connected)."""
        if self.n == 0:
            return True
        source = next(iter(self._adj))
        return len(self.connected_component(source)) == self.n

    def connected_components(self) -> List[Set[Vertex]]:
        """All connected components, as vertex sets.

        Components are listed in vertex-insertion order (the order of
        each component's first-inserted vertex), not set-hash order.
        """
        remaining = set(self._adj)
        components: List[Set[Vertex]] = []
        for v in self._adj:
            if v in remaining:
                comp = self.connected_component(v)
                components.append(comp)
                remaining -= comp
        return components

    def is_tree(self) -> bool:
        """True iff the graph is connected and acyclic."""
        return self.n > 0 and self.m == self.n - 1 and self.is_connected()

    # ------------------------------------------------------------------
    # CSR fast-path bridge
    # ------------------------------------------------------------------
    def to_csr(self) -> "CSRGraph":
        """Flatten into a fresh read-only :class:`~repro.graphs.csr.CSRGraph`."""
        from repro.graphs.csr import CSRGraph

        return CSRGraph.from_weighted(self)

    def freeze(self) -> "CSRGraph":
        """Cached :class:`~repro.graphs.csr.CSRGraph` view of this graph.

        The CSR view is built on first call and reused until the next
        mutation (``add_vertex``/``add_edge``/``remove_*`` invalidate it),
        so algorithms that run many traversals over a stable graph —
        all-pairs distances, stretch certification, per-net-point
        explorations — pay the O(n + m) flatten exactly once.
        """
        if self._csr_cache is None:
            self._csr_cache = self.to_csr()
        return self._csr_cache

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> Any:
        """Convert to a ``networkx.Graph`` (weights under key ``'weight'``)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_weighted_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, w={self.total_weight():.4g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        mine = {canonical_edge(u, v): w for u, v, w in self.edges()}
        theirs = {canonical_edge(u, v): w for u, v, w in other.edges()}
        return mine == theirs

    def __hash__(self) -> int:  # graphs are mutable
        raise TypeError("WeightedGraph is unhashable (mutable)")
