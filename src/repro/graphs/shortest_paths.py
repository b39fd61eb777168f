"""Sequential shortest-path routines (ground truth for the simulator).

These are the *centralized* references the test-suite and the analysis
package use to validate the distributed constructions: exact Dijkstra,
hop-ignoring BFS (the paper's hop-diameter ``D``), and small-graph
all-pairs distances.  A distance-bounded search is a
:class:`repro.kernels.pykern.Search` with a ``cap``, over a frozen
view's columns and dense indices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.kernels import pykern

INF = float("inf")

#: Read-only graph views every traversal here accepts.
GraphLike = Union[WeightedGraph, CSRGraph]


def _normalize_sources(
    graph: GraphLike, sources: Iterable[Vertex] | Vertex
) -> List[Vertex]:
    """Resolve the ``sources`` argument into a non-empty vertex list.

    A single vertex becomes a one-element list.  Misuses that used to
    fail silently or with an unrelated error are rejected with a
    ``ValueError`` instead:

    * an *empty* iterable (the traversal would return empty dicts that
      look like "nothing is reachable");
    * a string that is not itself a vertex (iterating it would treat
      each character as a source);
    * any other source that is not a vertex, alone (``99`` is not
      iterable) or in an iterable (``[0, 99]``); the message names it.

    Raises
    ------
    ValueError
        On an empty source set or a source that is not a vertex.
    """
    try:
        if graph.has_vertex(sources):  # single-vertex call
            return [sources]
    except TypeError:
        pass  # unhashable => definitely an iterable of sources
    if isinstance(sources, (str, bytes)):
        raise ValueError(
            f"source {sources!r} is not a vertex (a non-vertex string would "
            f"be iterated character by character)"
        )
    try:
        out = list(sources)
    except TypeError:
        raise ValueError(f"source {sources!r} is not a vertex") from None
    if not out:
        raise ValueError("at least one source vertex is required")
    for s in out:
        _check_source(graph, s)
    return out


def _check_source(graph: GraphLike, source: Vertex) -> None:
    """Raise ``ValueError`` naming ``source`` when it is not a vertex."""
    if not graph.has_vertex(source):
        raise ValueError(f"source {source!r} is not a vertex")


def dijkstra(
    graph: GraphLike, sources: Iterable[Vertex] | Vertex
) -> Tuple[Dict[Vertex, float], Dict[Vertex, Optional[Vertex]]]:
    """Multi-source Dijkstra: one :func:`repro.kernels.pykern.sssp` run,
    translated to labels.

    Parameters
    ----------
    graph:
        The weighted graph — either a :class:`WeightedGraph` (frozen to
        its cached CSR view) or a :class:`CSRGraph`.  A full SSSP is
        Ω(m) anyway, so freezing (invalidated by mutation) costs at most
        one extra edge sweep, and every later call on the same graph
        reuses the index arrays.
    sources:
        A single vertex or an iterable of source vertices (all at
        distance 0).

    Returns
    -------
    (dist, parent):
        ``dist[v]`` is the distance from the nearest source (vertices
        unreachable from every source are absent); ``parent[v]`` is the
        predecessor on a shortest path (``None`` for sources).  Both
        dicts list vertices in CSR index order.

    Raises
    ------
    ValueError
        On an empty source set or a source that is not a vertex.
    """
    csr = graph.freeze()
    sources = _normalize_sources(csr, sources)
    dist, parent = pykern.sssp(
        csr.indptr, csr.indices, csr.weights, [csr.index_of(s) for s in sources]
    )
    verts = csr.verts
    out_dist: Dict[Vertex, float] = {}
    out_parent: Dict[Vertex, Optional[Vertex]] = {}
    for i in range(csr.n):
        p = parent[i]
        if p == pykern.PARENT_UNREACHED:
            continue
        out_dist[verts[i]] = dist[i]
        out_parent[verts[i]] = None if p == pykern.PARENT_SOURCE else verts[p]
    return out_dist, out_parent


def all_pairs_shortest_paths(graph: GraphLike) -> Dict[Vertex, Dict[Vertex, float]]:
    """All-pairs distances by repeated Dijkstra (fine for test-sized graphs).

    A :class:`WeightedGraph` input is frozen once so all ``n`` runs share
    the CSR fast path.
    """
    csr = graph.freeze()
    return {v: dijkstra(csr, v)[0] for v in csr.vertices()}


def hop_distances(graph: GraphLike, source: Vertex) -> Dict[Vertex, int]:
    """Unweighted (hop) distances from ``source`` via BFS over the CSR view.

    Raises
    ------
    ValueError
        If ``source`` is not a vertex.
    """
    csr = graph.freeze()
    _check_source(csr, source)
    verts = csr.verts
    return {verts[i]: d for i, d in _csr_hop_distances(csr, csr.index_of(source))}


def _csr_hop_distances(csr: CSRGraph, src: int) -> List[Tuple[int, int]]:
    """BFS over CSR arrays; returns ``(vertex index, hop distance)`` pairs
    in visit order (a flat int-array frontier — no per-vertex hashing)."""
    indptr, indices = csr.indptr, csr.indices
    dist = [-1] * csr.n
    dist[src] = 0
    order = [(src, 0)]
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if dist[v] < 0:
                    dist[v] = d
                    order.append((v, d))
                    nxt.append(v)
        frontier = nxt
    return order


def hop_diameter(graph: GraphLike) -> int:
    """The paper's ``D``: diameter of the underlying unweighted graph.

    Computed exactly by BFS from every vertex (the graph is frozen to its
    CSR view once and all ``n`` traversals run over the index arrays,
    reusing one mark array across sources); intended for the moderate
    graph sizes used in tests and benchmarks.

    Raises
    ------
    ValueError
        If the graph is disconnected (hop diameter undefined).
    """
    if graph.n == 0:
        return 0
    csr = graph.freeze()
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    mark = [-1] * n  # mark[v] == src iff v was reached in src's BFS
    best = 0
    for src in range(n):
        mark[src] = src
        frontier = [src]
        reached = 1
        depth = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if mark[v] != src:
                        mark[v] = src
                        nxt.append(v)
            if nxt:
                depth += 1
                reached += len(nxt)
            frontier = nxt
        if reached != n:
            raise ValueError("hop diameter undefined: graph is disconnected")
        best = max(best, depth)
    return best
