"""Preprocess-once / query-many approximate-distance serving layer.

The paper's objects — spanners and shallow-light trees — exist so
that distance queries can be answered *cheaply*: the expensive guarantee
(stretch ``t`` vs the host graph G) is baked into the structure H at
construction time, after which ``d_H`` is a ``t``-approximation of
``d_G`` forever.  :class:`DistanceOracle` is the serving half of that
bargain.  Build it once over a constructed structure and every query is
answered **exactly on the structure** (``d_H``, to float round-off), so
the answer inherits the structure's paper-certified stretch bound
against G — the oracle adds speed, never error.

Preprocessing freezes the structure to its CSR view, selects seeded
landmarks (:mod:`repro.oracle.landmarks`) and runs one full Dijkstra per
landmark; queries then run **bidirectional Dijkstra with ALT pruning**
over the CSR arrays:

* the landmark potentials give an upper bound ``min_l d(l,u) + d(l,v)``
  and a lower bound ``max_l |d(l,u) − d(l,v)|`` before any search; when
  they pinch (e.g. an endpoint is a landmark) the query is answered with
  no search at all;
* otherwise two Dijkstra frontiers meet in the middle, and a frontier
  vertex whose label plus its landmark lower bound to the far endpoint
  cannot beat the best path found so far is never expanded;
* scratch arrays are version-stamped (the certify engine's trick), so a
  batch of queries — :meth:`DistanceOracle.query_many` — reuses them
  with no per-query O(n) clearing;
* an LRU cache with hit/miss counters short-circuits repeated queries —
  the serving regime the ROADMAP's query traffic implies;
* the whole oracle pickles (scratch and cached answers are dropped, the
  precomputed potentials travel), so a structure can be preprocessed in
  one process and served from another.
"""

from __future__ import annotations

import heapq
import time
from array import array
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.oracle.landmarks import STRATEGIES, landmarks_with_potentials

INF = float("inf")

#: default number of landmarks (diminishing returns beyond ~16 on the
#: structure sizes this repository serves)
DEFAULT_LANDMARKS = 8
#: default LRU capacity (answers are 3 machine words each)
DEFAULT_CACHE_SIZE = 4096


def _components(csr: CSRGraph) -> List[int]:
    """Component id per dense index (a query across components is ``inf``)."""
    n = csr.n
    indptr, indices = csr.indptr, csr.indices
    comp = [-1] * n
    cid = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = cid
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for s in range(indptr[u], indptr[u + 1]):
                    v = indices[s]
                    if comp[v] < 0:
                        comp[v] = cid
                        nxt.append(v)
            frontier = nxt
        cid += 1
    return comp


class _Scratch:
    """Version-stamped per-process search state, shared across a batch.

    ``dist_f[v]`` / ``dist_b[v]`` are live only when the matching stamp
    equals the current query's version — consecutive queries reuse the
    arrays without clearing them (the certify engine's batching trick).
    Never pickled; rebuilt lazily after unpickling.
    """

    __slots__ = ("dist_f", "stamp_f", "done_f", "dist_b", "stamp_b", "done_b",
                 "version")

    def __init__(self, n: int) -> None:
        self.dist_f = [0.0] * n
        self.stamp_f = [0] * n
        self.done_f = [0] * n
        self.dist_b = [0.0] * n
        self.stamp_b = [0] * n
        self.done_b = [0] * n
        self.version = 0


class DistanceOracle:
    """Exact-on-structure distance oracle with landmark-ALT queries.

    Build via :meth:`build` (or the :func:`build_oracle` convenience).
    Queries take vertex *labels* of the served structure and return
    ``d_H`` — ``inf`` across components, 0 on ``u == v``.  Because the
    answers are exact on H, a structure with paper guarantee
    ``d_H <= t · d_G`` makes every answer a ``t``-approximate distance
    of the host graph.
    """

    def __init__(
        self,
        csr: CSRGraph,
        landmark_indices: Sequence[int],
        potentials: Sequence[Sequence[float]],
        components: Sequence[int],
        strategy: str,
        seed: int,
        cache_size: int = DEFAULT_CACHE_SIZE,
        copy: bool = True,
    ) -> None:
        # copy=False serves potentials/components in place — the
        # shared-memory worker path (repro.serve.shm), where the rows
        # are read-only memoryviews into one segment shared by every
        # worker and copying would defeat the sharing.
        self.csr = csr
        self.landmark_indices = list(landmark_indices)
        self.potentials: List[Sequence[float]] = (
            [list(p) for p in potentials] if copy else list(potentials)
        )
        self.components = components
        self.strategy = strategy
        self.seed = seed
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        # Per-oracle registry, not the process-wide one: two live oracles
        # must not pool their counters, and reset_cache() must not clobber
        # anyone else's metrics.  The harness folds this into the global
        # registry after serving a workload (see harness/queries.py).
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("oracle.cache.hits")
        self._misses = self.metrics.counter("oracle.cache.misses")
        self._pinched = self.metrics.counter("oracle.query.pinched")
        self._searches = self.metrics.counter("oracle.query.searched")
        self._latency = self.metrics.histogram("oracle.query.latency_ms")
        self._scratch: Optional[_Scratch] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        structure: "WeightedGraph | CSRGraph",
        landmarks: int = DEFAULT_LANDMARKS,
        strategy: str = "far",
        seed: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        kernel: str = "python",
    ) -> "DistanceOracle":
        """Preprocess ``structure`` (spanner / SLT / any weighted graph).

        A :class:`WeightedGraph` is frozen to its cached CSR view; the
        structure is never mutated and never copied beyond that.

        ``kernel`` selects the SSSP backend the landmark potentials are
        computed with (:mod:`repro.kernels`; ``"numpy"`` batches the
        ``"degree"`` strategy's Dijkstras into one matrix pass).  The
        resulting oracle is kernel-independent: same landmarks, same
        potentials to 1e-9, same answers.

        Raises
        ------
        ValueError
            On an empty structure, an unknown strategy, a landmark
            count that is not an integer >= 1, or a non-positive cache
            size.
        """
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown landmark strategy {strategy!r}; choose from {STRATEGIES}"
            )
        csr = structure.freeze()
        if csr.n == 0:
            raise ValueError("cannot build an oracle over an empty structure")
        # far-sampling's selection Dijkstras double as the potentials,
        # so each landmark's SSSP runs exactly once
        chosen, potentials = landmarks_with_potentials(
            csr, landmarks, strategy=strategy, seed=seed, kernel=kernel
        )
        return cls(
            csr, chosen, potentials, _components(csr), strategy, seed,
            cache_size=cache_size,
        )

    @property
    def landmarks(self) -> List[Vertex]:
        """The landmark vertices, as structure labels."""
        return [self.csr.verts[i] for i in self.landmark_indices]

    @property
    def n(self) -> int:
        """Number of vertices served."""
        return self.csr.n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _index(self, v: Vertex) -> int:
        try:
            return self.csr.index_of(v)
        except (KeyError, TypeError):
            raise ValueError(
                f"{v!r} is not a vertex of the served structure"
            ) from None

    def _bounds(self, s: int, t: int) -> Tuple[float, float]:
        """Landmark (lower, upper) bounds on ``d(s, t)``.

        Landmarks in other components (potential ``inf`` at either
        endpoint) prove nothing about the pair and are skipped; the
        component test has already handled cross-component pairs.
        """
        lb, ub = 0.0, INF
        for pot in self.potentials:
            ps, pt = pot[s], pot[t]
            if ps == INF or pt == INF:
                continue
            diff = ps - pt if ps >= pt else pt - ps
            if diff > lb:
                lb = diff
            tot = ps + pt
            if tot < ub:
                ub = tot
        return lb, ub

    def _search(self, s: int, t: int, lb0: float, mu: float) -> float:
        """Bidirectional ALT-pruned Dijkstra; exact ``d(s, t)``.

        ``mu`` starts at the landmark upper bound and only improves as
        the frontiers meet; the loop stops when the two heap tops prove
        no remaining path beats it.  A settled vertex whose label plus
        its landmark lower bound to the far endpoint reaches ``mu`` is
        never expanded (ALT pruning keeps exactness: such a vertex
        cannot lie on a path shorter than an already-found one).
        """
        csr = self.csr
        indptr, indices, weights = csr.indptr, csr.indices, csr.weights
        potentials = self.potentials
        scratch = self._scratch
        if scratch is None or len(scratch.dist_f) != csr.n:
            scratch = self._scratch = _Scratch(csr.n)
        scratch.version += 1
        version = scratch.version
        dist_f, stamp_f, done_f = scratch.dist_f, scratch.stamp_f, scratch.done_f
        dist_b, stamp_b, done_b = scratch.dist_b, scratch.stamp_b, scratch.done_b
        dist_f[s] = 0.0
        stamp_f[s] = version
        dist_b[t] = 0.0
        stamp_b[t] = version
        heap_f: List[Tuple[float, int]] = [(0.0, s)]
        heap_b: List[Tuple[float, int]] = [(0.0, t)]
        push, pop = heapq.heappush, heapq.heappop
        while heap_f and heap_b:
            if heap_f[0][0] + heap_b[0][0] >= mu:
                break  # no undiscovered path can beat the best one found
            forward = heap_f[0][0] <= heap_b[0][0]
            if forward:
                heap, dist, stamp, done = heap_f, dist_f, stamp_f, done_f
                odist, ostamp, far = dist_b, stamp_b, t
            else:
                heap, dist, stamp, done = heap_b, dist_b, stamp_b, done_b
                odist, ostamp, far = dist_f, stamp_f, s
            d, u = pop(heap)
            if done[u] == version or d > dist[u]:
                continue
            done[u] = version
            # ALT pruning: d + lb(u, far endpoint) >= mu => expanding u
            # cannot improve on the path already in hand
            prune = 0.0
            for pot in potentials:
                pu, pf = pot[u], pot[far]
                if pu == INF or pf == INF:
                    continue
                diff = pu - pf if pu >= pf else pf - pu
                if diff > prune:
                    prune = diff
                    if d + prune >= mu:
                        break
            if d + prune >= mu:
                continue
            for slot in range(indptr[u], indptr[u + 1]):
                v = indices[slot]
                nd = d + weights[slot]
                if nd >= mu:
                    continue
                if stamp[v] != version or nd < dist[v]:
                    stamp[v] = version
                    dist[v] = nd
                    push(heap, (nd, v))
                    if ostamp[v] == version:
                        total = nd + odist[v]
                        if total < mu:
                            mu = total
        return mu

    def _answer(self, s: int, t: int) -> float:
        """Uncached exact distance between dense indices ``s`` and ``t``."""
        if s == t:
            return 0.0
        if self.components[s] != self.components[t]:
            return INF
        lb, ub = self._bounds(s, t)
        if ub <= lb:
            # the landmark sandwich pinches (e.g. an endpoint is a
            # landmark, or a landmark lies on a shortest path): exact
            self._pinched.inc()
            return ub
        self._searches.inc()
        return self._search(s, t, lb, ub)

    def _query(self, u: Vertex, v: Vertex) -> float:
        s, t = self._index(u), self._index(v)
        key = (s, t) if s <= t else (t, s)
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            self._hits.inc()
            cache.move_to_end(key)
            return hit
        self._misses.inc()
        answer = self._answer(s, t)
        cache[key] = answer
        if len(cache) > self.cache_size:
            cache.popitem(last=False)
        return answer

    def query(self, u: Vertex, v: Vertex) -> float:
        """Exact structure distance ``d_H(u, v)`` (``inf`` across components).

        While tracing is enabled, each query's wall time additionally
        lands in the ``oracle.query.latency_ms`` histogram; the timing
        is gated so the disabled path pays no clock reads.

        Raises
        ------
        ValueError
            If either endpoint is not a vertex of the served structure.
        """
        if not obs_trace.enabled():
            return self._query(u, v)
        t0 = time.perf_counter()
        answer = self._query(u, v)
        self._latency.observe((time.perf_counter() - t0) * 1e3)
        return answer

    def query_many(self, pairs: Iterable[Tuple[Vertex, Vertex]]) -> List[float]:
        """Batch :meth:`query`: one answer per ``(u, v)`` pair, in order.

        Loops :meth:`query`, sharing the version-stamped scratch arrays
        and the LRU cache across the batch.
        """
        return [self.query(u, v) for u, v in pairs]

    def k_nearest(self, v: Vertex, k: int) -> List[Tuple[Vertex, float]]:
        """The ``k`` nearest other vertices of ``v`` on the structure.

        Returned as ``(vertex, distance)`` sorted by distance (ties by
        dense index), computed by a Dijkstra truncated after ``k``
        settles — unreachable vertices never qualify.

        Raises
        ------
        ValueError
            On ``k < 1`` or an unknown vertex.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        src = self._index(v)
        csr = self.csr
        indptr, indices, weights = csr.indptr, csr.indices, csr.weights
        dist: Dict[int, float] = {src: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, src)]
        push, pop = heapq.heappush, heapq.heappop
        settled: List[Tuple[Vertex, float]] = []
        seen = set()
        while heap and len(settled) < k + 1:
            d, u = pop(heap)
            if u in seen or d > dist[u]:
                continue
            seen.add(u)
            settled.append((csr.verts[u], d))
            for slot in range(indptr[u], indptr[u + 1]):
                w = indices[slot]
                nd = d + weights[slot]
                if nd < dist.get(w, INF):
                    dist[w] = nd
                    push(heap, (nd, w))
        return [(vertex, d) for vertex, d in settled if vertex != v][:k]

    # ------------------------------------------------------------------
    # Cache accounting
    # ------------------------------------------------------------------
    # The four counters live in the per-oracle metrics registry (the
    # single vocabulary of repro.obs); these properties keep the original
    # int attributes readable.
    @property
    def hits(self) -> int:
        """Queries answered from the LRU cache."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Queries that had to be computed."""
        return int(self._misses.value)

    @property
    def pinched(self) -> int:
        """Queries answered by landmark bounds alone."""
        return int(self._pinched.value)

    @property
    def searches(self) -> int:
        """Queries that ran the bidirectional search."""
        return int(self._searches.value)

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters plus current occupancy and capacity."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "pinched": self.pinched,
            "searches": self.searches,
            "size": len(self._cache),
            "maxsize": self.cache_size,
        }

    def reset_cache(self) -> None:
        """Drop cached answers and zero the metrics (capacity kept)."""
        self._cache.clear()
        self.metrics.reset()

    # ------------------------------------------------------------------
    # Pickling: potentials travel, per-process state does not
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        # materialise: a shared-memory-backed oracle (copy=False views
        # over a segment) must pickle into a self-contained one
        csr = self.csr
        if isinstance(csr.indptr, memoryview):
            csr = CSRGraph(
                list(csr.indptr),
                list(csr.indices),
                array("d", csr.weights),
                list(csr.verts),
            )
        return {
            "csr": csr,
            "landmark_indices": self.landmark_indices,
            "potentials": [list(p) for p in self.potentials],
            "components": list(self.components),
            "strategy": self.strategy,
            "seed": self.seed,
            "cache_size": self.cache_size,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(
            state["csr"],
            state["landmark_indices"],
            state["potentials"],
            state["components"],
            state["strategy"],
            state["seed"],
            cache_size=state["cache_size"],
        )

    def __repr__(self) -> str:
        return (
            f"DistanceOracle(n={self.csr.n}, m={self.csr.m}, "
            f"landmarks={len(self.landmark_indices)}, "
            f"strategy={self.strategy!r})"
        )


def build_oracle(
    structure: "WeightedGraph | CSRGraph",
    landmarks: int = DEFAULT_LANDMARKS,
    strategy: str = "far",
    seed: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    kernel: str = "python",
) -> DistanceOracle:
    """Convenience wrapper for :meth:`DistanceOracle.build`."""
    return DistanceOracle.build(
        structure, landmarks=landmarks, strategy=strategy, seed=seed,
        cache_size=cache_size, kernel=kernel,
    )
