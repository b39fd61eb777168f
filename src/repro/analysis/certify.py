"""Bounded-radius batched certification engine for per-edge stretch.

The paper's spanner certificate is per-edge (§5.1: for every edge
``e = {u, v} ∈ E``, ``d_H(u, v) <= (2k−1)(1+ε)·w(e)``), yet the obvious
certifier runs one *full* SSSP in H per vertex — Ω(n·m log n) work of
which almost all is wasted: from a source ``u`` only the distances at
``u``'s incident G-neighbours matter, and those sit inside the ball
``B_H(u, bound · max_incident_w(u))`` whenever the spanner is any good.
This module exploits exactly that (the same truncated-exploration trick
the §7 doubling spanner uses for its 2Δ-bounded searches):

* **edge pruning** — an edge already in H (at no larger weight) has
  ``d_H(u, v) <= w(e)``, stretch at most 1, and is never explored; each
  remaining edge is certified from one endpoint only;
* **targeted, radius-capped search** — per source, a Dijkstra over H's
  frozen CSR arrays that stops as soon as every incident target is
  settled (the work saver: on a good spanner the targets settle long
  before the graph is explored), with the §5.1 radius
  ``bound · max_incident_w(u)`` as the violation certificate: popped
  labels are monotone, so the first pop beyond the radius proves every
  unsettled target violates the bound — ``fail_fast`` callers stop
  right there, exact-value callers count the crossing and carry on;
* **batching** — sources are processed in chunks over shared
  version-stamped scratch arrays (no per-source O(n) reinitialisation)
  and one shared frozen CSR, which is also the unit that
  ``workers=N`` fans out across :mod:`multiprocessing` workers;
* **sampling** — ``sample=p`` certifies a seeded random ``p``-fraction
  of the eligible edges, for graphs too big for exact certification
  (the result is then a lower bound on the true maximum);
* **first witness** — a target is closed, without waiting to be
  settled, as soon as a relaxation gives it a tentative label ``nd``
  with ``nd <= w(e)`` and ``nd <= cap`` (counted in
  ``Certification.edges_resolved``).  Its final label is at most ``nd``
  and float division rounds monotonically, so its ratio is at most
  ``nd / w(e) <= 1.0``, the value every maximum starts from: it cannot
  raise the result.  ``nd <= cap`` means its pop would not have crossed
  the radius either, so a target whose final label lies beyond the
  radius is never closed and the search still pops past the radius
  before it ends.  The heap sees the same pushes in the same order and
  each search stops after a prefix of the pops it made without the
  rule: ``max_stretch`` is unchanged bit for bit and the radius
  verdicts (``bound_exceeded``, ``fallbacks``) are the same.  A closing
  depends on its own search only, so ``edges_resolved`` is the same for
  every ``workers``;
* **one hop early** — the same test, also run one hop ahead: when a
  relaxation gives an H-neighbour ``y`` of an open target ``t`` the
  label ``nd``, ``t`` closes if ``nt = nd + w(y, t)`` passes it
  (``nt <= w(e)`` and ``nt <= cap``).  Dijkstra sums a path in exactly
  this forward order and IEEE addition is monotone, so ``t``'s label in
  the full search is at most ``fl(L_y + w(y, t)) <= nt``: the ratio and
  radius arguments above carry over unchanged, and a target still closes
  if and only if its full-search label is at most ``min(w(e), cap)`` (or
  its search had already crossed the radius), so ``edges_resolved`` is
  unchanged too.  The rule only decides how early a closing happens.  A
  chunk arms it once one of its own searches has closed a target: on
  inputs whose missing edges all have longer H paths (a §7 spanner's,
  for one) nothing ever closes, and marking each target's neighbours
  would be pure overhead.

Exactness contract: every non-sampled mode returns the same value as the
classic full-SSSP certifier up to float round-off (far below the 1e-9
verification tolerance — the engine certifies each edge from one endpoint
where the classic loop visited both, and summing a path's weights in the
reverse order can differ in the last bit).  When a search hits the radius
truncation, the engine lifts the cap and keeps draining the same heap
(counted in ``Certification.fallbacks``) instead of restarting, unless
``fail_fast`` was requested — the mode :func:`~repro.analysis.validation.
verify_spanner` uses, where crossing the radius already proves the
violation and the exact value is not needed.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import DEFAULT_COUNT_BOUNDS, MetricsRegistry, Snapshot

INF = float("inf")

#: one unit of per-source work: (h-index of the source,
#: ((h-index of target, edge weight), ...))
SourceWork = Tuple[int, Tuple[Tuple[int, float], ...]]


@dataclass(frozen=True)
class Certification:
    """Outcome and accounting of one certification run.

    ``max_stretch`` is exact (equal to the full-SSSP certifier up to
    float round-off) in every mode except ``"sampled"``, where it is the
    maximum over the sampled edge subset — a lower bound on the true
    value.
    """

    max_stretch: float
    mode: str  # "exact" | "bounded" | "sampled"
    bound: Optional[float]
    workers: int
    sample: Optional[float]
    edges_total: int  # eligible G edges (before any pruning)
    edges_in_spanner: int  # pruned: already in H at no larger weight
    edges_checked: int  # targets actually certified by a search
    edges_resolved: int  # checked targets closed before being settled
    sources_explored: int  # sources that ran a targeted search
    sources_short_circuited: int  # sources with every incident edge pruned
    fallbacks: int  # searches that crossed the radius and kept going
    bound_exceeded: bool  # fail_fast mode: a radius crossing proved violation
    sampled_edges: Optional[int] = None  # == edges_checked when sampling

    @property
    def ok(self) -> bool:
        """True when no violation of ``bound`` was observed (trivially
        True when no bound was given)."""
        if self.bound_exceeded:
            return False
        if self.bound is None:
            return True
        return self.max_stretch <= self.bound + 1e-9

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form for the benchmark report schema."""
        return {
            "mode": self.mode,
            "bound": self.bound,
            "workers": self.workers,
            "sample": self.sample,
            "edges_total": self.edges_total,
            "edges_in_spanner": self.edges_in_spanner,
            "edges_checked": self.edges_checked,
            "edges_resolved": self.edges_resolved,
            "sources_explored": self.sources_explored,
            "sources_short_circuited": self.sources_short_circuited,
            "fallbacks": self.fallbacks,
            "sampled_edges": self.sampled_edges,
        }


def _build_work(
    gcsr: CSRGraph,
    hcsr: CSRGraph,
    sample: Optional[float],
    seed: int,
) -> Tuple[List[SourceWork], int, int, int, bool]:
    """One pass over G's edges producing the per-source target lists.

    Returns ``(work, edges_total, edges_in_spanner, sources_pruned,
    missing_vertex)``; ``missing_vertex`` flags a G vertex with incident
    edges that H does not even contain (stretch is ``inf`` outright; the
    scan stops there, so the other counters are zeroed rather than
    reported half-scanned).
    """
    h_index = {v: i for i, v in enumerate(hcsr.verts)}
    g2h = [h_index.get(v, -1) for v in gcsr.verts]
    rng = random.Random(seed) if sample is not None else None
    work: List[SourceWork] = []
    edges_total = 0
    edges_in_spanner = 0
    sources_pruned = 0
    indptr, indices, weights = gcsr.indptr, gcsr.indices, gcsr.weights
    for ui in range(gcsr.n):
        a, b = indptr[ui], indptr[ui + 1]
        if a == b:
            continue
        targets: List[Tuple[int, float]] = []
        for s in range(a, b):
            vi = indices[s]
            if vi < ui:
                continue  # certified once, from the smaller endpoint
            edges_total += 1
            w = weights[s]
            uh, vh = g2h[ui], g2h[vi]
            if uh < 0 or vh < 0:
                return [], gcsr.m, 0, 0, True
            slot = hcsr.edge_slot(uh, vh)
            # exact comparison on purpose: any slack would mis-prune
            # near-zero-weight edges whose true ratio is large
            if slot >= 0 and hcsr.weights[slot] <= w:
                edges_in_spanner += 1  # d_H <= w(e): stretch at most 1
                continue
            if rng is not None and rng.random() >= sample:
                continue
            targets.append((vh, w))
        if targets:
            work.append((g2h[ui], tuple(targets)))
        else:
            sources_pruned += 1
    return work, edges_total, edges_in_spanner, sources_pruned, False


def _certify_chunk(
    hcsr: CSRGraph,
    work: Sequence[SourceWork],
    lo: int,
    hi: int,
    bound: Optional[float],
    fail_fast: bool,
) -> Tuple[float, int, int, bool, Snapshot]:
    """Certify ``work[lo:hi]``; returns ``(worst, fallbacks, resolved,
    exceeded, metrics snapshot)``, ``resolved`` counting the targets
    closed at their first witness path, at the target or one hop before
    it (see the module docstring).

    The scratch arrays are version-stamped so consecutive sources reuse
    them without O(n) clears: an entry is live only when its stamp
    matches the current source's version.

    The snapshot is the chunk's *local* metrics (per-source target-count
    histogram) — a pool worker aggregates into its own registry and
    ships the picklable snapshot back with the result; the parent folds
    it into the process-wide registry at the chunk boundary, so the
    workers=N totals equal the workers=1 totals exactly.
    """
    chunk_metrics = MetricsRegistry()
    targets_hist = chunk_metrics.histogram(
        "certify.source.targets", DEFAULT_COUNT_BOUNDS
    )
    n = hcsr.n
    indptr, indices, weights = hcsr.indptr, hcsr.indices, hcsr.weights
    dist = [0.0] * n
    stamp = [0] * n  # dist[v] is live iff stamp[v] == version
    done = [0] * n  # v is settled iff done[v] == version
    # is_target[v] == version: v is an open target (neither settled nor
    # closed); == -version: v was closed at its first witness path
    is_target = [0] * n
    target_w = [0.0] * n  # w(e) of the source's edge to target v
    # near_of[y], live iff near[y] == version: the (t, w(y, t)) pairs of
    # the open targets t that y is an H-neighbour of (the look-ahead)
    near = [0] * n
    near_of: List[Optional[List[Tuple[int, float]]]] = [None] * n
    version = 0
    worst = 1.0
    fallbacks = 0
    resolved = 0
    push, pop = heapq.heappush, heapq.heappop
    for src, targets in work[lo:hi]:
        targets_hist.observe(len(targets))
        version += 1
        # the + 1e-9 mirrors the verifiers' ratio tolerance: a crossing
        # proves ratio > bound + 1e-9 for every unsettled target's edge
        cap = (
            (bound + 1e-9) * max(w for _, w in targets)
            if bound is not None else INF
        )
        remaining = 0
        for vh, w in targets:
            if is_target[vh] != version:
                is_target[vh] = version
                target_w[vh] = w
                remaining += 1
                if resolved:
                    # armed: a search of this chunk has closed a target,
                    # so this input's missing edges can have witnesses
                    for s in range(indptr[vh], indptr[vh + 1]):
                        y = indices[s]
                        marks = near_of[y]
                        if near[y] == version and marks is not None:
                            marks.append((vh, weights[s]))
                        else:
                            near[y] = version
                            near_of[y] = [(vh, weights[s])]
        stamp[src] = version
        dist[src] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, src)]
        while heap and remaining:
            d, u = pop(heap)
            if done[u] == version or d > dist[u]:
                continue
            if d > cap:
                # every unsettled target is beyond bound · max_incident_w:
                # the certificate is already violated for its edge
                if fail_fast:
                    return INF, fallbacks, resolved, True, chunk_metrics.snapshot()
                fallbacks += 1
                cap = INF  # lift the radius and keep draining the same heap
            done[u] = version
            if is_target[u] == version:
                is_target[u] = 0
                remaining -= 1
                if not remaining:
                    break
            a, b = indptr[u], indptr[u + 1]
            for s in range(a, b):
                v = indices[s]
                nd = d + weights[s]
                if stamp[v] != version or nd < dist[v]:
                    stamp[v] = version
                    dist[v] = nd
                    push(heap, (nd, v))
                    if (is_target[v] == version and nd <= target_w[v]
                            and nd <= cap):
                        # first witness: v's final label is at most
                        # nd <= w(e), so its ratio is at most 1.0
                        is_target[v] = -version
                        resolved += 1
                        remaining -= 1
                        if not remaining:
                            break
                    if near[v] == version:
                        # one hop early: t's final label is at most
                        # nt = nd + w(v, t) <= w(e), so its ratio is at
                        # most 1.0
                        for t, wt in near_of[v] or ():
                            nt = nd + wt
                            if (is_target[t] == version and nt <= target_w[t]
                                    and nt <= cap):
                                is_target[t] = -version
                                resolved += 1
                                remaining -= 1
                        if not remaining:
                            break
        for vh, w in targets:
            if is_target[vh] == -version:
                continue  # closed: its ratio is at most 1.0
            if done[vh] != version:
                # unreachable in H
                return INF, fallbacks, resolved, False, chunk_metrics.snapshot()
            ratio = dist[vh] / w
            if ratio > worst:
                worst = ratio
    return worst, fallbacks, resolved, False, chunk_metrics.snapshot()


# -- multiprocessing plumbing -------------------------------------------------
# Workers inherit (or unpickle, under spawn) the frozen CSR and the full
# work list exactly once via the pool initializer; tasks then name chunks
# by index range so no per-task graph pickling happens.
_POOL_STATE: Dict[str, object] = {}


def _pool_init(
    hcsr: CSRGraph,
    work: Sequence[SourceWork],
    bound: Optional[float],
    fail_fast: bool,
) -> None:
    _POOL_STATE["args"] = (hcsr, work, bound, fail_fast)


def _pool_chunk(span: Tuple[int, int]) -> Tuple[float, int, int, bool, Snapshot]:
    hcsr, work, bound, fail_fast = _POOL_STATE["args"]
    return _certify_chunk(hcsr, work, span[0], span[1], bound, fail_fast)


def certify_edge_stretch(
    graph: WeightedGraph,
    spanner: WeightedGraph,
    bound: Optional[float] = None,
    workers: int = 1,
    sample: Optional[float] = None,
    seed: int = 0,
    fail_fast: bool = False,
) -> Certification:
    """Certify ``max_{e={u,v} ∈ E(G)} d_H(u, v) / w(e)`` with the
    bounded-radius batched engine.

    Parameters
    ----------
    graph, spanner:
        The host graph G and the subgraph H to certify (both are frozen
        to their cached CSR views).
    bound:
        The stretch guarantee being certified.  Sets the per-source
        truncation radius ``bound · max_incident_w(u)``; the returned
        value stays exact (see the module docstring) unless
        ``fail_fast`` is also given.
    workers:
        ``> 1`` chunks the per-source work across that many
        :mod:`multiprocessing` processes sharing one frozen CSR.
    sample:
        When in ``(0, 1]``, certify only a seeded random fraction of
        the eligible edges; the result is a lower bound on the true
        maximum and ``sampled_edges`` records the subset size.
    seed:
        Seed for the edge-sampling RNG (ignored unless ``sample`` is
        given).
    fail_fast:
        With ``bound``: stop at the first certified violation (radius
        crossing) and report ``max_stretch = inf`` with
        ``bound_exceeded=True`` instead of computing the exact value.

    Raises
    ------
    ValueError
        On a non-positive ``workers``, a ``sample`` outside ``(0, 1]``,
        or ``fail_fast`` without ``bound``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if sample is not None and not (0.0 < sample <= 1.0):
        raise ValueError(f"sample must be in (0, 1], got {sample}")
    if fail_fast and bound is None:
        raise ValueError("fail_fast requires a stretch bound")
    gcsr = graph.freeze() if isinstance(graph, WeightedGraph) else graph
    hcsr = spanner.freeze() if isinstance(spanner, WeightedGraph) else spanner
    mode = "sampled" if sample is not None else (
        "bounded" if bound is not None else "exact"
    )

    with obs_trace.span("certify.build_work", mode=mode):
        work, edges_total, edges_in_spanner, pruned, missing = _build_work(
            gcsr, hcsr, sample, seed
        )
    edges_checked = sum(len(targets) for _, targets in work)

    def _result(
        worst: float, fallbacks: int, resolved: int, exceeded: bool
    ) -> Certification:
        reg = obs_metrics.registry()
        reg.counter("certify.edges.total").inc(edges_total)
        reg.counter("certify.edges.pruned").inc(edges_in_spanner)
        reg.counter("certify.edges.checked").inc(edges_checked)
        reg.counter("certify.edges.resolved").inc(resolved)
        reg.counter("certify.sources.explored").inc(len(work))
        reg.counter("certify.sources.short_circuited").inc(pruned)
        reg.counter("certify.search.fallbacks").inc(fallbacks)
        if exceeded:
            reg.counter("certify.fail_fast.exceeded").inc()
        return Certification(
            max_stretch=worst,
            mode=mode,
            bound=bound,
            workers=workers,
            sample=sample,
            edges_total=edges_total,
            edges_in_spanner=edges_in_spanner,
            edges_checked=edges_checked,
            edges_resolved=resolved,
            sources_explored=len(work),
            sources_short_circuited=pruned,
            fallbacks=fallbacks,
            bound_exceeded=exceeded,
            sampled_edges=edges_checked if sample is not None else None,
        )

    if missing:
        # an edge endpoint is not even a vertex of H: stretch is inf
        # (matches the classic certifier's dist.get(v, inf) early return)
        return _result(INF, 0, 0, False)
    if not work:
        return _result(1.0, 0, 0, False)

    if workers == 1 or len(work) < 2 * workers:
        with obs_trace.span("certify.chunk", sources=len(work)):
            worst, fallbacks, resolved, exceeded, chunk_snap = _certify_chunk(
                hcsr, work, 0, len(work), bound, fail_fast
            )
        obs_metrics.merge(chunk_snap)
        return _result(worst, fallbacks, resolved, exceeded)

    # a few chunks per worker smooths imbalance between cheap
    # (short-circuiting) and expensive (deep-exploration) sources
    step = max(1, len(work) // (workers * 4))
    spans = [(lo, min(lo + step, len(work))) for lo in range(0, len(work), step)]
    worst, fallbacks, resolved, exceeded = 1.0, 0, 0, False
    with obs_trace.span("certify.pool", workers=workers, chunks=len(spans)):
        with multiprocessing.Pool(
            processes=workers,
            initializer=_pool_init,
            initargs=(hcsr, work, bound, fail_fast),
        ) as pool:
            # imap_unordered so a fail_fast violation stops the run at the
            # first exceeded chunk instead of draining every span
            for w, f, r, e, chunk_snap in pool.imap_unordered(_pool_chunk, spans):
                # fold the worker's local metrics in at the chunk boundary
                # (workers never touch the parent's registry directly)
                obs_metrics.merge(chunk_snap)
                worst = max(worst, w)
                fallbacks += f
                resolved += r
                exceeded = exceeded or e
                if exceeded and fail_fast:
                    pool.terminate()
                    break
    return _result(worst, fallbacks, resolved, exceeded)
