"""numpy frontier-relaxation SSSP kernel.

Importing this module requires numpy — callers go through
:func:`repro.kernels.dispatch.resolve_kernel` and only reach here when
``kernel="numpy"`` resolved successfully.

The batched kernel (:func:`sssp_matrix`) is bucketed sparse frontier
relaxation over the 2-D ``(sources × nodes)`` distance matrix:

* the frontier is a flat vector of ``row * n + vertex`` keys; each
  round expands every out-arc of the frontier in one shot — a reshaped
  ``(frontier, degree)`` gather when the graph is uniform-degree (the
  ring-chords family), a ``np.repeat``/cumsum expansion otherwise;
* a delta bucket (``delta ~ 2x mean weight``) parks frontier entries
  far above the current minimum, which keeps wasted re-expansion of
  not-yet-final labels near 1x of the arc count;
* concurrent relaxations of one target fold with ``np.minimum.at``,
  and the improved-target set is deduplicated without sorting by a
  stamp array (scatter round ids, keep first-writer);
* sources are processed in row blocks (default 8) so the working set
  of the random gathers stays cache-sized at large ``n``.

Rounds are bounded by the hop length of the longest shortest path over
the bucket schedule; every round is pure array code — no per-edge
Python bytecode.

Parity contract (gated by ``tests/test_kernels.py``): distances agree
with :mod:`repro.kernels.pykern` to 1e-9 on every workload, including
zero-weight edges, disconnected components, isolated vertices and
duplicate sources.  Parent choices may differ on ties, but every
parent chain is a witness shortest path.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.pykern import PARENT_SOURCE, PARENT_UNREACHED

NDArray = Any  # numpy is untyped in the CI mypy environment

#: row-block size of the batched matrix kernel
BLOCK = 8
#: sentinel standing in for inf in the fused residual (dists must stay below)
_RESIDUAL_SENTINEL = 1e30


class PreparedCSR:
    """CSR columns converted once for repeated kernel calls.

    Building this costs one pass over the columns (Python lists are the
    slow case; ``array('d')``/memoryview inputs convert zero-copy);
    the harness's huge tier reuses it across its
    :func:`sssp_matrix_prepared`/:func:`residual_matrix_prepared`
    calls.  When every vertex has the same degree ``d`` the index/weight
    columns are also kept as ``(n, d)`` views for the reshape fast path.
    """

    __slots__ = ("ip", "idx", "w", "n", "uniform_degree", "idx2", "w2")

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        weights: Sequence[float],
    ) -> None:
        self.ip = np.asarray(indptr, dtype=np.int64)
        self.idx = np.asarray(indices, dtype=np.int64)
        self.w = np.asarray(weights, dtype=np.float64)
        self.n = int(self.ip.shape[0]) - 1
        self.uniform_degree = 0
        self.idx2: Optional[NDArray] = None
        self.w2: Optional[NDArray] = None
        if self.n > 0 and self.idx.shape[0] % self.n == 0:
            d = self.idx.shape[0] // self.n
            degs = np.diff(self.ip)
            if d > 0 and bool((degs == d).all()):
                self.uniform_degree = int(d)
                self.idx2 = self.idx.astype(np.int32).reshape(self.n, d)
                self.w2 = self.w.reshape(self.n, d)


def prepare(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
) -> PreparedCSR:
    """Convert CSR columns once; pass the result to the ``*_prepared``
    entry points (or to the plain ones — ndarrays re-convert for free)."""
    return PreparedCSR(indptr, indices, weights)


def _auto_delta(w: NDArray) -> float:
    """Bucket width: ~2x the mean arc weight (floored away from zero)."""
    if w.shape[0] == 0:
        return 1.0
    return max(2.0 * float(w.mean()), 1e-9)


def _expand_uniform(
    prep: PreparedCSR, keys: NDArray, dv: NDArray, rowbase: NDArray, verts: NDArray
) -> Tuple[NDArray, NDArray]:
    """(candidate dists, flat target keys) over the frontier's arcs —
    uniform-degree reshape path, one 2-D gather per column."""
    tg32 = prep.idx2[verts]
    cand2 = dv[:, None] + prep.w2[verts]
    tk2 = np.add(tg32, rowbase[:, None], dtype=np.int64)
    return cand2.reshape(-1), tk2.reshape(-1)


def _expand_general(
    prep: PreparedCSR, keys: NDArray, dv: NDArray, rowbase: NDArray, verts: NDArray
) -> Tuple[NDArray, NDArray]:
    """General CSR expansion via ``np.repeat`` + the cumsum trick."""
    degs = np.diff(prep.ip)[verts]
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty.astype(np.float64), empty
    entry = np.repeat(np.arange(verts.shape[0], dtype=np.int64), degs)
    base = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(degs)[:-1]))
    eids = prep.ip[verts][entry] + (np.arange(total, dtype=np.int64) - base[entry])
    cand = dv[entry] + prep.w[eids]
    tkeys = rowbase[entry] + prep.idx[eids]
    return cand, tkeys


def _relax_block(
    prep: PreparedCSR,
    flat: NDArray,
    pending: NDArray,
    delta: float,
) -> None:
    """Bucketed relaxation of one row block, in place on ``flat``."""
    n = prep.n
    uniform = prep.uniform_degree > 0
    scratch = np.full(flat.shape[0], -1, dtype=np.int32)
    ctr = 0
    while pending.size:
        dv = flat[pending]
        parked: Optional[NDArray] = None
        if pending.size > 64:
            thr = float(dv.min()) + delta
            active = dv <= thr
            if not bool(active.all()):
                parked = pending[~active]
                pending, dv = pending[active], dv[active]
        verts = pending % n
        rowbase = pending - verts
        if uniform:
            cand, tkeys = _expand_uniform(prep, pending, dv, rowbase, verts)
        else:
            cand, tkeys = _expand_general(prep, pending, dv, rowbase, verts)
        if tkeys.shape[0]:
            nz = np.flatnonzero(cand < flat[tkeys])
        else:
            nz = tkeys
        if nz.shape[0] == 0:
            pending = parked if parked is not None else np.empty(0, dtype=np.int64)
            continue
        tko = tkeys[nz]
        np.minimum.at(flat, tko, cand[nz])
        if ctr + tko.shape[0] + (0 if parked is None else parked.shape[0]) > 2**31 - 2:
            scratch.fill(-1)
            ctr = 0
        stamps = np.arange(ctr, ctr + tko.shape[0], dtype=np.int32)
        ctr += tko.shape[0]
        scratch[tko] = stamps
        ukeys = tko[scratch[tko] == stamps]
        if parked is not None:
            scratch[parked] = np.arange(ctr, ctr + parked.shape[0], dtype=np.int32)
            fresh = scratch[ukeys] < ctr  # not already among the parked keys
            ctr += parked.shape[0]
            pending = np.concatenate((parked, ukeys[fresh]))
        else:
            pending = ukeys


def sssp_matrix_prepared(
    prep: PreparedCSR,
    sources: Sequence[int],
) -> NDArray:
    """Batched SSSP on prepared columns: the ``(sources × nodes)``
    float64 distance matrix, settled :data:`BLOCK` rows at a time."""
    n = prep.n
    src = np.asarray(sources, dtype=np.int64)
    rows = src.shape[0]
    width = _auto_delta(prep.w)
    dist = np.full((rows, n), np.inf)
    for lo in range(0, rows, BLOCK):
        hi = min(lo + BLOCK, rows)
        bs = hi - lo
        sub = dist[lo:hi]
        row_ids = np.arange(bs, dtype=np.int64)
        sub[row_ids, src[lo:hi]] = 0.0
        flat = sub.reshape(-1)
        _relax_block(prep, flat, row_ids * n + src[lo:hi], width)
    return dist


def sssp_matrix(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
) -> NDArray:
    """Batched SSSP on raw CSR columns (converts, then delegates)."""
    return sssp_matrix_prepared(prepare(indptr, indices, weights), sources)


def sssp(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
) -> Tuple[List[float], List[int]]:
    """Drop-in for uncapped :func:`repro.kernels.pykern.sssp` (flat
    lists out), with parent pointers tracked through a per-round
    lexsort."""
    prep = prepare(indptr, indices, weights)
    n = prep.n
    dist = np.full(n, np.inf)
    parent = np.full(n, PARENT_UNREACHED, dtype=np.int64)
    src = np.unique(np.asarray(sources, dtype=np.int64))
    dist[src] = 0.0
    parent[src] = PARENT_SOURCE
    keys = src
    uniform = prep.uniform_degree > 0
    while keys.size:
        dv = dist[keys]
        verts = keys
        rowbase = np.zeros(keys.shape[0], dtype=np.int64)
        if uniform:
            cand, tkeys = _expand_uniform(prep, keys, dv, rowbase, verts)
            par = np.repeat(verts, prep.uniform_degree)
        else:
            degs = np.diff(prep.ip)[verts]
            cand, tkeys = _expand_general(prep, keys, dv, rowbase, verts)
            par = np.repeat(verts, degs)
        if tkeys.shape[0] == 0:
            break
        better = cand < dist[tkeys]
        cand, tkeys, par = cand[better], tkeys[better], par[better]
        if tkeys.shape[0] == 0:
            break
        order = np.lexsort((par, cand, tkeys))
        tkeys, cand, par = tkeys[order], cand[order], par[order]
        first = np.ones(tkeys.shape[0], dtype=bool)
        first[1:] = tkeys[1:] != tkeys[:-1]
        starts = np.flatnonzero(first)
        ukeys = tkeys[starts]
        dist[ukeys] = cand[starts]  # lexsort: first of each group is the min
        parent[ukeys] = par[starts]
        keys = ukeys
    return dist.tolist(), parent.tolist()


def residual_matrix_prepared(
    prep: PreparedCSR, dist_matrix: NDArray
) -> Tuple[float, int]:
    """Vectorized fixed-point residual over every row of ``dist_matrix``.

    Same contract as :func:`repro.kernels.pykern.residual`, folded over
    rows: ``(max positive violation, arcs with finite tail but inf
    head)``.  ``(0.0, 0)`` certifies every row as a Bellman-Ford fixed
    point.  Finite distances must stay below 1e28 (the fused path
    encodes ``inf`` as a 1e30 sentinel) — weights are poly(n) per the
    paper's preliminaries, so real workloads sit far under that.
    """
    n = prep.n
    dm = np.asarray(dist_matrix, dtype=np.float64).reshape(-1, n)
    uniform = prep.uniform_degree > 0
    tails: Optional[NDArray] = None
    if not uniform:
        tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(prep.ip))
    worst = 0.0
    unsettled = 0
    for row in dm:
        sent = np.where(np.isfinite(row), row, _RESIDUAL_SENTINEL)
        if uniform:
            v = sent[prep.idx2] - sent[:, None] - prep.w2
        else:
            v = sent[prep.idx] - sent[tails] - prep.w
        mx = float(v.max()) if v.size else 0.0
        if mx > _RESIDUAL_SENTINEL / 10.0:
            # some reachable head is still inf: count those arcs, then
            # take the max over the genuinely settled ones
            high = v > _RESIDUAL_SENTINEL / 10.0
            unsettled += int(np.count_nonzero(high))
            settled = v[~high]
            mx = float(settled.max()) if settled.size else 0.0
        if mx > worst:
            worst = mx
    return worst, unsettled


def residual_matrix(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    dist_matrix: NDArray,
) -> Tuple[float, int]:
    """Raw-column wrapper around :func:`residual_matrix_prepared`."""
    return residual_matrix_prepared(prepare(indptr, indices, weights), dist_matrix)
