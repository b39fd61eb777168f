"""Kernel-dispatching SSSP entry points.

The oracle's landmark potentials and the harness's kernel profiles call
these three functions with raw CSR columns and a ``kernel`` name;
resolution happens here (see :mod:`repro.kernels.dispatch`), and the
numpy backend is only imported after it resolved, so the module itself
is stdlib-safe.  The label-keyed ``dijkstra`` and ``bounded_dijkstra``
of :mod:`repro.graphs.shortest_paths` have no backend to choose and
call :func:`repro.kernels.pykern.sssp` directly, with its ``cap``.

Outputs are normalized to plain Python containers (lists of floats /
ints), because every caller immediately builds label-keyed dicts or
aggregates from them; :func:`sssp_matrix` returns its rows lazily
normalized the same way.  The batched numpy path's raw ndarray stays an
implementation detail behind :func:`repro.kernels.npkern.sssp_matrix`
for the code paths (huge tier, residual certification) that want to
stay array-native end to end.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.kernels.dispatch import resolve_kernel
from repro.kernels import pykern


def sssp(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
    kernel: str = "python",
) -> Tuple[List[float], List[int]]:
    """One SSSP run on raw CSR columns (see :func:`pykern.sssp`)."""
    backend = resolve_kernel(kernel)
    if backend == "numpy":
        from repro.kernels import npkern

        return npkern.sssp(indptr, indices, weights, sources)
    return pykern.sssp(indptr, indices, weights, sources)


def sssp_matrix(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
    kernel: str = "python",
) -> List[List[float]]:
    """Batched SSSP: one distance row per source, as Python lists.

    The numpy backend settles the whole ``(sources × nodes)`` matrix in
    one frontier-relaxation pass; the python backend loops Dijkstra.
    """
    backend = resolve_kernel(kernel)
    if backend == "numpy":
        from repro.kernels import npkern

        matrix = npkern.sssp_matrix(indptr, indices, weights, sources)
        return [row.tolist() for row in matrix]
    return pykern.sssp_matrix(indptr, indices, weights, sources)


def residual(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    dist: Sequence[float],
    kernel: str = "python",
) -> Tuple[float, int]:
    """Fixed-point residual of one distance row (see :func:`pykern.residual`)."""
    backend = resolve_kernel(kernel)
    if backend == "numpy":
        from repro.kernels import npkern

        return npkern.residual_matrix(indptr, indices, weights, [list(dist)])
    return pykern.residual(indptr, indices, weights, dist)
