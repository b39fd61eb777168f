"""Kernel-dispatching SSSP entry points.

The oracle's landmark potentials call these two functions with raw CSR
columns and a ``kernel`` name; resolution happens here (see
:mod:`repro.kernels.dispatch`), and the numpy backend is only imported
after it resolved, so the module itself is stdlib-safe.  Both return
distances only, as plain Python lists of floats, because every caller
immediately builds label-keyed dicts or aggregates from them.  Parent
pointers come from :func:`repro.kernels.pykern.sssp` alone: the
label-keyed ``dijkstra`` and ``bounded_dijkstra`` of
:mod:`repro.graphs.shortest_paths` call it directly, with its ``cap``.

The harness's ``kernel-sssp`` runs stay array-native end to end on
numpy: they call :func:`repro.kernels.npkern.sssp_matrix_prepared` and
:func:`~repro.kernels.npkern.residual_matrix_prepared` on columns
converted once.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.kernels.dispatch import resolve_kernel
from repro.kernels import pykern


def sssp(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
    sources: Sequence[int],
    kernel: str = "python",
) -> List[float]:
    """One distance row with every vertex of ``sources`` at distance 0.

    The python backend is :func:`pykern.sssp` without its parents; the
    numpy backend settles the row as one row of the batched relaxation.
    """
    backend = resolve_kernel(kernel)
    if backend == "numpy":
        from repro.kernels import npkern

        prep = npkern.prepare(indptr, indices, weights)
        return npkern.sssp_row_prepared(prep, sources).tolist()
    return pykern.sssp(indptr, indices, weights, sources)[0]


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

        prep = npkern.prepare(indptr, indices, weights)
        return [row.tolist() for row in npkern.sssp_matrix_prepared(prep, sources)]
    return pykern.sssp_matrix(indptr, indices, weights, sources)
