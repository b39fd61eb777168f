"""Array-level compute kernels and the packed binary graph format.

The kernels layer is the repository's answer to "as fast as the
hardware allows": the same frozen CSR columns every subsystem already
shares feed either a pure-Python heap Dijkstra
(:mod:`~repro.kernels.pykern`, always available) or a numpy
frontier-relaxation kernel (:mod:`~repro.kernels.npkern`, installed via
the ``fast`` extra) with one relaxation loop, which settles a whole
``(sources × nodes)`` distance matrix, or one multi-source row, in one
pass.  Selection is by name — ``"python"``, ``"numpy"``, or ``"auto"``
— resolved in :mod:`~repro.kernels.dispatch`; no library package
outside this one imports numpy (``repro lint --program``, REP903).  The
oracle's landmark potentials call the two dispatchers,
:func:`~repro.kernels.sssp.sssp` (one row) and
:func:`~repro.kernels.sssp.sssp_matrix` (a row per source); the
harness's ``kernel-sssp`` profiles and its huge tier name a backend and
call the kernels directly.  Stretch certification
(:mod:`repro.analysis.certify`) runs a heap loop of its own, and the
label-keyed Dijkstras of :mod:`repro.graphs.shortest_paths` call
:func:`~repro.kernels.pykern.sssp` directly.

Parity contract: both backends produce distances equal to 1e-9 on every
workload; ``tests/test_kernels.py`` fuzzes it, and CI runs the full
suite on a no-numpy leg so the fallback is proven, not assumed.  The
numpy kernel returns distances only: :func:`~repro.kernels.pykern.sssp`
is the one source of parent pointers.

The second half of the layer is the ``.rpg`` packed format
(:mod:`~repro.kernels.binfmt`): a versioned little-endian header +
raw CSR dump that loads by ``mmap`` into zero-copy memoryviews, plus a
streamed generator (:mod:`~repro.kernels.genpack`) that writes
10^6–10^7-node ring-chords instances without ever materializing them —
the substrate of the harness's ``huge`` tier.
"""

from repro.kernels.dispatch import KERNELS, has_numpy, numpy_or_none, resolve_kernel
from repro.kernels.sssp import sssp, sssp_matrix
from repro.kernels.binfmt import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    PackedFormatError,
    PackedGraph,
    PackWriter,
    load_packed,
    pack_arrays,
)
from repro.kernels.genpack import default_cache_dir, ensure_packed, pack_ring_chords

__all__ = [
    "KERNELS",
    "has_numpy",
    "numpy_or_none",
    "resolve_kernel",
    "sssp",
    "sssp_matrix",
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SIZE",
    "PackedFormatError",
    "PackedGraph",
    "PackWriter",
    "load_packed",
    "pack_arrays",
    "default_cache_dir",
    "ensure_packed",
    "pack_ring_chords",
]
