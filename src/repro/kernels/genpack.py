"""Streamed generation of packed ring-chords graphs.

The ``huge`` tier (10^6–10^7 vertices) cannot afford a
:class:`~repro.graphs.weighted_graph.WeightedGraph` — at that scale the
adjacency maps alone are gigabytes of Python objects.  Because the
ring-chords family is a pure function of ``(n, chords, seed)`` — fixed
neighbour offsets, hash-derived weights (see
:func:`repro.graphs.generators.ring_chord_weight`) — its CSR can be
written straight to a :class:`~repro.kernels.binfmt.PackWriter` in
vertex-chunked passes: one for ``indptr`` (a flat stride, the degree is
uniform), one for ``indices``, one for ``weights``.  Peak memory is one
chunk, regardless of ``n``.

:func:`ensure_packed` is the cache front-end the harness uses: generate
once into ``$REPRO_HUGE_CACHE`` (default: a ``repro-huge`` directory
under the system temp dir), atomically rename into place, and serve the
cached file on every later run.  The numpy fast path vectorizes the
chunk arithmetic (wrapping uint64 splitmix64, bit-identical to the
pure-Python hash); without numpy the same bytes emerge from plain
loops, only slower.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.graphs.generators import (
    _MASK64,
    _RC_MIX1,
    _RC_MIX2,
    _RC_U,
    _RC_V,
    ring_chord_offsets,
    ring_chord_weight,
)
from repro.kernels.binfmt import PackedFormatError, PackWriter, _le, load_packed
from repro.kernels.dispatch import numpy_or_none

#: vertices per streamed chunk (~ tens of MB of payload per pass)
CHUNK_VERTICES = 1 << 16

PathLike = Union[str, "os.PathLike[str]"]


def default_cache_dir() -> Path:
    """``$REPRO_HUGE_CACHE`` or ``<tmp>/repro-huge``."""
    env = os.environ.get("REPRO_HUGE_CACHE")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-huge"


def packed_name(n: int, chords: int, seed: int) -> str:
    """Canonical cache file name for one ring-chords instance."""
    return f"ring-chords-n{n}-c{chords}-s{seed}.rpg"


def pack_ring_chords(path: PathLike, n: int, chords: int, seed: int) -> None:
    """Stream the ring-chords CSR for ``(n, chords, seed)`` into ``path``."""
    offsets = ring_chord_offsets(n, chords)
    np = numpy_or_none()
    with PackWriter(path, n, n * len(offsets)) as w:
        if np is not None:
            _pack_numpy(w, np, n, offsets, seed, CHUNK_VERTICES)
        else:
            _pack_python(w, n, offsets, seed, CHUNK_VERTICES)


def _pack_python(
    w: PackWriter, n: int, offsets: Tuple[int, ...], seed: int, chunk: int
) -> None:
    deg = len(offsets)
    for lo in range(0, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        w.write(_le([i * deg for i in range(lo, hi)], "q"))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        w.write(_le(
            [(u + o) % n for u in range(lo, hi) for o in offsets], "i"
        ))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        w.write(_le(
            [
                ring_chord_weight(seed, u, (u + o) % n)
                for u in range(lo, hi)
                for o in offsets
            ],
            "d",
        ))


def _pack_numpy(
    w: PackWriter, np: Any, n: int, offsets: Tuple[int, ...],
    seed: int, chunk: int,
) -> None:
    """Vectorized chunk passes; the weight hash is bit-identical to
    :func:`~repro.graphs.generators.ring_chord_weight` (wrapping uint64)."""
    deg = len(offsets)
    offs = np.asarray(offsets, dtype=np.uint64)
    u64 = np.uint64
    for lo in range(0, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        w.write((np.arange(lo, hi, dtype=np.int64) * deg).astype("<i8").tobytes())
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        us = np.arange(lo, hi, dtype=np.uint64)
        tg = (us[:, None] + offs[None, :]) % u64(n)
        w.write(tg.astype("<i4").tobytes())
    two64 = np.float64(2.0) ** np.float64(64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        us = np.arange(lo, hi, dtype=np.uint64)
        tg = (us[:, None] + offs[None, :]) % u64(n)
        uu = np.broadcast_to(us[:, None], tg.shape)
        a = np.minimum(uu, tg)
        b = np.maximum(uu, tg)
        z = u64(seed & _MASK64) ^ (a * u64(_RC_U) + b * u64(_RC_V))
        z = (z ^ (z >> u64(30))) * u64(_RC_MIX1)
        z = (z ^ (z >> u64(27))) * u64(_RC_MIX2)
        z = z ^ (z >> u64(31))
        wts = np.float64(1.0) + z.astype(np.float64) / two64
        w.write(wts.astype("<f8").tobytes())


def ensure_packed(
    n: int,
    chords: int,
    seed: int,
    cache_dir: Optional[PathLike] = None,
) -> Path:
    """The cached packed file for ``(n, chords, seed)``, generating it
    on first use (atomic rename, safe under concurrent callers)."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / packed_name(n, chords, seed)
    if path.exists():
        try:
            load_packed(path, verify=False).close()
        except PackedFormatError:
            path.unlink()  # stale/corrupt cache entry: regenerate below
        else:
            return path
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    try:
        pack_ring_chords(tmp, n, chords, seed)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path
