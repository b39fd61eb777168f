"""Versioned little-endian binary graph format (``.rpg``).

Layout — a fixed 64-byte header followed by the three raw CSR columns:

====================  ======  =====================================
field                 bytes   meaning
====================  ======  =====================================
magic                 8       ``b"RPROGRPH"``
version               u32     format version (currently 1)
header_size           u32     64; readers seek here for the payload
n                     u64     vertex count
m_arcs                u64     directed arc count (2x undirected edges)
payload_size          u64     bytes after the header (truncation check)
payload_crc32         u32     zlib CRC-32 of the whole payload
flags                 u32     reserved, 0
reserved              16      zeros
indptr                8(n+1)  int64 little-endian row offsets
indices               4m      int32 little-endian arc targets
weights               8m      float64 little-endian arc weights
====================  ======  =====================================

Vertex identity is positional (vertex ``i`` is row ``i``); labels are
not stored.  :func:`load_packed` validates magic, version, the exact
file size implied by the header, and (by default) the payload CRC
*before* exposing any array — a truncated or bit-flipped file raises
:class:`PackedFormatError` with the reason, never returns garbage
arrays.  Loading maps the file with :mod:`mmap` and serves the columns
as zero-copy ``memoryview`` casts, so a multi-GB graph costs no Python
objects beyond the view wrappers; the OS pages arcs in on demand.  On
big-endian hosts the columns are copied through ``array.byteswap``
instead (correctness over zero-copy on that rare platform).

:class:`PackWriter` streams a file in one pass — payload chunks in
layout order with a running CRC, header fixed up on close — which is
what lets :mod:`repro.kernels.genpack` emit 10^7-node graphs without
ever holding them in memory.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from types import TracebackType
from typing import Any, BinaryIO, Optional, Sequence, Type, Union, cast


MAGIC = b"RPROGRPH"
FORMAT_VERSION = 1
HEADER_SIZE = 64
_HEADER = struct.Struct("<8sIIQQQII16s")
_MAX_N = 2**31 - 2  # indices are int32
#: column entries :func:`pack_arrays` encodes per write
CHUNK_ROWS = 1 << 18

PathLike = Union[str, "os.PathLike[str]"]


class PackedFormatError(ValueError):
    """The file is not a valid ``.rpg`` graph (wrong magic, version,
    size, or checksum) — raised before any array is exposed."""


def _le(values: Union[Sequence[int], Sequence[float]], typecode: str) -> bytes:
    """``values`` as packed little-endian bytes of ``typecode``."""
    arr = array(typecode, values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


class PackWriter:
    """Streaming single-pass ``.rpg`` writer.

    Callers :meth:`write` payload chunks in layout order (all of
    ``indptr``, then ``indices``, then ``weights``); :meth:`close`
    verifies the byte count and stamps the real header.  Use as a
    context manager — an exception aborts without stamping, so a
    half-written file never validates.
    """

    def __init__(self, path: PathLike, n: int, m_arcs: int) -> None:
        if n < 0 or n > _MAX_N:
            raise PackedFormatError(f"n={n} outside the int32-indexable range")
        self.path = os.fspath(path)
        self.n = n
        self.m_arcs = m_arcs
        self.payload_size = 8 * (n + 1) + 4 * m_arcs + 8 * m_arcs
        self._crc = 0
        self._written = 0
        self._fh: Optional[BinaryIO] = open(self.path, "wb")
        self._fh.write(b"\x00" * HEADER_SIZE)

    def write(self, chunk: Union[bytes, memoryview]) -> None:
        """Append one payload chunk (little-endian bytes, layout order)."""
        if self._fh is None:
            raise PackedFormatError("writer already closed")
        self._fh.write(chunk)
        self._crc = zlib.crc32(chunk, self._crc)
        self._written += len(chunk)

    def close(self) -> None:
        """Verify the payload length and stamp the header."""
        if self._fh is None:
            return
        fh, self._fh = self._fh, None
        try:
            if self._written != self.payload_size:
                raise PackedFormatError(
                    f"payload is {self._written} bytes, header promises "
                    f"{self.payload_size} (n={self.n}, m_arcs={self.m_arcs})"
                )
            fh.seek(0)
            fh.write(
                _HEADER.pack(
                    MAGIC, FORMAT_VERSION, HEADER_SIZE, self.n, self.m_arcs,
                    self.payload_size, self._crc, 0, b"\x00" * 16,
                )
            )
        finally:
            fh.close()

    def abort(self) -> None:
        """Close without stamping; the file stays invalid."""
        if self._fh is not None:
            fh, self._fh = self._fh, None
            fh.close()

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def pack_arrays(
    path: PathLike,
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[float],
) -> None:
    """Pack raw CSR columns into ``path`` (in chunks of
    :data:`CHUNK_ROWS` entries, bounded memory)."""
    n = len(indptr) - 1
    m_arcs = len(indices)
    if n < 0 or indptr[0] != 0 or indptr[-1] != m_arcs or len(weights) != m_arcs:
        raise PackedFormatError("inconsistent CSR columns")
    with PackWriter(path, n, m_arcs) as w:
        for lo in range(0, n + 1, CHUNK_ROWS):
            w.write(_le(indptr[lo:lo + CHUNK_ROWS], "q"))
        for lo in range(0, m_arcs, CHUNK_ROWS):
            w.write(_le(indices[lo:lo + CHUNK_ROWS], "i"))
        for lo in range(0, m_arcs, CHUNK_ROWS):
            w.write(_le(weights[lo:lo + CHUNK_ROWS], "d"))


def _swapped(view: memoryview, typecode: str) -> "array[Any]":
    arr: "array[Any]" = array(typecode)
    arr.frombytes(view.tobytes())
    arr.byteswap()
    return arr


class PackedGraph:
    """A ``.rpg`` file served straight from ``mmap``.

    ``indptr``/``indices``/``weights`` are zero-copy ``memoryview``
    casts over the mapping (``'q'``/``'i'``/``'d'``) — indexable by
    both the pure-Python and numpy kernels without materializing a
    single per-vertex Python object.  Close (or use as a context
    manager) to release the mapping; the views raise once released.
    """

    __slots__ = ("path", "n", "m_arcs", "payload_size", "indptr", "indices",
                 "weights", "_mm", "_fh", "_mv")

    path: str
    n: int
    m_arcs: int
    payload_size: int
    indptr: Sequence[int]
    indices: Sequence[int]
    weights: Sequence[float]

    def __init__(self, path: PathLike, verify: bool = True) -> None:
        self.path = os.fspath(path)
        self._fh: Optional[BinaryIO] = open(self.path, "rb")
        try:
            header = self._fh.read(HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                raise PackedFormatError(
                    f"{self.path}: {len(header)}-byte file is shorter than "
                    f"the {HEADER_SIZE}-byte header"
                )
            magic, version, header_size, n, m_arcs, payload, crc, _flags, _r = (
                _HEADER.unpack(header)
            )
            if magic != MAGIC:
                raise PackedFormatError(
                    f"{self.path}: bad magic {magic!r} (not a .rpg graph)"
                )
            if version != FORMAT_VERSION:
                raise PackedFormatError(
                    f"{self.path}: unsupported format version {version} "
                    f"(this reader handles {FORMAT_VERSION})"
                )
            if header_size != HEADER_SIZE:
                raise PackedFormatError(
                    f"{self.path}: header_size {header_size} != {HEADER_SIZE}"
                )
            expected_payload = 8 * (n + 1) + 4 * m_arcs + 8 * m_arcs
            if payload != expected_payload:
                raise PackedFormatError(
                    f"{self.path}: payload_size {payload} inconsistent with "
                    f"n={n}, m_arcs={m_arcs} (expected {expected_payload})"
                )
            actual = os.fstat(self._fh.fileno()).st_size
            if actual != HEADER_SIZE + payload:
                raise PackedFormatError(
                    f"{self.path}: file is {actual} bytes, header promises "
                    f"{HEADER_SIZE + payload} — truncated or corrupt"
                )
            self.n = int(n)
            self.m_arcs = int(m_arcs)
            self.payload_size = int(payload)
            self._mm: Optional[mmap.mmap] = mmap.mmap(
                self._fh.fileno(), 0, access=mmap.ACCESS_READ
            )
            mv = memoryview(self._mm)
            self._mv: Optional[memoryview] = mv
            if verify:
                found = zlib.crc32(mv[HEADER_SIZE:])
                if found != crc:
                    raise PackedFormatError(
                        f"{self.path}: payload CRC32 {found:#010x} does not "
                        f"match header {crc:#010x} — corrupt file"
                    )
            ip_end = HEADER_SIZE + 8 * (self.n + 1)
            idx_end = ip_end + 4 * self.m_arcs
            if sys.byteorder == "little":
                self.indptr = cast(Sequence[int], mv[HEADER_SIZE:ip_end].cast("q"))
                self.indices = cast(Sequence[int], mv[ip_end:idx_end].cast("i"))
                self.weights = cast(Sequence[float], mv[idx_end:].cast("d"))
            else:  # rare host: copy + byteswap, correctness first
                self.indptr = _swapped(mv[HEADER_SIZE:ip_end], "q")
                self.indices = _swapped(mv[ip_end:idx_end], "i")
                self.weights = _swapped(mv[idx_end:], "d")
        except BaseException:
            self.close()
            raise

    @property
    def m(self) -> int:
        """Undirected edges: each one is stored as two arcs."""
        return self.m_arcs // 2

    def close(self) -> None:
        """Release the column views, the mapping and the file handle.

        If numpy arrays (or other buffer consumers) built over the
        columns are still alive, the mapping itself cannot be torn down
        yet — in that case the reference is dropped and the OS mapping
        is released when the last consumer is garbage-collected.
        """
        for name in ("indptr", "indices", "weights", "_mv"):
            view = getattr(self, name, None)
            if isinstance(view, memoryview):
                try:
                    view.release()
                except BufferError:
                    pass  # a zero-copy ndarray still holds this buffer
        mm = getattr(self, "_mm", None)
        if mm is not None:
            self._mm = None
            try:
                mm.close()
            except BufferError:
                pass  # unmapped once the exported arrays die
        fh = getattr(self, "_fh", None)
        if fh is not None:
            fh.close()

    def __enter__(self) -> "PackedGraph":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def load_packed(path: PathLike, verify: bool = True) -> PackedGraph:
    """Open a ``.rpg`` file (see :class:`PackedGraph`).

    ``verify=True`` (the default) checks the payload CRC32 up front —
    one sequential pass; pass ``verify=False`` to skip it on repeated
    loads of an already-validated cache entry (size/magic/version
    checks always run).
    """
    return PackedGraph(path, verify=verify)
