"""Shared-memory publication of a built oracle for multi-worker serving.

The daemon's workers must not hold N pickled oracle copies: the frozen
CSR arrays, landmark potentials and component labels are the oracle's
entire bulk, they are read-only after construction, and Python's
``multiprocessing.shared_memory`` maps one copy into every process.
:func:`publish_oracle` lays a built :class:`DistanceOracle` out in a
single shared segment; :func:`attach_oracle` reconstructs a fully
functional oracle in another process whose array sections are
zero-copy ``memoryview`` casts over the shared buffer (the same idiom
the ``.rpg`` mmap loader uses in :mod:`repro.kernels.binfmt`).

Segment layout (all offsets 8-byte aligned)::

    [0:8)    magic  b"RPSHM01\\0"
    [8:16)   !Q  meta offset
    [16:24)  !Q  meta length
    [24:32)  !Q  total payload bytes
    [32:..)  array sections: indptr 'q', indices 'i', weights 'd',
             components 'i', potentials 'd' (L rows of n, one section)
    [meta)   pickled dict: verts, landmark_indices, strategy, seed,
             cache_size, n/m2/L, and the section offset table

Only the label list and a handful of scalars travel through pickle —
every O(n + m) array is shared.  Worker-side private memory growth on
attach is therefore bounded by the vertex-label list and the index
dict, which the memory-footprint test gates against the payload size.

Lifetime: the publisher owns the segment and must
:meth:`~OracleShare.unlink` it when the daemon exits.  Attached oracles
hold live memoryviews into the mapping, so :meth:`AttachedOracle.close`
drops the oracle and releases every exported view before unmapping;
workers call it on their way out.
"""

from __future__ import annotations

import array
import pickle
import struct
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

from repro.graphs.csr import CSRGraph
from repro.oracle.oracle import DistanceOracle

MAGIC = b"RPSHM01\x00"
_HEADER = struct.Struct("!QQQ")
_HEADER_END = len(MAGIC) + _HEADER.size


def _align(offset: int) -> int:
    return (offset + 7) & ~7


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    Python 3.13 grew ``track=False`` for exactly this.  On earlier
    interpreters an attach re-registers the name with the resource
    tracker; because the daemon's workers share the parent's tracker
    process (forked ones inherit it, spawned ones are handed it) and its
    registry is set-based, that re-registration is idempotent and
    harmless — whereas the common ``unregister`` workaround would strip
    the *publisher's* registration out of the shared tracker and leak
    the segment if the daemon dies uncleanly.
    So on pre-3.13 the attach deliberately leaves tracking alone; the
    publisher's :meth:`OracleShare.unlink` remains the one unlink.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class OracleShare:
    """Publisher-side handle: owns the segment until :meth:`unlink`."""

    def __init__(
        self,
        seg: shared_memory.SharedMemory,
        payload_bytes: int,
        n: int,
        m2: int,
        landmarks: int,
    ) -> None:
        self._seg = seg
        self.name = seg.name
        self.payload_bytes = payload_bytes
        self.n = n
        self.m2 = m2
        self.landmarks = landmarks

    def close(self) -> None:
        """Unmap the publisher's view (the segment itself survives)."""
        self._seg.close()

    def unlink(self) -> None:
        """Unmap and destroy the segment."""
        self._seg.close()
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


class AttachedOracle:
    """Worker-side handle pairing the rebuilt oracle with its mapping.

    The oracle's array sections are memoryviews into the shared buffer;
    :meth:`close` drops the oracle reference and releases them all
    before unmapping (it never unlinks — the publisher owns that).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        seg: shared_memory.SharedMemory,
        views: List[memoryview],
        payload_bytes: int,
    ) -> None:
        self.oracle: "DistanceOracle | None" = oracle
        self._seg = seg
        self._views = views
        self.payload_bytes = payload_bytes

    def close(self) -> None:
        """Release the oracle and every exported view, then unmap."""
        self.oracle = None
        for view in self._views:
            view.release()
        self._views.clear()
        self._seg.close()


def publish_oracle(oracle: DistanceOracle) -> OracleShare:
    """Lay ``oracle`` out in a fresh shared-memory segment.

    Returns the publisher handle; hand its ``name`` to worker processes
    for :func:`attach_oracle`.  The oracle itself is unchanged.
    """
    csr = oracle.csr
    n = csr.n
    m2 = len(csr.indices)
    flat_pots = array.array("d")
    for pot in oracle.potentials:
        flat_pots.extend(pot)
    raw_sections: List[Tuple[str, str, bytes]] = [
        ("indptr", "q", array.array("q", csr.indptr).tobytes()),
        ("indices", "i", array.array("i", csr.indices).tobytes()),
        ("weights", "d", memoryview(csr.weights).tobytes()),
        ("components", "i", array.array("i", oracle.components).tobytes()),
        ("potentials", "d", flat_pots.tobytes()),
    ]
    sections: Dict[str, Tuple[int, int, str]] = {}
    offset = _HEADER_END
    for sec_name, code, raw in raw_sections:
        offset = _align(offset)
        sections[sec_name] = (offset, len(raw), code)
        offset += len(raw)
    meta_offset = _align(offset)
    meta = pickle.dumps(
        {
            "verts": list(csr.verts),
            "landmark_indices": list(oracle.landmark_indices),
            "strategy": oracle.strategy,
            "seed": oracle.seed,
            "cache_size": oracle.cache_size,
            "n": n,
            "m2": m2,
            "landmarks": len(oracle.potentials),
            "sections": sections,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    total = meta_offset + len(meta)
    seg = shared_memory.SharedMemory(create=True, size=total)
    buf = seg.buf
    buf[: len(MAGIC)] = MAGIC
    _HEADER.pack_into(buf, len(MAGIC), meta_offset, len(meta), total)
    for sec_name, _code, raw in raw_sections:
        off, length, _ = sections[sec_name]
        buf[off : off + length] = raw
    buf[meta_offset : meta_offset + len(meta)] = meta
    return OracleShare(
        seg, payload_bytes=total, n=n, m2=m2, landmarks=len(oracle.potentials)
    )


def attach_oracle(name: str) -> AttachedOracle:
    """Rebuild a servable oracle over the shared segment ``name``.

    The CSR arrays, potentials and components of the returned oracle are
    zero-copy views into the shared mapping; only the vertex labels and
    the label-index dict are private to the attaching process.

    Raises
    ------
    ValueError
        When the segment does not carry the expected magic.
    """
    seg = _attach_segment(name)
    buf = seg.buf
    if bytes(buf[: len(MAGIC)]) != MAGIC:
        seg.close()
        raise ValueError(f"shared segment {name!r} lacks the {MAGIC!r} magic")
    meta_offset, meta_len, total = _HEADER.unpack_from(buf, len(MAGIC))
    meta: Dict[str, Any] = pickle.loads(
        bytes(buf[meta_offset : meta_offset + meta_len])
    )
    sections: Dict[str, Tuple[int, int, str]] = meta["sections"]
    views: List[memoryview] = []

    def section(sec_name: str) -> memoryview:
        off, length, code = sections[sec_name]
        view = memoryview(buf)[off : off + length].cast(code)
        views.append(view)
        return view

    n = int(meta["n"])
    landmarks = int(meta["landmarks"])
    indptr = section("indptr")
    indices = section("indices")
    weights = section("weights")
    components = section("components")
    flat_pots = section("potentials")
    potentials = [flat_pots[i * n : (i + 1) * n] for i in range(landmarks)]
    views.extend(potentials)
    csr = CSRGraph(indptr, indices, weights, list(meta["verts"]))  # type: ignore[arg-type]
    oracle = DistanceOracle(
        csr,
        list(meta["landmark_indices"]),
        potentials,  # type: ignore[arg-type]
        components,  # type: ignore[arg-type]
        str(meta["strategy"]),
        int(meta["seed"]),
        cache_size=int(meta["cache_size"]),
        copy=False,
    )
    return AttachedOracle(oracle, seg, views, payload_bytes=int(total))
