"""Hierarchical spans with a zero-overhead no-op fast path.

A *span* is one timed region of a run — ``harness.build``,
``certify.chunk``, ``congest.run`` — carrying wall time
(:func:`time.perf_counter`), CPU time (:func:`time.process_time`), an
optional :mod:`tracemalloc` allocation delta, and its parent span, so a
trace reconstructs *where the time went* as a tree rather than a flat
total.

Design constraints, in order:

1. **Disabled is the default and must cost nothing.**  Instrumented
   code calls :func:`span` unconditionally; when no tracer is
   installed the call returns a shared no-op singleton — one global
   read, one ``None`` test, no allocation.  Layers with per-round or
   per-query call sites additionally guard on :func:`enabled` so even
   the no-op call is skipped.
2. **Traces must diff cleanly.**  Span ids are sequential integers
   assigned in entry order (no clocks, no randomness in identity), so
   two identically-seeded traced runs produce structurally identical
   trees and a trace can be asserted against byte-by-byte once
   wall-clock fields are masked.
3. **Export is one span per JSONL line** (parent ids, not nesting), so
   a trace streams, greps, and loads without a document parser.

The tracer is process-global and explicitly not thread-safe: the
harness is single-threaded and serving workers run in other processes
(their spans are theirs; metrics cross the boundary instead — see
:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass, field
from types import TracebackType
from typing import Dict, List, Optional, TextIO, Type, Union

#: keys every exported span line carries, in emission order.
SPAN_FIELDS = (
    "id", "parent", "name", "start_s", "wall_s", "cpu_s", "mem_bytes", "attrs"
)

AttrValue = Union[str, int, float, bool, None]


@dataclass
class SpanRecord:
    """One finished span (the unit of the JSONL trace)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float  # offset from the tracer's epoch, not an absolute clock
    wall_s: float
    cpu_s: float
    mem_bytes: Optional[int]  # tracemalloc delta; None when not tracked
    attrs: Dict[str, AttrValue] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (one trace-file line)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "mem_bytes": self.mem_bytes,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Rebuild a span from its JSON form (inverse of :meth:`to_dict`)."""
        attrs = data.get("attrs") or {}
        if not isinstance(attrs, dict):
            raise ValueError(f"span attrs must be an object, got {attrs!r}")
        return cls(
            span_id=int(data["id"]),  # type: ignore[call-overload]
            parent_id=None if data.get("parent") is None
            else int(data["parent"]),  # type: ignore[call-overload]
            name=str(data["name"]),
            start_s=float(data["start_s"]),  # type: ignore[arg-type]
            wall_s=float(data["wall_s"]),  # type: ignore[arg-type]
            cpu_s=float(data["cpu_s"]),  # type: ignore[arg-type]
            mem_bytes=None if data.get("mem_bytes") is None
            else int(data["mem_bytes"]),  # type: ignore[call-overload]
            attrs=attrs,
        )


class _LiveSpan:
    """Context manager for one active span of an installed tracer."""

    __slots__ = (
        "tracer", "name", "attrs", "span_id", "parent_id",
        "start_s", "wall_s", "_cpu0", "cpu_s", "_mem0",
    )

    def __init__(
        self, tracer: "Tracer", name: str, attrs: Dict[str, AttrValue]
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "_LiveSpan":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent_id = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self._mem0 = (
            tracemalloc.get_traced_memory()[0]
            if tracer.memory and tracemalloc.is_tracing() else None
        )
        self._cpu0 = time.process_time()
        self.start_s = time.perf_counter() - tracer.epoch
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        tracer = self.tracer
        self.wall_s = time.perf_counter() - tracer.epoch - self.start_s
        self.cpu_s = time.process_time() - self._cpu0
        mem: Optional[int] = None
        if self._mem0 is not None and tracemalloc.is_tracing():
            mem = tracemalloc.get_traced_memory()[0] - self._mem0
        if tracer._stack and tracer._stack[-1] == self.span_id:
            tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start_s=self.start_s,
                wall_s=self.wall_s,
                cpu_s=self.cpu_s,
                mem_bytes=mem,
                attrs=self.attrs,
            )
        )


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    wall_s = 0.0
    cpu_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Timer:
    """Measure-only context manager: the disabled half of :func:`timed_span`."""

    __slots__ = ("_t0", "wall_s")

    def __init__(self) -> None:
        self.wall_s = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.wall_s = time.perf_counter() - self._t0


class Tracer:
    """Collects spans for one tracing session (see :func:`enable`).

    Span ids are sequential from 1 in entry order; ``epoch`` anchors
    every span's ``start_s``, so offsets — not absolute clocks — are
    what the trace records.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: List[SpanRecord] = []
        self.epoch = time.perf_counter()
        self._next_id = 1
        self._stack: List[int] = []
        self._started_tracemalloc = False

    def span(self, name: str, attrs: Dict[str, AttrValue]) -> _LiveSpan:
        """A new live span under the currently open span (if any)."""
        return _LiveSpan(self, name, attrs)

    def span_count(self) -> int:
        """Number of finished spans so far."""
        return len(self.spans)

    def write_jsonl(self, fh: TextIO) -> int:
        """Write one span per line to ``fh``; returns the line count.

        Spans are emitted in *completion* order (children before their
        parents — the order they finished in); consumers rebuild the
        tree from ``parent`` ids, not line order.
        """
        for span_record in self.spans:
            fh.write(json.dumps(span_record.to_dict(), sort_keys=True))
            fh.write("\n")
        return len(self.spans)


#: the installed tracer; ``None`` means tracing is disabled (the default).
_TRACER: Optional[Tracer] = None


def enable(memory: bool = False) -> Tracer:
    """Install a fresh tracer and return it.

    ``memory=True`` additionally records a :mod:`tracemalloc`
    allocation delta per span (starting tracemalloc if needed — note
    tracemalloc instruments every allocation and slows hot loops
    severalfold; wall times in a memory trace measure the *traced*
    program).

    Raises
    ------
    RuntimeError
        If tracing is already enabled (disable first — silently
        replacing a tracer would drop its spans).
    """
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("tracing is already enabled; call disable() first")
    tracer = Tracer(memory=memory)
    if memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        tracer._started_tracemalloc = True
    _TRACER = tracer
    return tracer


def disable() -> Optional[Tracer]:
    """Uninstall the tracer and return it (with its spans), if any."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None and tracer._started_tracemalloc:
        tracemalloc.stop()
    return tracer


def enabled() -> bool:
    """True while a tracer is installed.

    Hot loops (per query, per round) guard their instrumentation on
    this so the disabled path skips even the no-op span call.
    """
    return _TRACER is not None


def current() -> Optional[Tracer]:
    """The installed tracer, or None."""
    return _TRACER


def span_count() -> int:
    """Finished spans of the installed tracer (0 when disabled)."""
    tracer = _TRACER
    return 0 if tracer is None else len(tracer.spans)


def span(name: str, **attrs: AttrValue) -> Union[_LiveSpan, _NullSpan]:
    """A span context manager — the instrumentation entry point.

    Disabled fast path: one global read, one ``None`` test, and the
    shared no-op singleton; nothing is allocated and nothing is timed.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attrs)


def timed_span(name: str, **attrs: AttrValue) -> Union[_LiveSpan, _Timer]:
    """A span that *always* measures wall time (``.wall_s`` after exit).

    This is the drop-in replacement for hand-rolled
    ``perf_counter()``-pair timers: when tracing is enabled the region
    becomes a real span; when disabled it degrades to exactly the two
    ``perf_counter`` calls the hand-rolled timer cost, so the caller
    can keep recording wall times with no tracing overhead.
    """
    tracer = _TRACER
    if tracer is None:
        return _Timer()
    return tracer.span(name, attrs)


def read_jsonl(path: str) -> List[SpanRecord]:
    """Load a trace file written via :meth:`Tracer.write_jsonl`.

    Raises
    ------
    ValueError
        On a malformed line (not JSON, or missing span fields).
    """
    spans: List[SpanRecord] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise ValueError(f"{path}:{lineno}: span line is not an object")
            try:
                spans.append(SpanRecord.from_dict(data))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad span: {exc}") from exc
    return spans
