"""Spans recorded from outside the program, by wrapping its functions.

The traced pass replaces each function listed in :data:`TARGETS` with a
wrapper under the name its caller bound (``repro.core.light_spanner.
kruskal_mst``, the ``repro.kernels`` package attributes that lazy
imports read, ...) and puts every original back afterwards.  A call
records one span: name, start, end and the span that was open when it
began.  Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Any, Callable, Iterator, List, Optional, Tuple

from arith import Span

#: (module, attribute path, span name): what the traced pass wraps.
#: Functions are wrapped in the namespace of the module that calls them;
#: ``repro.analysis.report``'s own Kruskal stays unwrapped, because it
#: is certification work and belongs to the analysis spans.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.graphs.weighted_graph", "WeightedGraph.freeze", "graphs.freeze"),
    ("repro.core.light_spanner", "build_bfs_tree", "congest.bfs"),
    ("repro.core.slt", "build_bfs_tree", "congest.bfs"),
    ("repro.core.doubling_spanner", "build_bfs_tree", "congest.bfs"),
    ("repro.core.light_spanner", "kruskal_mst", "mst.kruskal"),
    ("repro.core.slt", "kruskal_mst", "mst.kruskal"),
    ("repro.core.doubling_spanner", "kruskal_mst", "mst.kruskal"),
    ("repro.core.light_spanner", "decompose_fragments", "mst.fragments"),
    ("repro.core.slt", "decompose_fragments", "mst.fragments"),
    ("repro.core.light_spanner", "compute_euler_tour", "traversal.euler_tour"),
    ("repro.core.slt", "compute_euler_tour", "traversal.euler_tour"),
    ("repro.core.slt", "approx_spt", "spt.approx_spt"),
    ("repro.core.doubling_spanner", "bounded_approx_spt", "spt.bounded_approx_spt"),
    ("repro.core.light_spanner", "baswana_sen_spanner", "spanners.baswana_sen"),
    ("repro.core.light_spanner", "elkin_neiman_spanner", "spanners.elkin_neiman"),
    ("repro.core.doubling_spanner", "greedy_net", "core.greedy_net"),
    ("repro.kernels", "sssp", "kernels.sssp"),
    ("repro.kernels", "sssp_matrix", "kernels.sssp"),
]


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, start, end, parent]
        self._open: List[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a span per call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :data:`TARGETS` entry; restore them on exit."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for module, path, name in TARGETS:
                owner: Any = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def closed(self) -> List[Span]:
        """The recorded spans as ``(name, start, end, parent)`` tuples."""
        if self._open:
            raise RuntimeError("spans are still open")
        return [(n, s, e, p) for n, s, e, p in self.spans]

    def dump(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the spans as JSON lines (one header line, then spans)."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta or {}}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.closed()):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")
