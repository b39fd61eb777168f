"""Span-tree aggregation and rendering for ``repro trace summarize``.

A raw trace has one line per span *instance*; a smoke suite emits the
same ``harness.certify`` span once per profile.  The summary
aggregates instances by *path* — the chain of span names from the
root — so repeated phases collapse into one node with a count, and
reports two times per node:

total
    Wall time summed over the node's instances (includes children).
self
    Total minus the wall time of the node's direct children — the
    time spent in the node's own code.  This is what the hot-span
    ranking sorts by: a parent that merely delegates has near-zero
    self time no matter how large its total.

Rendering is plain text (the CLI's output contract), deterministic
given the trace: children are ordered by first appearance, hot spans
by self time with path as tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import SpanRecord, read_jsonl

__all__ = [
    "SpanNode",
    "aggregate_spans",
    "hot_spans",
    "render_tree",
    "summarize_trace",
]


@dataclass
class SpanNode:
    """All instances of one span path, aggregated."""

    name: str
    path: Tuple[str, ...]
    count: int = 0
    total_wall_s: float = 0.0
    mem_bytes: Optional[int] = None  # summed tracemalloc deltas, if traced
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def self_wall_s(self) -> float:
        """Wall time not accounted for by direct children."""
        return self.total_wall_s - sum(c.total_wall_s for c in self.children)

    def walk(self) -> List["SpanNode"]:
        """This node and every descendant, preorder."""
        out: List[SpanNode] = [self]
        for child in self.children:
            out.extend(child.walk())
        return out


def aggregate_spans(spans: Sequence[SpanRecord]) -> List[SpanNode]:
    """Fold span instances into a forest of per-path nodes.

    Roots (spans with no parent) come back in first-appearance order;
    an instance whose parent id is missing from the trace (a truncated
    file) is treated as a root rather than dropped.
    """
    by_id: Dict[int, SpanRecord] = {s.span_id: s for s in spans}

    def path_of(span: SpanRecord) -> Tuple[str, ...]:
        names: List[str] = []
        cur: Optional[SpanRecord] = span
        while cur is not None:
            names.append(cur.name)
            cur = (
                by_id.get(cur.parent_id)
                if cur.parent_id is not None else None
            )
        return tuple(reversed(names))

    nodes: Dict[Tuple[str, ...], SpanNode] = {}
    roots: List[SpanNode] = []
    # Entry order (span_id) gives first-appearance ordering regardless of
    # the completion-ordered file layout.
    for span in sorted(spans, key=lambda s: s.span_id):
        path = path_of(span)
        node = nodes.get(path)
        if node is None:
            node = SpanNode(name=span.name, path=path)
            nodes[path] = node
            parent = nodes.get(path[:-1]) if len(path) > 1 else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        node.count += 1
        node.total_wall_s += span.wall_s
        if span.mem_bytes is not None:
            node.mem_bytes = (node.mem_bytes or 0) + span.mem_bytes
    return roots


def hot_spans(roots: Sequence[SpanNode], top: int = 10) -> List[SpanNode]:
    """The ``top`` nodes by self wall time (path breaks ties)."""
    every = [node for root in roots for node in root.walk()]
    every.sort(key=lambda n: (-n.self_wall_s, n.path))
    return every[:max(0, top)]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def _fmt_mem(mem_bytes: Optional[int]) -> str:
    if mem_bytes is None:
        return ""
    mib = mem_bytes / (1024 * 1024)
    return f"  mem {mib:+.2f}MiB"


def render_tree(roots: Sequence[SpanNode]) -> str:
    """The span forest as indented text, one node per line."""
    lines = [
        f"{'total':>9}  {'self':>9}  {'count':>5}  span",
        f"{'-----':>9}  {'----':>9}  {'-----':>5}  ----",
    ]

    def emit(node: SpanNode, depth: int) -> None:
        lines.append(
            f"{_fmt_seconds(node.total_wall_s)}  "
            f"{_fmt_seconds(node.self_wall_s)}  "
            f"{node.count:5d}  "
            f"{'  ' * depth}{node.name}{_fmt_mem(node.mem_bytes)}"
        )
        for child in node.children:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)


def summarize_trace(path: str, top: int = 10) -> str:
    """Full text summary of a JSONL trace file: tree plus hot spans."""
    spans = read_jsonl(path)
    if not spans:
        return f"{path}: empty trace (0 spans)"
    roots = aggregate_spans(spans)
    parts = [
        f"{path}: {len(spans)} spans, {len(roots)} root(s)",
        "",
        render_tree(roots),
    ]
    hottest = hot_spans(roots, top=top)
    if hottest:
        parts += ["", f"top {len(hottest)} by self time:"]
        for rank, node in enumerate(hottest, start=1):
            parts.append(
                f"{rank:3d}. {_fmt_seconds(node.self_wall_s).strip():>9}"
                f"  {' > '.join(node.path)}  (x{node.count})"
            )
    return "\n".join(parts)
