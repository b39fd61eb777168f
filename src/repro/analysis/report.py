"""Uniform quality reports for the paper's objects.

:func:`spanner_report` / :func:`slt_report` / :func:`net_report` bundle
every Table-1 column for one produced object — measured value, guaranteed
bound, and a pass flag — so callers (CLI, benchmarks, notebooks) render
consistent summaries and the certification logic lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.analysis.certify import certify_edge_stretch
from repro.analysis.lightness import lightness, sparsity
from repro.analysis.stretch import root_stretch
from repro.analysis.validation import _net_measures, _verify_certified_subgraph
from repro.graphs.weighted_graph import Vertex, WeightedGraph


@dataclass
class MetricRow:
    """One metric of a report: measured value vs guaranteed bound."""

    name: str
    measured: float
    bound: Optional[float] = None

    @property
    def ok(self) -> bool:
        """True when the measurement respects the bound (or none given)."""
        if self.bound is None:
            return True
        return self.measured <= self.bound + 1e-9

    def render(self) -> str:
        """One aligned text line."""
        bound = f" (bound {self.bound:.4g})" if self.bound is not None else ""
        flag = "" if self.ok else "  ** VIOLATED **"
        return f"{self.name:<16} {self.measured:.4g}{bound}{flag}"


@dataclass
class QualityReport:
    """A titled collection of metric rows.

    ``certification`` carries the stretch-certification accounting
    (mode, sampled edges, pruning counters — see
    :meth:`repro.analysis.certify.Certification.to_dict`) when the
    report was produced by the bounded engine; ``None`` otherwise.
    """

    title: str
    rows: List[MetricRow] = field(default_factory=list)
    certification: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True when every metric respects its bound."""
        return all(r.ok for r in self.rows)

    def metric(self, name: str) -> MetricRow:
        """Look up a row by name (raises KeyError if absent)."""
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def render(self) -> str:
        """Multi-line text rendering."""
        lines = [self.title, "-" * len(self.title)]
        lines.extend(r.render() for r in self.rows)
        return "\n".join(lines)


def spanner_report(
    graph: WeightedGraph,
    spanner: WeightedGraph,
    stretch_bound: Optional[float] = None,
    lightness_bound: Optional[float] = None,
    rounds: Optional[int] = None,
    certify_sample: Optional[float] = None,
    certify_kernel: str = "python",
) -> QualityReport:
    """Report for a spanner: stretch, lightness, size (+ optional rounds).

    Stretch is certified by the bounded-radius engine, truncating each
    per-source search at ``stretch_bound · max_incident_w`` (exact value
    either way).  ``certify_sample=p`` certifies a ``p``-fraction of the
    edges, seeded 0 (then the stretch row is a lower bound and the
    report's ``certification`` block records ``mode="sampled"``).
    ``certify_kernel`` only accepts ``"python"``: certification has one
    engine, and the keyword stays for callers that still name it.

    The engine's one pass over G also decides H ⊆ G (it counts the G
    edges H holds at G's weight), so the label-level
    :func:`~repro.analysis.validation.verify_subgraph` runs, and raises
    its own message, only when that count falls short of H's edges.
    Lightness is read from the frozen views (see
    :func:`~repro.analysis.lightness.lightness`).

    Raises
    ------
    ValidationError
        If ``spanner`` is not a subgraph of ``graph``.
    ValueError
        If ``certify_kernel`` is not ``"python"``.
    """
    if certify_kernel != "python":
        raise ValueError(
            f"certify_kernel must be 'python', got {certify_kernel!r}: "
            "certification has one engine"
        )
    cert = certify_edge_stretch(
        graph, spanner, bound=stretch_bound, sample=certify_sample, seed=0,
    )
    _verify_certified_subgraph(graph, spanner, cert)
    rows = [
        MetricRow("stretch", cert.max_stretch, stretch_bound),
        MetricRow("lightness", lightness(graph, spanner), lightness_bound),
        MetricRow("edges", float(sparsity(spanner))),
    ]
    if rounds is not None:
        rows.append(MetricRow("rounds", float(rounds)))
    return QualityReport(title="spanner", rows=rows, certification=cert.to_dict())


def slt_report(
    graph: WeightedGraph,
    tree: WeightedGraph,
    root: Vertex,
    stretch_bound: Optional[float] = None,
    lightness_bound: Optional[float] = None,
    rounds: Optional[int] = None,
) -> QualityReport:
    """Report for an SLT: root-stretch and lightness.

    Raises
    ------
    ValidationError
        If ``tree`` is not a spanning tree subgraph of ``graph``.
    """
    from repro.analysis.validation import verify_spanning_tree

    verify_spanning_tree(graph, tree)
    rows = [
        MetricRow("root-stretch", root_stretch(graph, tree, root), stretch_bound),
        MetricRow("lightness", lightness(graph, tree), lightness_bound),
    ]
    if rounds is not None:
        rows.append(MetricRow("rounds", float(rounds)))
    return QualityReport(title="shallow-light tree", rows=rows)


def net_report(
    graph: WeightedGraph,
    points: Iterable[Vertex],
    alpha: float,
    beta: float,
    rounds: Optional[int] = None,
) -> QualityReport:
    """Report for a net: worst covering distance and closest pair.

    The ``beta/closest`` row is left out when no two points are
    connected, as with a single point or one point per component.

    Raises
    ------
    ValidationError
        If the covering/separation guarantees are violated.
    """
    points = set(points)
    worst_cover, closest = _net_measures(graph, points, alpha, beta)
    rows = [
        MetricRow("covering", worst_cover, alpha),
        MetricRow("size", float(len(points))),
    ]
    if closest < float("inf"):
        # separation is a lower bound: report the margin β/closest <= 1
        rows.append(MetricRow("beta/closest", beta / closest, 1.0))
    if rounds is not None:
        rows.append(MetricRow("rounds", float(rounds)))
    return QualityReport(title="net", rows=rows)
