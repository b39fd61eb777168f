"""Measurement and verification of the paper's quality metrics."""

from repro.analysis.certify import Certification, certify_edge_stretch
from repro.analysis.stretch import (
    max_edge_stretch,
    max_pairwise_stretch,
    root_stretch,
    sample_pairwise_stretch,
)
from repro.analysis.lightness import lightness, sparsity
from repro.analysis.report import (
    MetricRow,
    QualityReport,
    net_report,
    slt_report,
    spanner_report,
)
from repro.analysis.validation import (
    verify_spanner,
    verify_subgraph,
    verify_spanning_tree,
    verify_slt,
    verify_net,
    verify_oracle,
)

__all__ = [
    "Certification",
    "certify_edge_stretch",
    "max_edge_stretch",
    "max_pairwise_stretch",
    "root_stretch",
    "sample_pairwise_stretch",
    "lightness",
    "sparsity",
    "MetricRow",
    "QualityReport",
    "net_report",
    "slt_report",
    "spanner_report",
    "verify_spanner",
    "verify_subgraph",
    "verify_spanning_tree",
    "verify_slt",
    "verify_net",
    "verify_oracle",
]
