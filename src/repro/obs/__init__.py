"""``repro.obs`` — the observability spine: spans, metrics, summaries.

Every layer reports through this package instead of inventing its own
counters and timers:

- :mod:`repro.obs.trace` — hierarchical spans with wall/CPU time,
  optional tracemalloc deltas, deterministic sequential ids, and a
  zero-overhead no-op fast path while disabled (the default).
- :mod:`repro.obs.metrics` — a process-wide registry of named
  counters, gauges, and fixed-bucket latency histograms, with a
  picklable ``snapshot()``/``merge()`` contract that folds one registry
  into another (the serving daemon's per-worker ``stats``, an oracle's
  per-instance counters).
- :mod:`repro.obs.summary` — span-tree aggregation behind
  ``repro trace summarize``.

Metric names follow ``layer.component.metric``
(``oracle.cache.hits``, ``congest.rounds.executed``); span names
follow ``layer.phase`` (``harness.build``, ``certify.chunk``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Snapshot,
    counter,
    gauge,
    histogram,
    merge,
    registry,
    reset,
    scalars,
    snapshot,
)
from repro.obs.summary import (
    SpanNode,
    aggregate_spans,
    hot_spans,
    render_tree,
    summarize_trace,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    current,
    disable,
    enable,
    enabled,
    read_jsonl,
    span,
    span_count,
    timed_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Snapshot",
    "SpanNode",
    "SpanRecord",
    "Tracer",
    "aggregate_spans",
    "counter",
    "current",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "hot_spans",
    "merge",
    "read_jsonl",
    "registry",
    "render_tree",
    "reset",
    "scalars",
    "snapshot",
    "span",
    "span_count",
    "summarize_trace",
    "timed_span",
]
