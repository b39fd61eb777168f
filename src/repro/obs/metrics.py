"""Process-wide metrics registry: counters, gauges, latency histograms.

Every layer of the stack used to invent its own accounting — the oracle
kept four bespoke ints, the CONGEST simulator its ``total_*`` fields,
the certify engine a dataclass of pruning counts.  This module is the
single vocabulary they all report into:

* :class:`Counter` — a monotonically increasing event count
  (``oracle.cache.hits``);
* :class:`Gauge` — a last-value-wins level with its observed maximum
  (``congest.network.active_nodes``, set once per round);
* :class:`Histogram` — a fixed-bucket distribution answering p50 / p99 /
  p999 *without storing samples*: an observation only bumps one bucket
  count, so a million queries cost a million integer increments, not a
  million floats of memory.

Names follow the ``layer.component.metric`` convention (lowercase dotted
path, at least two segments) and are validated at registration.

The process-wide default registry (:func:`registry`) is what the
instrumented layers use; :meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.reset` give the harness a read-and-clear
contract.  Other processes are handled by *local aggregation*: a
serving worker observes into its own private :class:`MetricsRegistry`
and ships the picklable ``snapshot()`` back with its ``stats`` reply;
the daemon folds the replies in with :meth:`MetricsRegistry.merge`
(see :mod:`repro.serve.daemon`).  Counters and histogram buckets add
under merge, so the merged counters equal a single-worker run's
exactly.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union, cast

Metric = Union["Counter", "Gauge", "Histogram"]
Snapshot = Dict[str, Dict[str, object]]

#: ``layer.component.metric``: lowercase dotted path, >= 2 segments.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: default histogram bucket upper bounds for millisecond latencies:
#: geometric from 1 µs to ~67 s (27 buckets + overflow), so p999 of a
#: sub-millisecond query path and a multi-second batch both resolve.
DEFAULT_LATENCY_BOUNDS_MS: Tuple[float, ...] = tuple(
    0.001 * 2.0 ** i for i in range(27)
)

#: default bounds for small-count distributions (targets per source,
#: fan-out sizes): exact up to 8, geometric beyond.
DEFAULT_COUNT_BOUNDS: Tuple[float, ...] = (
    1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256, 512, 1024,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the layer.component.metric "
            "convention (lowercase dotted path, >= 2 segments)"
        )
    return name


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n

    def to_dict(self) -> Dict[str, object]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins level; the observed maximum rides along."""

    __slots__ = ("name", "value", "max_value", "observed")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.max_value: float = 0
        self.observed = False

    def set(self, v: float) -> None:
        """Record the current level (and fold it into the running max)."""
        self.value = v
        if not self.observed or v > self.max_value:
            self.max_value = v
        self.observed = True

    def to_dict(self) -> Dict[str, object]:
        return {"type": "gauge", "value": self.value, "max": self.max_value}


class Histogram:
    """Fixed-bucket distribution with sample-free percentile estimates.

    ``bounds`` are the inclusive upper edges of the buckets; one
    overflow bucket catches everything beyond the last edge.  An
    observation bumps exactly one bucket count plus the exact scalar
    accumulators (count / sum / min / max), so memory is O(buckets)
    regardless of traffic.  :meth:`percentile` answers from the bucket
    edges: the estimate is the upper edge of the bucket holding the
    requested rank (the true value is never larger), which is the usual
    fixed-bucket trade — resolution is set by the bucket grid, not the
    data.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_MS
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        """Record one observation (one bucket bump + scalar updates)."""
        self.counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def percentile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-quantile (``0 < q <= 1``).

        Returns 0.0 on an empty histogram; the exact observed maximum
        when the rank lands in the overflow bucket (the edges above say
        nothing there, the scalar max does).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max
        return self.max  # pragma: no cover - rank <= count always lands

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }


class MetricsRegistry:
    """A named collection of metrics with a snapshot/reset/merge contract.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the metric's type (and, for histograms, its bucket
    bounds); a later call under a different type raises ``ValueError``
    rather than silently aliasing two meanings onto one name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _type_error(self, name: str, want: str) -> ValueError:
        have = type(self._metrics[name]).__name__.lower()
        return ValueError(f"metric {name!r} is a {have}, not a {want}")

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Counter(_check_name(name))
            self._metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise self._type_error(name, "counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = Gauge(_check_name(name))
            self._metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise self._type_error(name, "gauge")
        return metric

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` applies only at creation; passing different bounds
        for an existing histogram raises ``ValueError`` (merged bucket
        counts would be meaningless across grids).
        """
        metric = self._metrics.get(name)
        if metric is None:
            hist = Histogram(
                _check_name(name),
                bounds if bounds is not None else DEFAULT_LATENCY_BOUNDS_MS,
            )
            self._metrics[name] = hist
            return hist
        if not isinstance(metric, Histogram):
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__.lower()}, "
                "not a histogram"
            )
        if bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with different bounds"
            )
        return metric

    def names(self) -> List[str]:
        """Sorted names of every registered metric."""
        return sorted(self._metrics)

    def snapshot(self) -> Snapshot:
        """Picklable plain-dict state of every metric, sorted by name.

        This is the unit a serving worker ships back to the daemon (see
        :meth:`merge`) and the raw material of the benchmark report's
        ``observability`` block.
        """
        return {
            name: self._metrics[name].to_dict() for name in sorted(self._metrics)
        }

    def scalars(self) -> Dict[str, float]:
        """Counters and gauge values only (the deterministic subset).

        Histograms are excluded on purpose: their bucket contents are
        wall-clock-shaped for latency metrics, and the benchmark
        report's ``observability`` block must stay seeded-deterministic.
        """
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, (Counter, Gauge)):
                out[name] = metric.value
        return out

    def reset(self) -> None:
        """Zero every metric in place (names and types are kept)."""
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                metric.value = 0
            elif isinstance(metric, Gauge):
                metric.value = 0
                metric.max_value = 0
                metric.observed = False
            else:
                metric.counts = [0] * (len(metric.bounds) + 1)
                metric.count = 0
                metric.total = 0.0
                metric.min = float("inf")
                metric.max = float("-inf")

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters and histogram bucket counts add; gauges keep the
        maximum of the two maxima and the merged value is the larger of
        the two last-values (for level gauges set by concurrent workers,
        "the busiest anyone saw" is the meaningful aggregate).  A
        histogram merge requires identical bucket bounds.

        Raises
        ------
        ValueError
            On a type mismatch with an existing metric or a histogram
            bound mismatch.
        """
        for name, data in snapshot.items():
            kind = data["type"]
            if kind == "counter":
                self.counter(name).inc(cast(float, data["value"]))
            elif kind == "gauge":
                gauge = self.gauge(name)
                value = cast(float, data["value"])
                peak = cast(float, data["max"])
                gauge.set(max(gauge.value, value) if gauge.observed else value)
                if peak > gauge.max_value:
                    gauge.max_value = peak
            elif kind == "histogram":
                hist = self.histogram(name, cast(List[float], data["bounds"]))
                counts = cast(List[int], data["counts"])
                if len(counts) != len(hist.counts):
                    raise ValueError(
                        f"histogram {name!r}: merge with mismatched buckets"
                    )
                for i, c in enumerate(counts):
                    hist.counts[i] += c
                hist.count += cast(int, data["count"])
                hist.total += cast(float, data["sum"])
                lo = cast(Optional[float], data["min"])
                hi = cast(Optional[float], data["max"])
                if lo is not None and lo < hist.min:
                    hist.min = lo
                if hi is not None and hi > hist.max:
                    hist.max = hi
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")


#: the process-wide default registry every instrumented layer reports into.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def counter(name: str) -> Counter:
    """Get-or-create ``name`` in the default registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create ``name`` in the default registry."""
    return REGISTRY.gauge(name)


def histogram(name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
    """Get-or-create ``name`` in the default registry."""
    return REGISTRY.histogram(name, bounds)


def snapshot() -> Snapshot:
    """Snapshot of the default registry."""
    return REGISTRY.snapshot()


def scalars() -> Dict[str, float]:
    """Counter/gauge values of the default registry."""
    return REGISTRY.scalars()


def reset() -> None:
    """Zero the default registry."""
    REGISTRY.reset()


def merge(snap: Snapshot) -> None:
    """Fold a snapshot of another registry into the default registry."""
    REGISTRY.merge(snap)
