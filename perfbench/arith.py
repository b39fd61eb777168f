"""The benchmark's own arithmetic: percentiles, spans' self time, names.

Everything here is pure and small so ``perfbench/tests`` can pin it down:
which percentile a sample count supports, how a span's self time is
carved out of its children and how much time the spans below the roots
cover, what a metric name may look like, and the run-to-run spread the
acceptance rule is written in.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with a
#: letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A reported percentile must have at least this many samples beyond it.
MIN_TAIL = 10


def valid_name(name: str) -> bool:
    """True when ``name`` is a well-formed metric name."""
    return METRIC_NAME.fullmatch(name) is not None


def min_samples(pct: float, tail: int = MIN_TAIL) -> int:
    """Fewest samples for which ``pct`` has ``tail`` samples above it.

    ``p99`` needs 1000 samples (10 above it), ``p50`` needs 20.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    return math.ceil(tail * 100.0 / (100.0 - pct) - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(pct/100 * n)``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(list(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (the acceptance rule's spread)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


#: One span: (name, start, end, parent index or None).
Span = Tuple[str, float, float, Optional[int]]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children.setdefault(parent, []).append(
                (max(start, p_start), min(end, p_end))
            )
    return [
        (end - start) - _covered(children.get(i, []))
        for i, (_name, start, end, _parent) in enumerate(spans)
    ]


def by_name(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """Self time and call count summed per span name."""
    out: Dict[str, Tuple[float, int]] = {}
    for (name, *_rest), own in zip(spans, self_times(spans)):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + own, calls + 1)
    return out


def attributed(spans: Sequence[Span], skip: Iterable[str] = ()) -> float:
    """Time covered by the spans below the roots.

    A root span (no parent) is the window it wraps, so its self time is
    whatever its wrapped children miss; this is the part they do catch.
    Spans under a root named in ``skip`` are left out.
    """
    skipped = set(skip)
    root: List[int] = []
    for i, (_name, _start, _end, parent) in enumerate(spans):
        root.append(i if parent is None else root[parent])
    return _covered([
        (start, end)
        for i, (_name, start, end, parent) in enumerate(spans)
        if parent is not None and spans[root[i]][0] not in skipped
    ])
