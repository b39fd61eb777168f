"""Machine-readable benchmark reports and regression gating.

A report is a schema-versioned JSON document (``BENCH_<tag>.json``)
holding one :class:`~repro.harness.runner.ProfileRecord` per executed
profile plus environment metadata, so perf numbers live in artifacts
instead of commit messages.  :func:`compare_reports` diffs two reports
profile-by-profile and classifies each tracked quantity as improvement /
regression / within-tolerance; the comparison's ``ok`` flag is the gate
CI and ``python -m repro bench --compare`` use.

Gating rules (deliberately asymmetric per quantity):

* wall-clock construction time — relative tolerance (default ±50%),
  with an absolute floor below which jitter is ignored;
* peak memory — relative tolerance with a 1 MiB floor;
* charged rounds — deterministic given the profile seed, so any change
  beyond 1% is flagged;
* network traffic (messages / words / active-node-rounds, CONGEST
  profiles) — deterministic like rounds, same 1% gate; a scheduling
  change that steps fewer nodes shows as an ``active_node_rounds``
  improvement;
* query serving (``queries`` block, schema 4) — p50/p99 latency gate
  like wall-clock (relative tolerance over a jitter floor), throughput
  gates on its reciprocal (fewer queries per second is the regression),
  and cache hit/miss counts are seeded-deterministic so they gate at 1%
  like rounds;
* daemon load (``load`` block, schema 6) — per load level,
  p50/p99/p999 latency and achieved qps gate like the queries block,
  request counts are schedule-deterministic (seeded arrivals) so they
  gate at 1%, and the failure rate tolerates one absolute percentage
  point before any increase gates;
* quality — a profile whose certification flips from ok to violated is
  always a regression, regardless of tolerance.

A quantity only one report knows about — e.g. a schema-v1 baseline
compared against a current run that has ``network`` or ``queries``
blocks — is reported as ``metric absent`` for that record and never
gates: old baselines stay comparable forever instead of raising.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.harness.queries import DETERMINISTIC_QUERY_QUANTITIES
from repro.harness.runner import ProfileRecord

PathLike = Union[str, "Path"]  # noqa: F821 - keep the io.py convention

SCHEMA_NAME = "repro.harness.bench"
#: version 2 added the per-record ``network`` block (messages / words /
#: active_node_rounds); version 3 the ``certification`` block (mode /
#: sampled_edges / workers / pruning counters of the bounded-radius
#: stretch engine); version 4 the ``queries`` block (oracle serving
#: latency percentiles, throughput, cache hit/miss split); version 5
#: the ``observability`` block (per-record repro.obs counter/gauge
#: deltas + span count), the network block's lifetime ``rounds`` total,
#: and a nullable ``peak_memory_bytes`` (``--no-mem`` runs record
#: ``null``); version 6 the ``load`` block (per-level daemon load:
#: p50/p99/p999 latency, achieved qps, failure rate, request counts
#: from the seeded closed/open-loop generator in
#: :mod:`repro.harness.loadgen`).  Older reports still load, with those
#: blocks absent.
SCHEMA_VERSION = 6

#: seconds below which timing deltas are considered pure jitter
TIME_FLOOR_SECONDS = 0.05
#: bytes below which memory deltas are considered pure jitter
MEMORY_FLOOR_BYTES = 1 << 20
#: rounds are seeded-deterministic; allow only numerical slack
ROUNDS_TOLERANCE = 0.01
#: milliseconds below which query-latency deltas are considered jitter
QUERY_LATENCY_FLOOR_MS = 0.05
#: absolute failure-rate change below which load levels do not gate
LOAD_FAILURE_RATE_FLOOR = 0.01


def environment_metadata() -> Dict[str, str]:
    """Where the numbers were produced (stamped into every report)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": " ".join(sys.argv),
    }


def make_report(
    records: List[ProfileRecord],
    suite: str,
    tag: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble the schema-versioned report document."""
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "suite": suite,
        "created_unix": time.time(),
        "environment": environment_metadata(),
        "records": [r.to_dict() for r in records],
    }


def write_report(report: Dict[str, object], path: PathLike) -> None:
    """Write a report produced by :func:`make_report` as indented JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_report(path: PathLike) -> Dict[str, object]:
    """Load and schema-check a report.

    Raises
    ------
    ValueError
        If the document is not a harness report or its schema version is
        newer than this code understands.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_NAME:
        raise ValueError(f"{path}: not a {SCHEMA_NAME} report")
    version = data.get("schema_version")
    if not isinstance(version, int) or version < 1 or version > SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema version {version!r} "
            f"(this code reads <= {SCHEMA_VERSION})"
        )
    return data


def report_records(report: Dict[str, object]) -> List[ProfileRecord]:
    """The report's records as :class:`ProfileRecord` objects."""
    return [ProfileRecord.from_dict(r) for r in report["records"]]


@dataclass(frozen=True)
class Delta:
    """One tracked quantity of one profile, baseline vs current."""

    profile: str
    # "construction_seconds" | "peak_memory_bytes" | "rounds" | "messages"
    # | "words" | "active_node_rounds" | "query_p50_ms" | "query_p99_ms"
    # | "query_qps" | "query_cache_hits" | "query_cache_misses"
    # | "load_<level>_{p50_ms,p99_ms,p999_ms,qps,failure_rate,requests}"
    # | "quality"
    quantity: str
    baseline: Optional[float]
    current: Optional[float]
    status: str  # "improvement" | "regression" | "ok" | "absent"

    @property
    def ratio(self) -> float:
        """current / baseline (inf when the baseline is zero)."""
        if self.baseline is None or self.current is None:
            return float("nan")
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline

    def render(self) -> str:
        """One aligned text line for the CLI delta table."""
        if self.status == "absent":
            side = "baseline" if self.baseline is None else "current run"
            return (
                f" ? {self.profile:<24} {self.quantity:<22} "
                f"metric absent from the {side}"
            )
        marker = {"improvement": "+", "regression": "!", "ok": " "}[self.status]
        return (
            f" {marker} {self.profile:<24} {self.quantity:<22} "
            f"{self.baseline:>12.4g} -> {self.current:>12.4g} "
            f"(x{self.ratio:.2f}, {self.status})"
        )


@dataclass
class Comparison:
    """Outcome of :func:`compare_reports`."""

    deltas: List[Delta] = field(default_factory=list)
    missing_profiles: List[str] = field(default_factory=list)  # in baseline only
    new_profiles: List[str] = field(default_factory=list)  # in current only
    tolerance: float = 0.5

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        """The gate: True iff some profile matched and none regressed."""
        if not self.deltas and (self.missing_profiles or self.new_profiles):
            return False  # nothing compared at all — never a silent PASS
        return not self.regressions

    def render(self) -> str:
        """Multi-line delta table plus the gate verdict."""
        lines = [d.render() for d in self.deltas]
        if self.missing_profiles:
            lines.append("   profiles only in baseline: " + ", ".join(self.missing_profiles))
        if self.new_profiles:
            lines.append("   profiles only in current run: " + ", ".join(self.new_profiles))
        if self.ok:
            verdict = "PASS: no regressions beyond tolerance"
        elif not self.deltas:
            verdict = "FAIL: no profiles matched between the two reports"
        else:
            verdict = f"FAIL: {len(self.regressions)} regression(s) beyond tolerance"
        lines.append(verdict)
        return "\n".join(lines)


def _classify(baseline: float, current: float, tolerance: float, floor: float) -> str:
    if abs(current - baseline) <= floor:
        return "ok"  # absolute delta within the jitter floor
    if current > baseline * (1.0 + tolerance):
        return "regression"
    if current < baseline * (1.0 - tolerance):
        return "improvement"
    return "ok"


def compare_reports(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float = 0.5,
) -> Comparison:
    """Diff ``current`` against ``baseline`` (both report documents).

    Profiles are matched by (name, tier); unmatched profiles are listed
    and only gate when *nothing* matched.  ``tolerance`` applies to
    wall-clock and memory; rounds use :data:`ROUNDS_TOLERANCE` and
    quality flips always gate.

    Raises
    ------
    ValueError
        If the two reports were produced at different suites (a smoke
        baseline says nothing about a table1 run).
    """
    if baseline.get("suite") != current.get("suite"):
        raise ValueError(
            f"cannot compare reports from different suites: "
            f"baseline is {baseline.get('suite')!r}, current is {current.get('suite')!r}"
        )
    base = {(r.profile, r.tier): r for r in report_records(baseline)}
    curr = {(r.profile, r.tier): r for r in report_records(current)}
    comparison = Comparison(tolerance=tolerance)
    comparison.missing_profiles = sorted(p for p, _ in set(base) - set(curr))
    comparison.new_profiles = sorted(p for p, _ in set(curr) - set(base))

    for key in sorted(set(base) & set(curr)):
        b, c = base[key], curr[key]
        name = b.profile

        def _block_delta(
            quantity: str,
            bval: Optional[float],
            cval: Optional[float],
            rel: float,
            floor: float,
            invert: bool = False,
        ) -> None:
            """Delta for a quantity either side may lack ("metric absent").

            ``invert=True`` is for more-is-better quantities (throughput):
            classification runs on the reciprocals so a drop gates as the
            regression it is.
            """
            if bval is None and cval is None:
                return
            if bval is None or cval is None:
                comparison.deltas.append(Delta(
                    name, quantity,
                    None if bval is None else float(bval),
                    None if cval is None else float(cval),
                    "absent",
                ))
                return
            bval, cval = float(bval), float(cval)
            if invert:
                binv = 1.0 / bval if bval else float("inf")
                cinv = 1.0 / cval if cval else float("inf")
                status = _classify(binv, cinv, rel, floor)
            else:
                status = _classify(bval, cval, rel, floor)
            comparison.deltas.append(Delta(name, quantity, bval, cval, status))

        comparison.deltas.append(Delta(
            name, "construction_seconds",
            b.construction_seconds, c.construction_seconds,
            _classify(b.construction_seconds, c.construction_seconds,
                      tolerance, TIME_FLOOR_SECONDS),
        ))
        # nullable since schema 5 (--no-mem records null): either side
        # missing reports "metric absent" instead of gating
        _block_delta(
            "peak_memory_bytes", b.peak_memory_bytes, c.peak_memory_bytes,
            tolerance, float(MEMORY_FLOOR_BYTES),
        )
        if b.rounds is not None and c.rounds is not None:
            comparison.deltas.append(Delta(
                name, "rounds", float(b.rounds), float(c.rounds),
                _classify(float(b.rounds), float(c.rounds), ROUNDS_TOLERANCE, 0.0),
            ))
        # network traffic (CONGEST profiles): messages, words and
        # active_node_rounds (the engine's utilization) are
        # seeded-deterministic, so they gate like rounds.
        for quantity, bval, cval in (
            ("messages", b.messages, c.messages),
            ("words", b.words, c.words),
            ("active_node_rounds", b.active_node_rounds, c.active_node_rounds),
            ("net_rounds", b.net_rounds, c.net_rounds),
        ):
            _block_delta(quantity, bval, cval, ROUNDS_TOLERANCE, 0.0)
        # query serving (schema-4 ``queries`` block): latencies are
        # wall-clock (tolerance + per-query jitter floor), throughput
        # inverts with no floor (qps averages the whole mix, so timer
        # noise is already ~1/count and a floor would mask real
        # regressions on fast profiles), and the cache split is
        # seeded-deterministic like rounds.
        bq = b.queries or {}
        cq = c.queries or {}
        if b.queries is not None or c.queries is not None:
            query_quantities = [
                ("p50_ms", tolerance, QUERY_LATENCY_FLOOR_MS, False),
                ("p99_ms", tolerance, QUERY_LATENCY_FLOOR_MS, False),
                ("qps", tolerance, 0.0, True),
            ] + [
                (q, ROUNDS_TOLERANCE, 0.0, False)
                for q in DETERMINISTIC_QUERY_QUANTITIES
            ]
            for quantity, rel, floor, invert in query_quantities:
                _block_delta(
                    f"query_{quantity}", bq.get(quantity), cq.get(quantity),
                    rel, floor, invert=invert,
                )
        # daemon load (schema-6 ``load`` block): levels match by key
        # (``c4`` / ``r100``); latencies and qps gate like the queries
        # block (p999 included — tail latency is the point of the open
        # loop), request counts come from seeded schedules and gate
        # like rounds, and the failure rate gates on any increase past
        # one absolute percentage point.
        bl = b.load or {}
        cl = c.load or {}
        if b.load is not None or c.load is not None:
            blevels = {str(lv.get("key")): lv for lv in bl.get("levels", [])}
            clevels = {str(lv.get("key")): lv for lv in cl.get("levels", [])}
            for level_key in sorted(set(blevels) | set(clevels)):
                blv = blevels.get(level_key, {})
                clv = clevels.get(level_key, {})
                for quantity, rel, floor, invert in (
                    ("p50_ms", tolerance, QUERY_LATENCY_FLOOR_MS, False),
                    ("p99_ms", tolerance, QUERY_LATENCY_FLOOR_MS, False),
                    ("p999_ms", tolerance, QUERY_LATENCY_FLOOR_MS, False),
                    ("qps", tolerance, 0.0, True),
                    ("failure_rate", 0.0, LOAD_FAILURE_RATE_FLOOR, False),
                    ("requests", ROUNDS_TOLERANCE, 0.0, False),
                ):
                    _block_delta(
                        f"load_{level_key}_{quantity}",
                        blv.get(quantity), clv.get(quantity),
                        rel, floor, invert=invert,
                    )
        quality_status = "ok"
        if b.ok and not c.ok:
            quality_status = "regression"
        elif not b.ok and c.ok:
            quality_status = "improvement"
        comparison.deltas.append(Delta(
            name, "quality", float(b.ok), float(c.ok), quality_status,
        ))
    return comparison
