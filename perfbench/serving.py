"""Serving phases against a ``repro serve`` daemon, from one process.

The daemon runs as ``python -m repro serve --structure FILE --workers 1``
and is ready when it prints its READY line.  Load comes from this
process on at most two connections:

* ``ping`` — closed loop on one connection: the transport floor;
* (a) ``query`` — closed loop on one connection over a hot-skewed mix
  (hot pairs fit the 4096-entry LRU, cold pairs are uniform over n²);
* (b) ``query_many`` — batches of cold pairs on one connection;
* (c) open loop — Poisson arrivals on two connections at the fixed
  rates of :data:`LADDER`, each request timed from when it was due.

Every answer is checked against an in-process
:class:`~repro.oracle.DistanceOracle` over the same structure, and the
same mix is timed on that in-process oracle (:func:`time_inprocess`).
"""

from __future__ import annotations

import math
import os
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from arith import min_samples, percentile
from speed import Speed, slowdown
from repro.graphs import WeightedGraph
from repro.oracle import DistanceOracle
from repro.serve import ConnectionClosed, ProtocolError, ServeClient, address_of

#: Query mix and oracle settings: the ``stress`` tier of
#: ``repro.harness.queries.QUERY_MIXES`` (hot_set=250, hot_fraction=0.6,
#: landmarks=16), which the repo's own query and load suites serve; a
#: test keeps the two in step.  The 250 hot pairs fit the 4096-entry
#: LRU the daemon and the in-process reference both use.
HOT_PAIRS, HOT_SHARE, LANDMARKS = 250, 0.6, 16
CACHE_SIZE = 4096
BATCH = 100
#: Open loop: p99 latency limit (from the due time) and the fixed ladder
#: of offered rates, in queries per second over both connections, climbed
#: until a rung fails.  A rung passes when at least half of its WINDOW_S
#: windows keep their p99 within the limit: a growing backlog fails every
#: later window, while one stall of the machine fails only the window it
#: falls in.  The limit sits well above the few milliseconds a busy
#: neighbour on a shared machine adds, and well below what a backlog
#: reaches in one window.
LATENCY_LIMIT_MS = 25.0
WINDOW_S = 0.25
LADDER = (1000, 2000, 2500, 3000, 3500, 4000, 5000)
READY_TIMEOUT_S = 90.0
#: Closed loops calibrate between chunks of this many requests, the
#: fewest whose p99 has ten samples above it.  query_p99_us is the lower
#: quartile of the chunks' p99s: bursts of machine stalls on a shared
#: host double a chunk's p99 while barely moving its p50, so the tail
#: the program itself sets is read from the quieter chunks.
CHUNK = min_samples(99)

Pair = Tuple[str, str]
_ERRORS = (ProtocolError, ConnectionClosed, OSError)


def write_structure(graph: WeightedGraph, path: str) -> None:
    """Write ``graph`` in the edge-list format ``repro serve`` reads."""
    with open(path, "w") as fh:
        fh.write(f"# n={graph.n} m={graph.m}\n")
        for v in sorted(graph.vertices()):
            if graph.degree(v) == 0:
                fh.write(f"{v}\n")
        for u, v, w in sorted(graph.edges()):
            fh.write(f"{u} {v} {w!r}\n")


class Daemon:
    """One ``repro serve`` process, started and waited for READY."""

    def __init__(self, structure_path: str, seed: int, env: Dict[str, str],
                 cwd: str, cpus: Set[int]) -> None:
        t0 = time.perf_counter()
        # the daemon inherits this thread's CPU set at fork
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--structure",
                 structure_path, "--workers", "1", "--port", "0",
                 "--seed", str(seed), "--landmarks", str(LANDMARKS),
                 "--cache-size", str(CACHE_SIZE)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env=env, cwd=cwd,
            )
        finally:
            os.sched_setaffinity(0, own)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        # drains the pipe for the daemon's whole life so it never blocks
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        seen: List[str] = []
        deadline = t0 + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("daemon not READY in time:\n" + "".join(seen))
            if line is None:
                self.stop()
                raise RuntimeError("daemon exited before READY:\n" + "".join(seen))
            seen.append(line)
            if line.startswith("READY "):
                break
        self.ready_s = time.perf_counter() - t0
        fields = dict(p.split("=", 1) for p in line.split()[1:] if "=" in p)
        self.address = address_of(fields["address"])
        self.payload_bytes = int(fields["payload_bytes"])

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """SIGTERM (the daemon's graceful path), then SIGKILL; wait."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=15)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Mix:
    """The seeded hot-skewed pair stream and cold-pair batches."""

    def __init__(self, labels: Sequence[str], seed: int) -> None:
        self.labels = list(labels)
        self.rng = random.Random(seed)
        self.hot = [self.cold() for _ in range(HOT_PAIRS)]

    def cold(self) -> Pair:
        return self.rng.choice(self.labels), self.rng.choice(self.labels)

    def single(self) -> Pair:
        if self.rng.random() < HOT_SHARE:
            return self.rng.choice(self.hot)
        return self.cold()


@dataclass
class Rung:
    """One open-loop rate: overall p99s and the share of windows in limit."""

    rate: float
    p99_ms: float
    lag_p99_ms: float
    share: float

    @property
    def passed(self) -> bool:
        return self.share >= 0.5


@dataclass
class ServeResult:
    payload_bytes: int
    ping_us: List[float] = field(default_factory=list)
    query_us: List[float] = field(default_factory=list)
    query_p99_us: float = math.nan
    inproc_us: List[float] = field(default_factory=list)
    batch_ms: List[float] = field(default_factory=list)
    rungs: List[Rung] = field(default_factory=list)
    sustained_qps: float = math.nan
    lag_p99_ms: float = math.nan
    attempted: int = 0
    failed: int = 0
    cache: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    wall_p50: Dict[str, float] = field(default_factory=dict)


class _Checker:
    """Compares served answers with the in-process reference oracle."""

    def __init__(self, reference: DistanceOracle, label_of: Dict[str, object],
                 result: ServeResult) -> None:
        self.reference = reference
        self.label_of = label_of
        self.result = result

    def check(self, pairs: Sequence[Pair], answers: Sequence[float]) -> None:
        self.result.attempted += len(pairs)
        for (u, v), got in zip(pairs, answers):
            want = self.reference.query(self.label_of[u], self.label_of[v])
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                self.result.failed += 1
                if len(self.result.notes) < 5:
                    self.result.notes.append(f"d({u},{v}) served {got} != {want}")

    def failed(self, count: int, why: str) -> None:
        self.result.attempted += count
        self.result.failed += count
        if len(self.result.notes) < 5:
            self.result.notes.append(why)


def _closed_loop(client, next_request, seconds: float, chunks: int,
                 chunk: int, call, speed: Speed):
    """Sequential requests for ``seconds``, and at least ``chunks`` chunks.

    Each chunk of ``chunk`` requests sits between two calibration
    samples, and its latencies are also reported in reference units
    scaled by those brackets.  Returns ``(requests, answers, wall µs,
    reference µs per chunk)``.
    """
    requests, answers, wall, ref = [], [], [], []
    deadline = time.perf_counter() + seconds
    before = speed.sample()
    while len(ref) < chunks or time.perf_counter() < deadline:
        lat: List[float] = []
        for _ in range(chunk):
            request = next_request()
            t0 = time.perf_counter_ns()
            answers.append(call(client, request))
            lat.append((time.perf_counter_ns() - t0) / 1e3)
            requests.append(request)
        after = speed.sample()
        factor = slowdown(before, after)
        wall += lat
        ref.append([us / factor for us in lat])
        before = after
    return requests, answers, wall, ref


def _open_rung(clients: Sequence[ServeClient], rate: float, seconds: float,
               mix: Mix, seed: int, checker: _Checker) -> Rung:
    """One ladder rung: Poisson arrivals at ``rate`` split over clients."""
    per_client = rate / len(clients)
    schedules = []
    for c in range(len(clients)):
        rng = random.Random(seed * 31 + c)
        due, t = [], 0.0
        while True:
            t += rng.expovariate(per_client)
            if t > seconds:
                break
            due.append(t)
        schedules.append((due, [mix.single() for _ in due]))
    out: List[List[Tuple[float, float, float]]] = [[] for _ in clients]
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.02

    def drive(c: int) -> None:
        client = clients[c]
        due, pairs = schedules[c]
        rec = out[c]
        try:
            for d, (u, v) in zip(due, pairs):
                at = start + d
                now = time.perf_counter()
                if now < at:
                    time.sleep(at - now)
                sent = time.perf_counter()
                answer = client.query(u, v)
                rec.append((time.perf_counter() - at, sent - at, answer))
        except _ERRORS as exc:
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(c,)) for c in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    windows: Dict[int, List[float]] = {}
    latency, lag = [], []
    for (due, pairs), rec in zip(schedules, out):
        checker.check(pairs[:len(rec)], [a for _, _, a in rec])
        if len(rec) < len(pairs):
            checker.failed(len(pairs) - len(rec), f"open loop: {errors[:1]}")
        for d, (late, sent_late, _a) in zip(due, rec):
            windows.setdefault(int(d / WINDOW_S), []).append(late * 1e3)
            latency.append(late * 1e3)
            lag.append(sent_late * 1e3)
    within = [percentile(w, 99) <= LATENCY_LIMIT_MS for w in windows.values()]
    share = sum(within) / len(within) if within and not errors else 0.0
    return Rung(rate, percentile(latency, 99) if latency else math.inf,
                percentile(lag, 99) if lag else math.inf, share)


def _ladder(clients, mix, seed, rung_s, checker, result) -> None:
    """Climb :data:`LADDER` until a rung fails; keep the last that passed.

    ``sustained_qps`` is the highest passing rate (0 when the first rung
    fails) and ``lag_p99_ms`` the generator's lateness on that rung (on
    the first rung when none passed).
    """
    for i, rate in enumerate(LADDER):
        seconds = max(rung_s, 4 * WINDOW_S, min_samples(99) / rate)
        rung = _open_rung(clients, rate, seconds, mix, seed * 997 + i, checker)
        result.rungs.append(rung)
        if not rung.passed:
            break
    passed = [r for r in result.rungs if r.passed]
    result.sustained_qps = float(passed[-1].rate) if passed else 0.0
    result.lag_p99_ms = (passed or result.rungs)[-1].lag_p99_ms


@dataclass
class ServePlan:
    """Seconds per phase (each phase also has a sample-count floor)."""

    ping_s: float
    query_s: float
    batch_s: float
    rung_s: float


def serve_phases(daemon: Daemon, structure: WeightedGraph, seed: int,
                 plan: ServePlan, speed: Speed) -> ServeResult:
    """Run ping, (a), (b) and (c) against ``daemon``; check every answer."""
    result = ServeResult(daemon.payload_bytes)
    label_of = {str(v): v for v in structure.vertices()}
    reference = DistanceOracle.build(
        structure, landmarks=LANDMARKS, seed=seed, cache_size=CACHE_SIZE
    )
    checker = _Checker(reference, label_of, result)
    mix = Mix(sorted(label_of), seed)
    with ServeClient.open(daemon.address) as client:
        try:
            _, _, ping_wall, ping_ref = _closed_loop(
                client, lambda: None, plan.ping_s, 1, CHUNK,
                lambda c, _r: c.ping(), speed,
            )
            pairs, answers, query_wall, query_ref = _closed_loop(
                client, mix.single, plan.query_s, 3, CHUNK,
                lambda c, p: c.query(*p), speed,
            )
            batches, batch_answers, batch_wall, batch_ref = _closed_loop(
                client, lambda: [mix.cold() for _ in range(BATCH)],
                plan.batch_s, 4, 5, lambda c, p: c.query_many(p), speed,
            )
            with ServeClient.open(daemon.address) as second:
                _ladder([client, second], mix, seed, plan.rung_s, checker,
                        result)
            for part in client.stats().get("caches", []):
                for key, value in (part.get("cache") or {}).items():
                    result.cache[key] = result.cache.get(key, 0) + int(value)
        except _ERRORS as exc:
            checker.failed(1, f"serving aborted: {exc!r}")
            return result
    result.ping_us = [us for c in ping_ref for us in c]
    result.query_us = [us for c in query_ref for us in c]
    result.query_p99_us = percentile([percentile(c, 99) for c in query_ref], 25)
    result.batch_ms = [us / 1e3 for c in batch_ref for us in c]
    # the LRU of a fresh in-process oracle sees the sequence the daemon's
    # worker saw
    result.inproc_us, inproc_wall, _cache = time_inprocess(
        structure, seed, pairs, speed)
    result.wall_p50 = {
        "ping_us": percentile(ping_wall, 50),
        "query_us": percentile(query_wall, 50),
        "batch_ms": percentile(batch_wall, 50) / 1e3,
        "inproc_us": percentile(inproc_wall, 50),
    }
    checker.check(pairs, answers)
    for batch, got in zip(batches, batch_answers):
        checker.check(batch, got)
    return result


def mix_pairs(structure: WeightedGraph, seed: int, count: int) -> List[Pair]:
    """``count`` single-query pairs of the seeded mix over ``structure``."""
    mix = Mix(sorted(str(v) for v in structure.vertices()), seed)
    return [mix.single() for _ in range(count)]


def time_inprocess(structure: WeightedGraph, seed: int, pairs: Sequence[Pair],
                   speed: Speed) -> Tuple[List[float], List[float], Dict[str, int]]:
    """Time ``pairs`` (whole chunks of them) on a fresh in-process oracle.

    Returns reference µs, wall µs and the oracle's ``cache_info()``.
    """
    label_of = {str(v): v for v in structure.vertices()}
    oracle = DistanceOracle.build(
        structure, landmarks=LANDMARKS, seed=seed, cache_size=CACHE_SIZE
    )
    replay = iter(pairs)
    _, _, wall, ref = _closed_loop(
        oracle, lambda: next(replay), 0.0, len(pairs) // CHUNK, CHUNK,
        lambda o, p: o.query(label_of[p[0]], label_of[p[1]]), speed,
    )
    return [us for c in ref for us in c], wall, oracle.cache_info()
