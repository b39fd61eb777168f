"""Load generation against the serving daemon: closed- and open-loop.

The ``queries`` block (schema 4) measures the oracle *in-process*; this
module measures the full serving stack — daemon, socket protocol and N
workers — under controlled concurrency, filling the schema-v6 ``load``
block.  Two driver families, the classic pair:

closed loop
    ``k`` clients, each with one connection, each issuing its share of
    the seeded pair stream back-to-back (``pairs[i::k]``, ``repeats``
    passes).  Request count is a pure function of the mix, so the
    ``--compare`` gate can hold it exactly while latency/qps gate with
    wall-clock tolerance.  Sweeping ``k`` yields the qps-vs-concurrency
    saturation curve.

open loop
    Arrivals follow a *seeded* arrival process — Poisson or bursty
    (on/off phases with seeded exponential lengths, Poisson-within-on)
    — fixed before the run starts: :func:`request_schedule` is a pure
    function of ``(pairs, mode, rate, duration, seed)``, so two
    identically-seeded runs issue byte-identical schedules
    (:func:`schedule_bytes`, the determinism suite's contract) across
    ``PYTHONHASHSEED``.  Latency is measured from the *scheduled*
    arrival time, so queueing delay under overload is visible instead
    of coordinated-omission-hidden.

Per level the block records request count, failures, failure rate,
p50/p99/p999 latency, achieved qps and the offered rate; levels gate in
``compare_reports`` like the queries block (latency with tolerance over
a jitter floor, qps inverted, deterministic counts at the rounds
tolerance).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.weighted_graph import WeightedGraph
from repro.harness.profiles import Profile
from repro.serve import (
    Address,
    ConnectionClosed,
    ProtocolError,
    ServeClient,
    address_of,
)

#: open-loop arrival processes :func:`request_schedule` understands.
ARRIVALS = ("poisson", "bursty")

#: load-generation modes.
MODES = ("closed", "open")

#: fraction of a bursty cycle spent in the on phase, and the mean cycle
#: length in seconds (arrivals within the on phase are Poisson at
#: ``rate / BURSTY_ON_FRACTION`` so the *average* offered rate matches).
BURSTY_ON_FRACTION = 0.25
BURSTY_CYCLE_SECONDS = 1.0

#: seconds :func:`launch_daemon` waits for READY, and :func:`stop_daemon`
#: for each of SIGTERM and SIGKILL to take effect
DAEMON_READY_TIMEOUT = 120.0
DAEMON_STOP_TIMEOUT = 10.0

LabelPair = Tuple[str, str]
ScheduleEntry = Tuple[float, str, str]


# ----------------------------------------------------------------------
# Seeded request schedules (pure functions — the determinism contract)
# ----------------------------------------------------------------------
def poisson_schedule(
    pairs: Sequence[LabelPair], rate: float, duration: float, seed: int
) -> List[ScheduleEntry]:
    """Poisson arrivals at ``rate``/s over ``duration`` seconds.

    Pairs are consumed cyclically in mix order (the mix's hot/cold
    interleaving is already seeded); arrival gaps come from one
    ``random.Random(seed)``.  Pure function of its arguments.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError(f"rate and duration must be positive, got {rate}, {duration}")
    rng = random.Random(seed)
    out: List[ScheduleEntry] = []
    t = 0.0
    i = 0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return out
        u, v = pairs[i % len(pairs)]
        out.append((t, u, v))
        i += 1


def bursty_schedule(
    pairs: Sequence[LabelPair], rate: float, duration: float, seed: int
) -> List[ScheduleEntry]:
    """On/off bursty arrivals averaging ``rate``/s over ``duration``.

    The process alternates on and off phases with seeded exponential
    lengths (mean cycle :data:`BURSTY_CYCLE_SECONDS`, on fraction
    :data:`BURSTY_ON_FRACTION`); within an on phase arrivals are Poisson
    at ``rate / BURSTY_ON_FRACTION`` so the long-run average offered
    rate is ``rate``.  Pure function of its arguments.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError(f"rate and duration must be positive, got {rate}, {duration}")
    rng = random.Random(seed)
    burst_rate = rate / BURSTY_ON_FRACTION
    mean_on = BURSTY_CYCLE_SECONDS * BURSTY_ON_FRACTION
    mean_off = BURSTY_CYCLE_SECONDS * (1.0 - BURSTY_ON_FRACTION)
    out: List[ScheduleEntry] = []
    t = 0.0
    i = 0
    on = True
    while t < duration:
        phase_end = min(duration, t + rng.expovariate(1.0 / (mean_on if on else mean_off)))
        if on:
            tt = t
            while True:
                tt += rng.expovariate(burst_rate)
                if tt >= phase_end:
                    break
                u, v = pairs[i % len(pairs)]
                out.append((tt, u, v))
                i += 1
        t = phase_end
        on = not on
    return out


def request_schedule(
    pairs: Sequence[LabelPair],
    arrivals: str,
    rate: float,
    duration: float,
    seed: int,
) -> List[ScheduleEntry]:
    """The open-loop schedule for one level (see module docstring).

    Raises
    ------
    ValueError
        On an unknown arrival process or non-positive rate/duration.
    """
    if arrivals == "poisson":
        return poisson_schedule(pairs, rate, duration, seed)
    if arrivals == "bursty":
        return bursty_schedule(pairs, rate, duration, seed)
    raise ValueError(f"unknown arrival process {arrivals!r}; choose from {ARRIVALS}")


def schedule_bytes(schedule: Sequence[ScheduleEntry]) -> bytes:
    """Canonical byte form of a schedule (the byte-identity contract).

    JSON with shortest-repr floats — identical schedules serialize to
    identical bytes on any platform and under any ``PYTHONHASHSEED``.
    """
    return json.dumps(
        [[t, u, v] for t, u, v in schedule], separators=(",", ":")
    ).encode("utf-8")


def schedule_digest(schedule: Sequence[ScheduleEntry]) -> str:
    """sha256 hex digest of :func:`schedule_bytes` (stamped per level)."""
    return hashlib.sha256(schedule_bytes(schedule)).hexdigest()


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class LevelResult:
    """Measured outcome of one load level (one concurrency or rate)."""

    mode: str
    level: float  # concurrency (closed) or offered rate in qps (open)
    requests: int
    failures: int
    duration_s: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    qps: float
    offered_rate: Optional[float] = None  # open loop only
    digest: Optional[str] = None  # open loop: schedule sha256

    @property
    def failure_rate(self) -> float:
        return self.failures / max(1, self.requests)

    def key(self) -> str:
        """The level's name in compare quantities (``c4`` / ``r100``)."""
        prefix = "c" if self.mode == "closed" else "r"
        level = int(self.level) if float(self.level).is_integer() else self.level
        return f"{prefix}{level}"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "mode": self.mode,
            "level": self.level,
            "key": self.key(),
            "requests": self.requests,
            "failures": self.failures,
            "failure_rate": self.failure_rate,
            "duration_s": self.duration_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "qps": self.qps,
        }
        if self.offered_rate is not None:
            out["offered_rate"] = self.offered_rate
        if self.digest is not None:
            out["schedule_sha256"] = self.digest
        return out


def _percentiles(latencies_s: List[float]) -> Tuple[float, float, float]:
    """Exact sample percentiles (ms) — (p50, p99, p999)."""
    if not latencies_s:
        return 0.0, 0.0, 0.0
    ordered = sorted(latencies_s)
    count = len(ordered)

    def pct(p: float) -> float:
        return ordered[min(count - 1, int(p * count))] * 1000.0

    return pct(0.50), pct(0.99), pct(0.999)


def run_closed_level(
    address: Address,
    pairs: Sequence[LabelPair],
    concurrency: int,
    repeats: int = 1,
    timeout: float = 30.0,
    collect_answers: bool = False,
) -> Tuple[LevelResult, List[Tuple[str, str, float]]]:
    """One closed-loop level: ``concurrency`` clients, fixed request count.

    Client ``i`` issues ``pairs[i::concurrency]`` back-to-back,
    ``repeats`` times — the deterministic partition that makes
    workers=N answer-compare against workers=1.  Returns the level
    result plus (when ``collect_answers``) every ``(u, v, distance)``
    in issue order per client.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    answers: List[List[Tuple[str, str, float]]] = [[] for _ in range(concurrency)]
    failures = [0] * concurrency
    clock = time.perf_counter

    def drive(slot: int) -> None:
        my_pairs = list(pairs[slot::concurrency])
        client: Optional[ServeClient] = None
        try:
            client = ServeClient.open(address, timeout=timeout)
            for _ in range(repeats):
                for u, v in my_pairs:
                    t0 = clock()
                    try:
                        d = client.query(u, v)
                    except ProtocolError:
                        failures[slot] += 1
                        continue
                    except (ConnectionClosed, OSError):
                        failures[slot] += 1
                        client.close()
                        client = ServeClient.open(address, timeout=timeout)
                        continue
                    latencies[slot].append(clock() - t0)
                    if collect_answers:
                        answers[slot].append((u, v, d))
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=drive, args=(slot,), daemon=True)
        for slot in range(concurrency)
    ]
    t_start = clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = clock() - t_start
    flat = [lat for per in latencies for lat in per]
    p50, p99, p999 = _percentiles(flat)
    result = LevelResult(
        mode="closed",
        level=float(concurrency),
        requests=len(pairs) * repeats,
        failures=sum(failures),
        duration_s=wall,
        p50_ms=p50,
        p99_ms=p99,
        p999_ms=p999,
        qps=len(flat) / wall if wall > 0 else 0.0,
    )
    return result, [a for per in answers for a in per]


def run_open_level(
    address: Address,
    schedule: Sequence[ScheduleEntry],
    clients: int = 8,
    timeout: float = 30.0,
) -> LevelResult:
    """One open-loop level: replay ``schedule`` through a client pool.

    A dispatcher releases each request at its scheduled offset; pool
    threads (one connection each) serve them in arrival order.  Latency
    is measured from the scheduled arrival, so queueing delay when the
    daemon cannot keep up is part of the number (no coordinated
    omission).
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if not schedule:
        raise ValueError("empty schedule")
    work: "queue.Queue[Optional[ScheduleEntry]]" = queue.Queue()
    latencies: List[List[float]] = [[] for _ in range(clients)]
    failures = [0] * clients
    clock = time.perf_counter
    t0 = clock()

    def serve(slot: int) -> None:
        client: Optional[ServeClient] = None
        try:
            client = ServeClient.open(address, timeout=timeout)
            while True:
                item = work.get()
                if item is None:
                    return
                sched_t, u, v = item
                try:
                    client.query(u, v)
                except ProtocolError:
                    failures[slot] += 1
                    continue
                except (ConnectionClosed, OSError):
                    failures[slot] += 1
                    client.close()
                    client = ServeClient.open(address, timeout=timeout)
                    continue
                latencies[slot].append(clock() - (t0 + sched_t))
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=serve, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for t in threads:
        t.start()
    for entry in schedule:
        delay = (t0 + entry[0]) - clock()
        if delay > 0:
            time.sleep(delay)
        work.put(entry)
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join()
    wall = clock() - t0
    flat = [lat for per in latencies for lat in per]
    p50, p99, p999 = _percentiles(flat)
    horizon = schedule[-1][0]
    offered = len(schedule) / horizon if horizon > 0 else 0.0
    return LevelResult(
        mode="open",
        level=round(offered),
        requests=len(schedule),
        failures=sum(failures),
        duration_s=wall,
        p50_ms=p50,
        p99_ms=p99,
        p999_ms=p999,
        qps=len(flat) / wall if wall > 0 else 0.0,
        offered_rate=offered,
        digest=schedule_digest(schedule),
    )


def drive_load(
    address: Address,
    pairs: Sequence[LabelPair],
    mode: str,
    levels: Sequence[float],
    arrivals: str = "poisson",
    duration: float = 5.0,
    repeats: int = 1,
    clients: int = 8,
    seed: int = 0,
    workers: Optional[int] = None,
) -> Dict[str, object]:
    """Run every level of one load workload; returns the ``load`` block.

    Closed mode reads ``levels`` as concurrencies; open mode as offered
    rates (each level's schedule is seeded with ``seed + level index``
    so levels differ but runs reproduce).

    Raises
    ------
    ValueError
        On an unknown mode/arrival process or an empty level list.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if not levels:
        raise ValueError("at least one load level is required")
    results: List[LevelResult] = []
    for index, level in enumerate(levels):
        if mode == "closed":
            result, _ = run_closed_level(
                address, pairs, int(level), repeats=repeats
            )
        else:
            schedule = request_schedule(
                pairs, arrivals, float(level), duration, seed + index
            )
            result = run_open_level(address, schedule, clients=clients)
            # label by the requested rate — the sampled offered rate
            # wobbles with the seed and would destabilize level keys
            result.level = float(level)
        results.append(result)
    block: Dict[str, object] = {
        "mode": mode,
        "pairs": len(pairs),
        "seed": seed,
        "levels": [r.to_dict() for r in results],
    }
    if mode == "open":
        block["arrivals"] = arrivals
        block["duration_s"] = duration
        block["clients"] = clients
    else:
        block["repeats"] = repeats
    if workers is not None:
        block["workers"] = workers
    return block


# ----------------------------------------------------------------------
# Structure construction + daemon launching (the CLI's plumbing)
# ----------------------------------------------------------------------
def build_profile_structure(
    profile: Profile, tier: str
) -> Tuple[WeightedGraph, WeightedGraph, float, float]:
    """Build ``profile``'s graph and servable structure at ``tier``.

    Returns ``(graph, structure, generation_seconds, construction_seconds)``.
    The same seeded path ``run_profile`` takes, so a daemon launched
    from a profile serves exactly the structure a load generator
    resolving the same profile computes its query mix against.

    Raises
    ------
    ValueError
        When the profile's algorithm produces no servable structure.
    """
    from repro.harness.runner import ALGORITHMS, STRUCTURE_EXTRACTORS

    if profile.algorithm not in STRUCTURE_EXTRACTORS:
        raise ValueError(
            f"profile {profile.name!r} ({profile.algorithm}) produces no "
            f"servable structure"
        )
    clock = time.perf_counter
    t0 = clock()
    graph = profile.build_graph(tier)
    generation_seconds = clock() - t0
    build, _certify = ALGORITHMS[profile.algorithm]
    params = profile.algo_params(tier)
    t0 = clock()
    built = build(graph, params, random.Random(profile.seed))
    construction_seconds = clock() - t0
    structure = STRUCTURE_EXTRACTORS[profile.algorithm](built[0])
    return graph, structure, generation_seconds, construction_seconds


def launch_daemon(args: Sequence[str]) -> Tuple[subprocess.Popen, Address]:
    """Start ``repro serve`` as a subprocess and wait for its READY line.

    ``args`` are the ``repro serve`` arguments (after the subcommand).
    Returns the process and the parsed address.  The daemon runs in its
    own interpreter so load measurements never share a GIL with it.

    Raises
    ------
    RuntimeError
        When the daemon exits or fails to print READY within
        :data:`DAEMON_READY_TIMEOUT` seconds.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    deadline = time.monotonic() + DAEMON_READY_TIMEOUT
    lines: List[str] = []
    assert proc.stdout is not None
    while True:
        if time.monotonic() > deadline:
            stop_daemon(proc)
            raise RuntimeError(
                "daemon did not print READY in time; output so far:\n"
                + "".join(lines)
            )
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise RuntimeError(
                f"daemon exited with {proc.returncode} before READY:\n"
                + "".join(lines)
            )
        lines.append(line)
        if line.startswith("READY "):
            fields = dict(
                part.split("=", 1) for part in line.split()[1:] if "=" in part
            )
            return proc, address_of(fields["address"])


def stop_daemon(proc: subprocess.Popen) -> int:
    """Stop a daemon started by :func:`launch_daemon`; returns its exit code.

    Tries SIGTERM (the daemon's graceful path) first, then SIGKILL after
    :data:`DAEMON_STOP_TIMEOUT` seconds — the kill-on-failure teardown
    CI relies on.
    """
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=DAEMON_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=DAEMON_STOP_TIMEOUT)
    if proc.stdout is not None:
        proc.stdout.close()
    return int(proc.returncode if proc.returncode is not None else -1)
