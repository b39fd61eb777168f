"""Repository benchmark: construct → certify → oracle → socket.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload light-er --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``light-er``,
``doubling-geo`` and ``serve-mixed``.  Every run constructs, certifies
and builds an oracle; the construction workloads spend ``--seconds`` on
that, while ``serve-mixed`` spends half of it building a fixed larger
spanner again and again and half serving it through
``python -m repro serve``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced pass that wraps the program's functions from outside
and prints the per-layer metrics, writing the spans to
``.perfbench/``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any broken
paper bound or wrong served answer makes ``correct`` false and the exit
code 1.  ``--self-check`` runs a workload twice on one seed and checks
that the edge digests and the deterministic metrics repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from statistics import fmean
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
NAMES = ("light-er", "doubling-geo", "serve-mixed")

#: set-up repetitions per run (``setup_s`` is their median)
SETUP_PROBES = 9
SERVE_LAUNCHES = 7
#: share of ``--seconds`` that serve-mixed serves; the rest rebuilds its
#: fixed spanner, because its construct_s needs a window as long as the
#: other workloads' to average over the machine's slow spells
SERVE_SHARE = 0.5
#: deterministic metrics a self-check compares
DETERMINISTIC = ("lightness", "stretch", "rounds")

#: end-to-end metrics and their units
END_TO_END: Dict[str, str] = {
    "setup_s": "s", "construct_s": "s", "certify_s": "s",
    "oracle_build_s": "s", "peak_rss_mb": "MB", "lightness": "ratio",
    "stretch": "ratio", "rounds": "rounds",
}

#: span name -> (per-layer metric prefix, also report a call count)
SPAN_METRICS: Dict[str, Tuple[str, bool]] = {
    "graphs.generate": ("graphs.generate", False),
    "graphs.freeze": ("graphs.freeze", False),
    "congest.bfs": ("congest.bfs", True),
    "mst.kruskal": ("mst.kruskal", True),
    "mst.fragments": ("mst.fragments", False),
    "traversal.euler_tour": ("traversal.euler_tour", True),
    "spt.approx_spt": ("spt.approx_spt", True),
    "spt.bounded_approx_spt": ("spt.bounded_approx_spt", True),
    "spanners.baswana_sen": ("spanners.baswana_sen", False),
    "spanners.elkin_neiman": ("spanners.elkin_neiman", True),
    "core.light_spanner": ("core.light_spanner.self", False),
    "core.slt": ("core.slt.self", False),
    "core.doubling": ("core.doubling.self", False),
    "core.greedy_net": ("core.greedy_net", True),
    "analysis.certify_spanner": ("analysis.certify_spanner", False),
    "analysis.certify_slt": ("analysis.certify_slt", False),
    "kernels.sssp": ("kernels.sssp", True),
    "oracle.build": ("oracle.build", False),
}
ROUND_GROUPS = ("bfs", "mst", "tour", "approx-spt", "buckets", "scales", "other")

#: per-layer metric -> (unit, the end-to-end metric it should move,
#: the workload where it does).  The map BENCHMARK.json's schema has no
#: room for; a later change names its prediction from here.  "-" marks
#: the serving latencies: on a shared host they spread more from run to
#: run than any end-to-end bound allows, so they have none to move.
#: The ``serve.*`` metrics are measured on ``serve-mixed`` only and read
#: 0 on the construction workloads, which start no daemon.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "graphs.generate_s": ("s", "setup_s", "light-er"),
    "graphs.freeze_s": ("s", "construct_s", "light-er"),
    "congest.bfs_s": ("s", "construct_s", "light-er"),
    "congest.bfs_calls": ("count", "construct_s", "light-er"),
    **{f"rounds.{g}": ("rounds", "rounds", "light-er, doubling-geo")
       for g in ROUND_GROUPS},
    "mst.kruskal_s": ("s", "construct_s", "light-er"),
    "mst.kruskal_calls": ("count", "construct_s", "light-er"),
    "mst.fragments_s": ("s", "construct_s", "light-er"),
    "traversal.euler_tour_s": ("s", "construct_s", "light-er"),
    "traversal.euler_tour_calls": ("count", "construct_s", "light-er"),
    "spt.approx_spt_s": ("s", "construct_s", "light-er"),
    "spt.approx_spt_calls": ("count", "construct_s", "light-er"),
    "spt.bounded_approx_spt_s": ("s", "construct_s", "doubling-geo"),
    "spt.bounded_approx_spt_calls": ("count", "construct_s", "doubling-geo"),
    "spanners.baswana_sen_s": ("s", "construct_s", "light-er"),
    "spanners.elkin_neiman_s": ("s", "construct_s", "light-er"),
    "spanners.elkin_neiman_calls": ("count", "construct_s", "light-er"),
    "core.light_spanner.self_s": ("s", "construct_s", "light-er"),
    "core.slt.self_s": ("s", "construct_s", "light-er"),
    "core.doubling.self_s": ("s", "construct_s", "doubling-geo"),
    "core.greedy_net_s": ("s", "construct_s", "doubling-geo"),
    "core.greedy_net_calls": ("count", "construct_s", "doubling-geo"),
    "core.doubling.full_net_scales": ("count", "construct_s", "doubling-geo"),
    "core.doubling.scales": ("count", "construct_s", "doubling-geo"),
    "core.slt.lightness": ("ratio", "correct", "light-er"),
    "core.slt.root_stretch": ("ratio", "correct", "light-er"),
    "analysis.certify_spanner_s": ("s", "certify_s", "light-er"),
    "analysis.certify_slt_s": ("s", "certify_s", "light-er"),
    "analysis.edges_checked": ("count", "certify_s", "light-er"),
    "analysis.sources_explored": ("count", "certify_s", "light-er"),
    "analysis.fallbacks": ("count", "certify_s", "light-er"),
    "analysis.pruned_ratio": ("ratio", "certify_s", "light-er"),
    "kernels.sssp_s": ("s", "oracle_build_s", "light-er"),
    "kernels.sssp_calls": ("count", "oracle_build_s", "light-er"),
    "oracle.build_s": ("s", "oracle_build_s", "light-er"),
    "oracle.query_us": ("us", "-", "light-er, serve-mixed"),
    "oracle.cache_hit_ratio": ("ratio", "-", "light-er, serve-mixed"),
    "oracle.searches": ("count", "-", "light-er, serve-mixed"),
    "serve.ready_s": ("s", "setup_s", "serve-mixed"),
    "serve.payload_bytes": ("bytes", "setup_s", "serve-mixed"),
    "serve.ping_p50_us": ("us", "-", "serve-mixed"),
    "serve.relay_us": ("us", "-", "serve-mixed"),
    "serve.batch_p50_ms": ("ms", "-", "serve-mixed"),
    "serve.query_p50_us": ("us", "-", "serve-mixed"),
    "serve.query_p99_us": ("us", "-", "serve-mixed"),
    "serve.query_samples": ("count", "-", "serve-mixed"),
    "serve.sustained_qps": ("q/s", "-", "serve-mixed"),
    "serve.sched_lag_p99_ms": ("ms", "-", "serve-mixed"),
    "trace.overhead_pct": ("%", "construct_s", "light-er, doubling-geo"),
    "trace.attributed_pct": ("%", "construct_s", "light-er, doubling-geo"),
}


def _env() -> Dict[str, str]:
    """Child environment: this checkout's sources first on the path.

    String hashing is fixed: a served request's cost depends on how the
    daemon's label dicts hash, so with per-process random hashing each
    daemon launch would draw its own speed (measured on a 2-vCPU virtual
    machine: 0.26 spread of query p50 over launches, 0.08 with a fixed
    seed).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    # children cache bytecode, as an installed package has it: otherwise
    # whether set-up compiles every module depends on the caller's
    # environment and on what an earlier run left behind
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _probe_setup(workload: str, seed: int, speed) -> Tuple[float, float]:
    """(wall, reference) seconds of one set-up probe process."""

    def probe() -> None:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            env=_env(), cwd=ROOT,
        )
        # a blocking wait: Popen.wait(timeout=...) polls in up to 50 ms
        # sleeps, which would quantize the measurement
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            if proc.wait() != 0:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        finally:
            watchdog.cancel()

    _, wall, ref = speed.timed(probe)
    return wall, ref


def _construct(wl, seed: int, budget: float, speed, probes: int = 0):
    """Iterations until ``budget`` seconds pass, at least the minimum.

    With ``probes``, the budget is cut into that many slices and a
    set-up probe runs after each: the machine's speed drifts over
    seconds, and probes spread over the run see more of that drift than
    a burst of them would.  Returns the iterations, the peak RSS once
    the minimum was done (the same work on every run of a seed) and the
    probes' (wall, reference) seconds.
    """
    from workloads import input_seed

    its = []
    setups: List[Tuple[float, float]] = []
    rss = 0.0
    start = time.perf_counter()
    for k in range(1, max(1, probes) + 1):
        deadline = start + budget * k / max(1, probes)
        while time.perf_counter() < deadline or (
                k >= probes and len(its) < wl.min_iterations):
            i = len(its)
            its.append(wl.iterate(wl.make_input(seed, i), i,
                                  input_seed(seed, i), speed))
            if len(its) == wl.min_iterations:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if probes:
            setups.append(_probe_setup(wl.name, seed, speed))
    return its, rss, setups


def _serve(wl, structure, seed: int, budget: float, speed, server_cpus):
    """Launch the daemon a few times (timing READY), serve on the last.

    Returns the serving result and each launch's (wall, reference)
    seconds to READY.
    """
    from serving import Daemon, ServePlan, serve_phases, write_structure
    from speed import slowdown

    # a launch runs on the daemon's CPU while the client waits; serving
    # runs on the client's CPU and the daemon's
    launch_speed = speed.on(sorted(server_cpus))
    speed = speed.on(sorted(set(speed.cpus) | server_cpus))
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"{wl.name}-{seed}-{os.getpid()}.edges")
    write_structure(structure, path)
    ready: List[Tuple[float, float]] = []
    daemon = None
    try:
        for k in range(SERVE_LAUNCHES):
            before = launch_speed.sample()
            daemon = Daemon(path, seed, _env(), ROOT, server_cpus)
            ready.append((daemon.ready_s, daemon.ready_s
                          / slowdown(before, launch_speed.sample())))
            if k < SERVE_LAUNCHES - 1:
                daemon.stop()
                daemon = None
        plan = ServePlan(ping_s=0.05 * budget, query_s=0.2 * budget,
                         batch_s=0.15 * budget, rung_s=0.05 * budget)
        return serve_phases(daemon, structure, seed, plan, speed), ready
    finally:
        if daemon is not None:
            daemon.stop()
        os.remove(path)


def _violations(its) -> List[str]:
    return [v for it in its for v in it.violations]


def _raw_line(its, setups, served) -> str:
    """Wall-clock medians of the timed steps, beside the reference ones."""
    from arith import median

    raw = {
        "setup_s": median(w for w, _r in setups),
        "construct_s": median(it.wall[0] for it in its),
        "certify_s": median(it.wall[1] for it in its),
        "oracle_build_s": median(it.wall[2] for it in its),
    }
    if served is not None:
        raw.update({f"{k}_p50": v for k, v in served.wall_p50.items()})
    return "wall " + json.dumps({k: round(v, 6) for k, v in raw.items()})


def _serve_notes(served) -> List[str]:
    from serving import LATENCY_LIMIT_MS

    return [
        f"query samples {len(served.query_us)}; batches {len(served.batch_ms)}",
        "ladder " + ", ".join(
            f"{r.rate}/s p99 {r.p99_ms:.2f}ms in-limit {r.share:.2f}"
            for r in served.rungs),
        f"sustained {served.sustained_qps:.0f} q/s at p99 <= "
        f"{LATENCY_LIMIT_MS} ms; open-loop lateness p99 "
        f"{served.lag_p99_ms:.3f} ms",
    ]


def run_untraced(wl, seed: int, seconds: float, speed, server_cpus):
    from arith import median

    served = None
    if wl.serves:
        its, rss, _ = _construct(wl, seed, (1.0 - SERVE_SHARE) * seconds, speed)
        served, setups = _serve(wl, its[0].served.graph, seed,
                                SERVE_SHARE * seconds, speed, server_cpus)
    else:
        its, rss, setups = _construct(wl, seed, seconds, speed, SETUP_PROBES)
    first = its[:wl.min_iterations]
    metrics = {
        "setup_s": median(r for _w, r in setups),
        "construct_s": median(it.construct_s for it in its),
        "certify_s": median(it.certify_s for it in its),
        "oracle_build_s": median(it.oracle_build_s for it in its),
        "peak_rss_mb": rss,
        "lightness": median(it.served.lightness for it in first),
        # a mean: on light-er most spanners certify at exactly 1.0, so
        # a median sits on 1.0 until half the structures get worse
        "stretch": fmean(it.served.stretch for it in first),
        "rounds": median(it.rounds for it in first),
    }
    notes = [
        f"iterations {len(its)} (deterministic metrics over the first "
        f"{len(first)})",
        *(_serve_notes(served) if served else []),
        _raw_line(its, setups, served),
    ]
    return its, served, metrics, notes


def run_traced(wl, seed: int, seconds: float, speed, server_cpus):
    """Untraced and traced pass on fresh copies of each input; serving."""
    from arith import attributed, by_name, median, percentile, self_times
    from serving import mix_pairs, time_inprocess, CHUNK
    from tracer import Tracer
    from workloads import input_seed

    tracer = Tracer()
    bare, traced = [], []
    for i in range(wl.traced_iterations):
        key = input_seed(seed, i)
        # each pass gets its own copy of the input: a graph caches its
        # frozen CSR view, which would hand the second pass a free freeze
        bare.append(wl.iterate(wl.make_input(seed, i), i, key, speed))
        with tracer.installed():
            with tracer.span("graphs.generate"):
                graph = wl.make_input(seed, i)
            traced.append(wl.iterate(graph, i, key, speed, tracer.span))
    spans = tracer.closed()
    os.makedirs(SCRATCH, exist_ok=True)
    tracer.dump(os.path.join(SCRATCH, f"trace-{wl.name}-{seed}.jsonl"),
                {"workload": wl.name, "seed": seed})
    per = by_name(spans)
    count = len(traced)
    metrics: Dict[str, float] = {}
    for span_name, (prefix, calls) in SPAN_METRICS.items():
        own, n = per.get(span_name, (0.0, 0))
        metrics[f"{prefix}_s"] = own / count
        if calls:
            metrics[f"{prefix}_calls"] = n / count
    for group in ROUND_GROUPS:
        metrics[f"rounds.{group}"] = sum(
            s.grouped_rounds().get(group, 0)
            for it in traced for s in it.structures
        ) / count
    metrics["core.doubling.full_net_scales"] = sum(
        it.full_net_scales for it in traced) / count
    metrics["core.doubling.scales"] = sum(it.scales for it in traced) / count
    slts = [s for it in traced for s in it.structures if s.kind == "slt"]
    metrics["core.slt.lightness"] = median(s.lightness for s in slts) if slts else 0.0
    metrics["core.slt.root_stretch"] = median(s.stretch for s in slts) if slts else 0.0
    certs = [s.certification for it in traced for s in it.structures
             if s.certification]
    for key in ("edges_checked", "sources_explored", "fallbacks"):
        metrics[f"analysis.{key}"] = sum(c[key] for c in certs) / count
    metrics["analysis.pruned_ratio"] = (
        sum(c["edges_in_spanner"] for c in certs)
        / max(1, sum(c["edges_total"] for c in certs))
    )
    structure = traced[0].served.graph
    notes = [f"traced iterations {count}; spans {len(spans)}"]
    if wl.serves:
        served, ready = _serve(wl, structure, seed, SERVE_SHARE * seconds,
                               speed, server_cpus)
        inproc_us, cache = served.inproc_us, served.cache
        ping = percentile(served.ping_us, 50)
        query = percentile(served.query_us, 50)
        metrics.update({
            "serve.ready_s": median(r for _w, r in ready),
            "serve.payload_bytes": float(served.payload_bytes),
            "serve.ping_p50_us": ping,
            "serve.relay_us": query - ping - percentile(inproc_us, 50),
            "serve.batch_p50_ms": percentile(served.batch_ms, 50),
            "serve.query_p50_us": query,
            "serve.query_p99_us": served.query_p99_us,
            "serve.query_samples": float(len(served.query_us)),
            "serve.sustained_qps": served.sustained_qps,
            "serve.sched_lag_p99_ms": served.lag_p99_ms,
        })
        notes += _serve_notes(served)
    else:
        served = None
        inproc_us, _wall, cache = time_inprocess(
            structure, seed, mix_pairs(structure, seed, 2 * CHUNK), speed)
        metrics.update({k: 0.0 for k in PER_LAYER if k.startswith("serve.")})
        notes.append("serve.* read 0: no daemon runs on this workload")
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics.update({
        "oracle.query_us": percentile(inproc_us, 50),
        "oracle.cache_hit_ratio": cache.get("hits", 0) / max(1, lookups),
        "oracle.searches": float(cache.get("searches", 0)),
    })
    # The root spans (core.*, analysis.certify_*, oracle.build) wrap the
    # timed windows whole, so every span's self time adds up to the
    # windows by construction.  What the wrappers catch is the time
    # covered by the spans below those roots.
    windows = sum(sum(it.wall) for it in traced)
    below = attributed(spans, skip=("graphs.generate",))
    roots = sum(own for (name, _s, _e, parent), own
                in zip(spans, self_times(spans))
                if parent is None and name != "graphs.generate")
    metrics["trace.attributed_pct"] = 100.0 * below / windows
    untraced = median(it.construct_s for it in bare)
    metrics["trace.overhead_pct"] = 100.0 * (
        median(it.construct_s for it in traced) / untraced - 1.0)
    notes.append(
        f"trace: spans below the roots cover {100.0 * below / windows:.1f}% "
        f"of construct+certify+oracle; the roots' own time is "
        f"{100.0 * roots / windows:.1f}%")
    return traced + bare, served, metrics, notes


def self_check(workload: str, seed: int) -> int:
    """Run ``workload`` twice on ``seed``; digests and metrics must match."""
    from workloads import WORKLOADS

    keep = WORKLOADS[workload].min_iterations
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        lines = proc.stdout.splitlines()
        digests = [ln for ln in lines if ln.startswith("digest ")
                   and int(ln.split()[2].split("=")[1]) < keep]
        metrics = json.loads(lines[-1])["metrics"]
        outputs.append((digests, {k: metrics[k]["value"] for k in DETERMINISTIC}))
    (d1, m1), (d2, m2) = outputs
    same = d1 == d2 and m1 == m2 and bool(d1)
    print(f"self-check {workload} seed={seed}: {len(d1)} digests, {m1} -> "
          + ("identical" if same else f"DIFFERENT {m2}"))
    return 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the benchmark (the client) on one CPU, the daemon on another when
    # there is one: neither is descheduled for the other mid-request, and
    # each run places them the same way
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    server_cpus = {cpus[-1]}
    if args.self_check:
        return self_check(args.workload, args.seed)

    from arith import valid_name
    from speed import Speed
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    its, served, metrics, notes = runner(wl, args.seed, args.seconds,
                                         Speed([cpus[0]]), server_cpus)
    digests = [line for it in its if it.index < wl.min_iterations
               for line in it.digest_lines(wl.name)]
    for line in dict.fromkeys(digests):  # a traced pass repeats them
        print(line)
    # each iteration: its structures, and the oracle built over one
    attempted = sum(len(it.structures) + 1 for it in its)
    violations = _violations(its)
    failed = len(violations)
    if served is not None:
        attempted += served.attempted
        failed += served.failed
        violations += served.notes
    for note in notes + violations:
        print(note)
    units = END_TO_END if not args.trace else {k: u for k, (u, _m, _w) in PER_LAYER.items()}
    if sorted(metrics) != sorted(units) or not all(map(valid_name, metrics)):
        raise RuntimeError(f"metric names do not match BENCHMARK.json: {sorted(metrics)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(f"{'fail_frac':32s} {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
