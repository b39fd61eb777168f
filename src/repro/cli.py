"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
spanner     build the §5 light spanner of a graph file (or a generated one)
slt         build the §4 shallow-light tree
net         build a §6 (α, β)-net
doubling    build the §7 doubling-graph spanner
estimate    run the §8 MST-weight estimation
generate    write a workload graph to a file
bench       run the profile-driven benchmark harness (repro.harness)
graph       pack / inspect the mmap binary graph format (repro.kernels)
oracle      build / query a pickled distance oracle (repro.oracle)
lint        run the determinism & contract analyzer (repro.lint)
trace       summarize a JSONL span trace (repro.obs)

Graphs are read/written with :mod:`repro.io` (edge-list or ``.json`` by
extension).  Every command prints a short quality report (measured
stretch / lightness / rounds against the construction's guarantee).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro import io as graph_io
from repro.analysis import (
    lightness,
    max_edge_stretch,
    max_pairwise_stretch,
    root_stretch,
)
from repro.core import (
    build_net,
    doubling_spanner,
    estimate_mst_weight_via_nets,
    light_spanner,
    shallow_light_tree,
)
from repro.graphs import (
    WeightedGraph,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
)


def _load(path: str) -> WeightedGraph:
    if path.endswith(".json"):
        return graph_io.read_json(path)
    return graph_io.read_edge_list(path)


def _save(graph: WeightedGraph, path: str) -> None:
    if path.endswith(".json"):
        graph_io.write_json(graph, path)
    else:
        graph_io.write_edge_list(graph, path)


def _root_of(graph: WeightedGraph, requested: Optional[str]):
    if requested is None:
        return min(graph.vertices(), key=repr)
    for v in graph.vertices():
        if str(v) == requested:
            return v
    raise SystemExit(f"error: root {requested!r} is not a vertex")


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "er":
        g = erdos_renyi_graph(args.n, args.p, seed=args.seed)
    elif args.family == "geometric":
        g = random_geometric_graph(args.n, seed=args.seed)
    else:
        side = max(2, int(args.n ** 0.5))
        g = grid_graph(side, side, jitter=0.3, seed=args.seed)
    _save(g, args.output)
    print(f"wrote {g} to {args.output}")
    return 0


def cmd_spanner(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    res = light_spanner(g, args.k, args.eps, random.Random(args.seed))
    print(f"input      {g}")
    print(f"spanner    {res.spanner}")
    print(f"stretch    {max_edge_stretch(g, res.spanner):.4f}"
          f"  (guaranteed <= {res.stretch_bound:.2f})")
    print(f"lightness  {lightness(g, res.spanner):.2f}")
    print(f"rounds     {res.rounds} (charged CONGEST rounds)")
    if args.output:
        _save(res.spanner, args.output)
        print(f"wrote spanner to {args.output}")
    return 0


def cmd_slt(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    root = _root_of(g, args.root)
    res = shallow_light_tree(g, root, args.alpha)
    print(f"input         {g}")
    print(f"SLT           {res.tree}")
    print(f"lightness     {lightness(g, res.tree):.3f}  (budget {args.alpha})")
    print(f"root-stretch  {root_stretch(g, res.tree, root):.3f}"
          f"  (guaranteed <= {res.stretch_bound:.1f})")
    print(f"rounds        {res.rounds}")
    if args.output:
        _save(res.tree, args.output)
        print(f"wrote tree to {args.output}")
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    res = build_net(g, args.scale, args.delta, random.Random(args.seed))
    print(f"input       {g}")
    print(f"net         {len(res.points)} points "
          f"(({res.alpha:.2f}, {res.beta:.2f})-net)")
    print(f"iterations  {res.iterations}")
    print(f"rounds      {res.rounds}")
    print("points      " + " ".join(str(p) for p in sorted(res.points, key=repr)))
    return 0


def cmd_doubling(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    res = doubling_spanner(
        g, args.eps, random.Random(args.seed), net_method=args.net_method
    )
    print(f"input      {g}")
    print(f"spanner    {res.spanner}")
    print(f"stretch    {max_pairwise_stretch(g, res.spanner):.4f}"
          f"  (guaranteed <= {res.stretch_bound:.2f})")
    print(f"lightness  {lightness(g, res.spanner):.2f}")
    print(f"rounds     {res.rounds}")
    if args.output:
        _save(res.spanner, args.output)
        print(f"wrote spanner to {args.output}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    g = _load(args.graph)
    est = estimate_mst_weight_via_nets(
        g, net_method=args.net_method, rng=random.Random(args.seed)
    )
    print(f"input  {g}")
    print(f"Psi    {est.psi:.1f}")
    print(f"L      {est.mst_weight:.1f}  (exact, for reference)")
    print(f"ratio  {est.approximation_ratio:.2f}"
          f"  (guaranteed O(alpha log n), alpha = {est.alpha:.2f})")
    return 0


def cmd_graph_pack(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.kernels import pack_ring_chords

    t0 = time.perf_counter()
    pack_ring_chords(args.out, args.n, args.chords, args.seed)
    pack_s = time.perf_counter() - t0
    size = os.path.getsize(args.out)
    print(f"family      ring-chords  n={args.n}  chords={args.chords}  "
          f"seed={args.seed}")
    print(f"packed in   {pack_s:.3f}s")
    print(f"wrote {size} bytes to {args.out}")
    return 0


def cmd_graph_load(args: argparse.Namespace) -> int:
    from repro.kernels import PackedFormatError, load_packed

    try:
        with load_packed(args.path, verify=not args.no_verify) as pg:
            print(f"file        {pg.path}")
            print(f"vertices    {pg.n}")
            print(f"arcs        {pg.m_arcs}  ({pg.m_arcs // 2} undirected edges)")
            print(f"payload     {pg.payload_size} bytes")
            print(f"checksum    {'skipped' if args.no_verify else 'ok'}")
    except PackedFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle_build(args: argparse.Namespace) -> int:
    import pickle
    import time

    from repro.oracle import DistanceOracle

    structure = _load(args.structure)
    t0 = time.perf_counter()
    oracle = DistanceOracle.build(
        structure,
        landmarks=args.landmarks,
        strategy=args.strategy,
        seed=args.seed,
        cache_size=args.cache_size,
    )
    build_s = time.perf_counter() - t0
    if args.spot_check:
        from repro.analysis import verify_oracle

        verify_oracle(structure, oracle, pairs=args.spot_check, seed=args.seed)
        print(f"spot-check  {args.spot_check} pairs vs Dijkstra: ok")
    with open(args.output, "wb") as fh:
        pickle.dump(oracle, fh)
    print(f"structure   {structure}")
    print(f"oracle      {oracle}")
    print(f"landmarks   {' '.join(str(v) for v in oracle.landmarks)}")
    print(f"built in    {build_s:.3f}s")
    print(f"wrote oracle to {args.output}")
    return 0


def cmd_oracle_query(args: argparse.Namespace) -> int:
    import pickle

    with open(args.oracle, "rb") as fh:
        oracle = pickle.load(fh)
    if len(args.pair) % 2:
        raise SystemExit("error: vertices must come in pairs (u v [u v ...])")
    by_name = {str(v): v for v in oracle.csr.verts}

    def resolve(requested: str):
        try:
            return by_name[requested]
        except KeyError:
            raise SystemExit(
                f"error: {requested!r} is not a vertex of the served structure"
            ) from None

    pairs = [
        (resolve(args.pair[i]), resolve(args.pair[i + 1]))
        for i in range(0, len(args.pair), 2)
    ]
    for (u, v), d in zip(pairs, oracle.query_many(pairs)):
        print(f"d({u}, {v}) = {d:.6g}")
    if args.k_nearest is not None:
        v = resolve(args.k_nearest)
        ranked = oracle.k_nearest(v, args.k)
        print(f"{args.k}-nearest of {v}: "
              + "  ".join(f"{u}@{d:.6g}" for u, d in ranked))
    info = oracle.cache_info()
    print(f"cache       {info['hits']} hit(s), {info['misses']} miss(es), "
          f"{info['size']}/{info['maxsize']} entries")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro import lint

    if args.rules:
        for code, summary in lint.rule_catalog().items():
            print(f"{code}  {summary}")
        return 0
    cache = None
    if args.program and not args.no_cache:
        from repro.lint.cache import AnalysisCache

        cache = AnalysisCache(Path(args.cache_dir))
    try:
        diagnostics = lint.lint_paths(
            [Path(p) for p in args.paths], program=args.program, cache=cache
        )
    except FileNotFoundError as exc:
        print(f"error: no such path: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([d.to_json() for d in diagnostics], indent=2))
    elif args.format == "sarif":
        from repro.lint.sarif import sarif_report

        print(json.dumps(sarif_report(diagnostics), indent=2))
    else:
        for diag in diagnostics:
            print(diag.render())
        if diagnostics:
            print(f"{len(diagnostics)} finding(s)")
    return 1 if diagnostics else 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import summarize_trace

    try:
        print(summarize_trace(args.trace, top=args.top))
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _bench_huge(args: argparse.Namespace) -> int:
    """``repro bench --suite huge``: the mmap-backed huge tier."""
    from repro import harness

    if args.profiles:
        try:
            selected = [harness.get_profile(name) for name in args.profiles]
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
    else:
        selected = harness.huge_profiles()
    kernel = args.kernel or "auto"
    print(f"running {len(selected)} huge profile(s) (kernel {kernel!r})")
    records = []
    for i, profile in enumerate(selected, start=1):
        try:
            record = harness.run_huge_profile(profile, kernel=kernel)
        except (KeyError, ValueError, RuntimeError) as exc:
            raise SystemExit(f"error: {exc}") from exc
        records.append(record)
        status = "ok" if record.ok else "VIOLATED"
        print(
            f"[{i}/{len(selected)}] {profile.name:<24} "
            f"n={record.n:<8} "
            f"pack {record.generation_seconds:7.3f}s  "
            f"sssp {record.construction_seconds:7.3f}s  "
            f"cert {record.certification_seconds:7.3f}s  {status}"
        )
    violated = [r.profile for r in records if not r.ok]
    rc = 0
    if violated:
        print(f"QUALITY VIOLATED: {', '.join(violated)}")
        rc = 1
    report = harness.make_report(records, suite="huge", tag=args.tag)
    if args.out:
        harness.write_report(report, args.out)
        print(f"wrote {len(records)} record(s) to {args.out}")
    return rc


def cmd_bench(args: argparse.Namespace) -> int:
    # imported lazily so the file-based commands stay snappy
    from repro import harness

    if args.list:
        print(f"{'profile':<26} {'family':<16} {'algorithm':<18} section")
        for p in harness.all_profiles():
            print(f"{p.name:<26} {p.family:<16} {p.algorithm:<18} {p.section}")
            print(f"{'':<26} {p.description}")
        return 0

    if args.suite == "huge":
        return _bench_huge(args)

    # --suite is a size tier, or a named group: "congest" (the CONGEST
    # profiles at smoke sizes — CI's congest-smoke job), "queries"
    # (every oracle-servable profile at smoke sizes with the query
    # workload enabled — CI's oracle-smoke job) or "huge" (the
    # mmap-backed kernel profiles, handled above)
    queries = args.queries
    if args.suite == "congest":
        tier, default_selection = "smoke", harness.congest_profiles()
    elif args.suite == "queries":
        tier, default_selection = "smoke", harness.queryable_profiles()
        queries = True
    else:
        tier, default_selection = args.suite, harness.all_profiles()

    if args.profiles:
        try:
            selected = [harness.get_profile(name) for name in args.profiles]
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
    else:
        selected = default_selection

    print(f"running {len(selected)} profile(s) at tier {tier!r}")
    tracer = None
    if args.trace:
        from repro import obs

        tracer = obs.enable()
    try:
        records = harness.run_suite(
            selected, tier=tier, measure_memory=not args.no_memory,
            progress=print,
            certify_sample=args.certify_sample,
            queries=queries,
            kernel=args.kernel or "python",
        )
    finally:
        if tracer is not None:
            from repro import obs

            obs.disable()
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            span_lines = tracer.write_jsonl(fh)
        print(f"wrote {span_lines} span(s) to {args.trace}")
    if queries:
        served = [r for r in records if r.queries]
        for r in served:
            q = r.queries
            print(
                f"    {r.profile:<24} queries {q['count']:>6}  "
                f"p50 {q['p50_ms']:.3f}ms  p99 {q['p99_ms']:.3f}ms  "
                f"{q['qps']:.0f} q/s  hit-rate {q['cache_hit_rate']:.0%}"
            )
    violated = [r.profile for r in records if not r.ok]
    rc = 0
    if violated:
        print(f"QUALITY VIOLATED: {', '.join(violated)}")
        rc = 1

    report = harness.make_report(records, suite=args.suite, tag=args.tag)
    if args.out:
        harness.write_report(report, args.out)
        print(f"wrote {len(records)} record(s) to {args.out}")

    if args.compare:
        try:
            baseline = harness.load_report(args.compare)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load baseline: {exc}") from exc
        try:
            comparison = harness.compare_reports(baseline, report, tolerance=args.tolerance)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        print(f"\ndeltas vs {args.compare} (tolerance {args.tolerance:.0%}):")
        print(comparison.render())
        if not comparison.ok:
            rc = 1
    return rc


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import time

    from repro.oracle import DistanceOracle
    from repro.serve import Server

    if bool(args.profile) == bool(args.structure):
        raise SystemExit("error: give exactly one of --profile or --structure")
    landmarks = args.landmarks
    t0 = time.perf_counter()
    if args.structure:
        structure = _load(args.structure)
        seed = args.seed if args.seed is not None else 0
        if landmarks is None:
            landmarks = 8
    else:
        from repro import harness
        from repro.harness.loadgen import build_profile_structure
        from repro.harness.queries import QUERY_MIXES

        try:
            profile = harness.get_profile(args.profile)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
        _graph, structure, gen_s, build_s = build_profile_structure(
            profile, args.tier
        )
        seed = profile.seed if args.seed is None else args.seed
        if landmarks is None:
            landmarks = QUERY_MIXES[args.tier].landmarks
        print(
            f"built {profile.name}@{args.tier}: generation {gen_s:.3f}s, "
            f"construction {build_s:.3f}s",
            flush=True,
        )
    startup = {"load_s": time.perf_counter() - t0}
    t0 = time.perf_counter()
    oracle = DistanceOracle.build(
        structure,
        landmarks=landmarks,
        strategy=args.strategy,
        seed=seed,
        cache_size=args.cache_size,
    )
    startup["oracle_s"] = time.perf_counter() - t0
    server = Server(
        oracle,
        workers=args.workers,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        warm=args.warm,
        max_frame=args.max_frame,
    )
    server.start()
    for step in ("publish_s", "workers_s", "bind_s"):
        startup[step] = server.metrics.gauge(f"serve.startup.{step}").value
    # where launch-to-READY went, interpreter start-up and imports aside
    print(
        "startup " + " ".join(f"{k}={v:.4f}" for k, v in startup.items()),
        flush=True,
    )
    address = server.address
    spec = (
        f"unix:{address}" if isinstance(address, str)
        else f"{address[0]}:{address[1]}"
    )
    # the machine-readable handshake line the load generator (and the CI
    # smoke job) waits for before opening connections
    print(
        f"READY address={spec} workers={server.workers} "
        f"n={oracle.csr.n} landmarks={len(oracle.landmark_indices)} "
        f"payload_bytes={server.payload_bytes} pid={os.getpid()}",
        flush=True,
    )

    def _stop(signum: int, frame: object) -> None:
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    server.serve_forever()
    print("daemon stopped", flush=True)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro import harness
    from repro.harness import loadgen
    from repro.harness.queries import QUERY_MIXES, build_query_mix
    from repro.harness.runner import ProfileRecord

    try:
        profile = harness.get_profile(args.profile)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    tier = args.tier
    if args.mode == "closed":
        levels = [float(int(x)) for x in args.concurrency.split(",")]
    else:
        levels = [float(x) for x in args.rate.split(",")]
    graph, structure, gen_s, build_s = loadgen.build_profile_structure(
        profile, tier
    )
    mix = QUERY_MIXES[tier]
    raw_pairs, _sources = build_query_mix(structure, mix, profile.seed)
    pairs = [(str(u), str(v)) for u, v in raw_pairs]
    print(
        f"{profile.name}@{tier}: {len(pairs)} pairs, "
        f"mode {args.mode}, levels {levels}"
    )

    proc = None
    if args.connect:
        from repro.serve import address_of

        address = address_of(args.connect)
    else:
        proc, address = loadgen.launch_daemon([
            "--profile", profile.name, "--tier", tier,
            "--workers", str(args.workers), "--port", "0",
            "--warm", str(args.warm),
        ])
    try:
        block = loadgen.drive_load(
            address,
            pairs,
            args.mode,
            levels,
            arrivals=args.arrivals,
            duration=args.duration,
            repeats=args.repeats,
            clients=args.clients,
            seed=profile.seed,
            workers=None if args.connect else args.workers,
        )
    finally:
        if proc is not None:
            loadgen.stop_daemon(proc)

    for level in block["levels"]:
        print(
            f"  {level['key']:>6}  {level['requests']:>6} req  "
            f"p50 {level['p50_ms']:.3f}ms  p99 {level['p99_ms']:.3f}ms  "
            f"p999 {level['p999_ms']:.3f}ms  {level['qps']:.0f} q/s  "
            f"failures {level['failure_rate']:.2%}"
        )

    record = ProfileRecord(
        profile=profile.name,
        tier=tier,
        family=profile.family,
        algorithm=profile.algorithm,
        section=profile.section,
        seed=profile.seed,
        params=dict(profile.algo_params(tier)),
        n=graph.n,
        m=graph.m,
        generation_seconds=gen_s,
        construction_seconds=build_s,
        certification_seconds=0.0,
        peak_memory_bytes=None,
        rounds=None,
        metrics={},
        ok=True,
        load=block,
    )
    report = harness.make_report([record], suite="load", tag=args.tag)
    rc = 0
    if args.out:
        harness.write_report(report, args.out)
        print(f"wrote load report to {args.out}")
    if args.compare:
        try:
            baseline = harness.load_report(args.compare)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load baseline: {exc}") from exc
        try:
            comparison = harness.compare_reports(
                baseline, report, tolerance=args.tolerance
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
        print(f"\ndeltas vs {args.compare} (tolerance {args.tolerance:.0%}):")
        print(comparison.render())
        if not comparison.ok:
            rc = 1
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed light-network constructions "
        "(Elkin–Filtser–Neiman, PODC 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a workload graph")
    p.add_argument("--family", choices=["er", "geometric", "grid"], default="er")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--p", type=float, default=0.2, help="ER edge probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("output", help="output file (.json or edge list)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("spanner", help="§5 light spanner")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_spanner)

    p = sub.add_parser("slt", help="§4 shallow-light tree")
    p.add_argument("graph")
    p.add_argument("--alpha", type=float, default=5.0, help="lightness budget")
    p.add_argument("--root", default=None)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_slt)

    p = sub.add_parser("net", help="§6 (α, β)-net")
    p.add_argument("graph")
    p.add_argument("--scale", type=float, required=True, help="Δ")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_net)

    p = sub.add_parser("doubling", help="§7 doubling-graph spanner")
    p.add_argument("graph")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--net-method", choices=["greedy", "distributed"], default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_doubling)

    p = sub.add_parser("estimate", help="§8 MST-weight estimation via nets")
    p.add_argument("graph")
    p.add_argument("--net-method", choices=["greedy", "distributed"], default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser(
        "lint",
        help="repo-specific determinism & contract analyzer (repro.lint)",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (json is one object per finding; sarif is "
             "a SARIF 2.1.0 log for code-scanning upload)",
    )
    p.add_argument(
        "--rules", action="store_true",
        help="list every rule code with its summary and exit",
    )
    p.add_argument(
        "--program", action="store_true",
        help="also run the whole-program passes (import-graph layering, "
             "seed-taint, pool-safety) over the combined tree",
    )
    p.add_argument(
        "--cache-dir", default=".repro-lint-cache", metavar="DIR",
        help="per-file analysis cache for --program runs "
             "(default: .repro-lint-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the per-file analysis cache",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("bench", help="profile-driven benchmark harness")
    p.add_argument("--list", action="store_true", help="list registered profiles")
    p.add_argument(
        "--profile", action="append", dest="profiles", metavar="NAME",
        help="run only this profile (repeatable; default: all)",
    )
    p.add_argument(
        "--suite",
        choices=["smoke", "table1", "stress", "congest", "queries", "huge"],
        default="smoke",
        help="size tier to run, or a named group: 'congest' (CONGEST-layer "
             "profiles at smoke sizes) / 'queries' (oracle-servable "
             "profiles at smoke sizes with the query workload on) / "
             "'huge' (10^6+-vertex kernel profiles served from the "
             "packed mmap format; kernel defaults to 'auto') "
             "(default: smoke)",
    )
    p.add_argument(
        "--kernel", choices=["python", "numpy", "auto"], default=None,
        help="SSSP backend for the kernel-sssp profiles and the huge tier "
             "(repro.kernels; default: python, or auto for --suite huge)",
    )
    p.add_argument(
        "--queries", action="store_true",
        help="serve the tier's seeded query mix over each constructed "
             "structure through a distance oracle and record the "
             "latency/throughput/cache block (implied by --suite queries)",
    )
    p.add_argument(
        "--certify-sample", type=float, default=None, metavar="P",
        help="certify only a seeded random P-fraction (0 < P <= 1) of the "
             "edges — an estimate for graphs too big for exact "
             "certification, recorded as certification.mode='sampled'",
    )
    p.add_argument("--out", help="write the JSON report here (e.g. BENCH_smoke.json)")
    p.add_argument("--compare", metavar="BASELINE",
                   help="diff this run against a prior report; gate on regressions")
    p.add_argument("--tolerance", type=float, default=0.5,
                   help="relative time/memory tolerance for the gate (default 0.5)")
    p.add_argument("--tag", default=None, help="free-form tag stamped into the report")
    p.add_argument("--no-memory", "--no-mem", action="store_true",
                   help="skip the tracemalloc re-run (tracemalloc instruments "
                        "every allocation and distorts hot-loop timings; "
                        "peak_memory_bytes is recorded as null)")
    p.add_argument("--trace", metavar="OUT.jsonl",
                   help="record a hierarchical span trace of the run and "
                        "write it as JSONL (one span per line; inspect with "
                        "'repro trace summarize')")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "graph",
        help="pack / inspect the versioned mmap binary graph format "
             "(repro.kernels)",
    )
    graph_sub = p.add_subparsers(dest="graph_command", required=True)

    p = graph_sub.add_parser(
        "pack",
        help="stream a generated family into a .rpg file "
             "(CSR columns, little-endian, CRC-stamped)",
    )
    p.add_argument("--family", choices=["ring-chords"], default="ring-chords",
                   help="graph family (only ring-chords streams today)")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--chords", type=int, default=4,
                   help="chord offsets per vertex (default: 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .rpg file")
    p.set_defaults(fn=cmd_graph_pack)

    p = graph_sub.add_parser(
        "load", help="open a .rpg file via mmap and print its header"
    )
    p.add_argument("path", help=".rpg file written by 'repro graph pack'")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the CRC32 payload pass (size/magic/version "
                        "checks still run)")
    p.set_defaults(fn=cmd_graph_load)

    p = sub.add_parser(
        "oracle",
        help="preprocess-once / query-many distance serving (repro.oracle)",
    )
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)

    p = oracle_sub.add_parser(
        "build", help="preprocess a structure file into a pickled oracle"
    )
    p.add_argument("structure",
                   help="the structure to serve (.json or edge list; e.g. a "
                        "spanner written by 'repro spanner --output')")
    p.add_argument("output", help="pickle file the oracle is written to")
    p.add_argument("--landmarks", type=int, default=8,
                   help="number of ALT landmarks (default: 8)")
    p.add_argument("--strategy", choices=["far", "degree"], default="far",
                   help="landmark selection strategy (default: far-sampling)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-size", type=int, default=4096,
                   help="LRU result-cache capacity (default: 4096)")
    p.add_argument("--spot-check", type=int, default=0, metavar="PAIRS",
                   help="verify this many seeded pairs against Dijkstra "
                        "before writing the oracle")
    p.set_defaults(fn=cmd_oracle_build)

    p = oracle_sub.add_parser(
        "query", help="serve distance queries from a pickled oracle"
    )
    p.add_argument("oracle", help="pickle file written by 'repro oracle build'")
    p.add_argument("pair", nargs="*", metavar="VERTEX",
                   help="query pairs, flattened: u v [u v ...]")
    p.add_argument("--k-nearest", metavar="VERTEX", default=None,
                   help="also print the --k nearest vertices of this vertex")
    p.add_argument("--k", type=int, default=5,
                   help="neighbourhood size for --k-nearest (default: 5)")
    p.set_defaults(fn=cmd_oracle_query)

    p = sub.add_parser(
        "trace", help="inspect JSONL span traces (repro.obs)"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    p = trace_sub.add_parser(
        "summarize",
        help="render the span tree with self/total time and top hot spans",
    )
    p.add_argument("trace", help="JSONL trace written by 'repro bench --trace'")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="how many hot spans to rank by self time (default: 10)")
    p.set_defaults(fn=cmd_trace_summarize)

    p = sub.add_parser(
        "serve",
        help="multi-worker shared-memory serving daemon (repro.serve); "
             "prints a READY line once the socket is bound",
    )
    p.add_argument("--profile", default=None,
                   help="serve this harness profile's structure "
                        "(built at --tier with the profile's seed)")
    p.add_argument("--tier", choices=["smoke", "table1", "stress"],
                   default="smoke",
                   help="size tier for --profile (default: smoke)")
    p.add_argument("--structure", default=None,
                   help="serve a structure file instead of a profile "
                        "(.json or edge list)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes over the shared segment (default: 2)")
    p.add_argument("--landmarks", type=int, default=None,
                   help="ALT landmarks (default: the tier's query-mix "
                        "count, or 8 for --structure)")
    p.add_argument("--strategy", choices=["far", "degree"], default="far",
                   help="landmark selection strategy (default: far-sampling)")
    p.add_argument("--seed", type=int, default=None,
                   help="oracle seed (default: the profile's seed, or 0)")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="per-worker LRU result-cache capacity (default: 4096)")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP bind port; 0 picks an ephemeral port, "
                        "reported on the READY line (default: 0)")
    p.add_argument("--unix", metavar="PATH", default=None,
                   help="serve a unix-domain socket at PATH instead of TCP")
    p.add_argument("--warm", type=int, default=0, metavar="N",
                   help="seeded warm-up queries per worker before ready "
                        "(default: 0)")
    p.add_argument("--max-frame", type=int, default=1 << 20,
                   help="largest accepted/emitted frame body in bytes "
                        "(default: 1 MiB)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="closed/open-loop load generator against the serving daemon "
             "(repro.harness.loadgen); writes a schema-v6 'load' report",
    )
    p.add_argument("--profile", required=True,
                   help="harness profile whose structure and seeded query "
                        "mix drive the load")
    p.add_argument("--tier", choices=["smoke", "table1", "stress"],
                   default="smoke",
                   help="size tier (default: smoke)")
    p.add_argument("--mode", choices=["closed", "open"], default="closed",
                   help="closed loop (fixed concurrency) or open loop "
                        "(seeded arrival schedule) (default: closed)")
    p.add_argument("--concurrency", default="1,2,4", metavar="K[,K...]",
                   help="closed-loop concurrency levels (default: 1,2,4)")
    p.add_argument("--rate", default="100", metavar="QPS[,QPS...]",
                   help="open-loop offered rates in requests/s (default: 100)")
    p.add_argument("--arrivals", choices=["poisson", "bursty"],
                   default="poisson",
                   help="open-loop arrival process (default: poisson)")
    p.add_argument("--duration", type=float, default=5.0, metavar="S",
                   help="open-loop schedule horizon in seconds (default: 5)")
    p.add_argument("--repeats", type=int, default=1, metavar="R",
                   help="closed-loop passes over the query mix (default: 1)")
    p.add_argument("--clients", type=int, default=8, metavar="N",
                   help="open-loop connection pool size (default: 8)")
    p.add_argument("--connect", metavar="ADDR", default=None,
                   help="drive an already-running daemon at host:port or "
                        "unix:/path instead of launching one")
    p.add_argument("--workers", type=int, default=2,
                   help="workers of the self-launched daemon (default: 2; "
                        "ignored with --connect)")
    p.add_argument("--warm", type=int, default=0, metavar="N",
                   help="warm-up queries per worker of the self-launched "
                        "daemon (default: 0)")
    p.add_argument("--out", help="write the JSON load report here")
    p.add_argument("--compare", metavar="BASELINE",
                   help="diff this run against a prior load report; "
                        "gate on regressions")
    p.add_argument("--tolerance", type=float, default=0.5,
                   help="relative latency/qps tolerance for the gate "
                        "(default 0.5)")
    p.add_argument("--tag", default=None,
                   help="free-form tag stamped into the report")
    p.set_defaults(fn=cmd_loadgen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
