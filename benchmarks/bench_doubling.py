"""§7 doubling-spanner speedup evidence: seconds and call counts per phase.

Times ``doubling_spanner(..., net_method="greedy")`` on the
``doubling-geometric`` and ``doubling-grid`` harness profiles at the
smoke and stress tiers, split into the construction's phases:

* **nets** — time inside ``greedy_net`` (one call per scale), with the
  shortest-path searches it starts;
* **explorations** — time inside ``bounded_approx_spt`` and
  ``BoundedSPT.resume``, with the weight roundings behind them: one
  ``bounded_approx_spt`` call per search run on the sides before the
  searches were resumed, and on the change one per search started plus
  one resume per net-point visit at every later scale;
* **path walk and the rest** — the remaining construction time: the
  per-scale loop that walks each reported path into the spanner
  (``walks`` counts the net-point visits that walk, ``path_steps`` the
  ``WeightedGraph.has_edge`` calls, one per step walked), the
  participation count, the BFS tree and the MST.

``exploration_calls`` counts the ``bounded_approx_spt`` calls: the
searches run on the older sides, the searches started on the change;
``resumes`` counts ``BoundedSPT.resume`` calls (none before the
change).
``peak_mb`` is the construction's tracemalloc peak, measured in a
separate untimed run, because each net point's search stays alive
across scales.  The change side also builds
``random_geometric_graph(720, seed=21)`` at ε = 0.08 with greedy nets
(:data:`LARGE`), reporting seconds and the tracemalloc peak.

Five sides run this same script in child processes, each child one run
of every case, and the sides take turns for :data:`RUNS` rounds, so a
slow spell of the shared machine lands on every side alike; each side
reports its fastest run.  The sides: the baseline on a ``git archive``
export of :data:`BASELINE_COMMIT` (the commit before the §7 hot-path
rewrite), the parent on an export of :data:`PARENT_COMMIT` (the commit
before explorations read each row in ascending weight), the previous
side on an export of :data:`PREVIOUS_COMMIT` (the last commit whose
explorations chose paths on rounded weights but pruned them on true
ones), the re-run side on an export of :data:`RERUN_COMMIT` (one-label
searches, re-run from scratch once the radius reached their clip), and
the change on the checkout this script sits in.  The three oldest sides
run the two-label search, whose output differs on purpose, so their
digests are recorded, not gated.  The gate: every case's edge,
insertion-order and ledger digests equal the re-run side's, the stress
tier clears :data:`REQUIRED_SPEEDUP` over the baseline and
:data:`REQUIRED_PARENT_SPEEDUP` over the parent, and :data:`LARGE`
takes under :data:`LARGE_SECONDS`.  The files written:

* ``benchmarks/BENCH_doubling_speedup.txt`` — the human-readable table;
* ``benchmarks/BENCH_doubling_speedup.json`` — the record CI's
  ``bench-smoke`` job gates on.

Run modes::

    python benchmarks/bench_doubling.py --run    # measure + rewrite both files
    python benchmarks/bench_doubling.py --check  # validate the committed JSON

Not a pytest file on purpose: the baseline's stress tier alone takes
about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from evidence import (
    counted_calls, exported_src, machine, measure_side, timed_phases, wrapped,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TXT_PATH = HERE / "BENCH_doubling_speedup.txt"
JSON_PATH = HERE / "BENCH_doubling_speedup.json"

#: the commit before the §7 hot-path rewrite
BASELINE_COMMIT = "529f358"
#: the commit before explorations read each row in ascending weight
PARENT_COMMIT = "11a55a2"
#: the last commit whose explorations pruned on true weights (reported)
PREVIOUS_COMMIT = "6e4cb37"
#: one-label searches re-run past their clip: the output the change
#: must reproduce byte for byte
RERUN_COMMIT = "ef1fdf9"
#: (profile, tier) cases every side runs
CASES: List[Tuple[str, str]] = [
    ("doubling-geometric", "smoke"), ("doubling-grid", "smoke"),
    ("doubling-geometric", "stress"), ("doubling-grid", "stress"),
]
#: the case only the change side runs: n, the generator seed and ε
LARGE = (720, 21, 0.08)
LARGE_CASE = "random-geometric-720"
#: its acceptance bar, wall seconds
LARGE_SECONDS = 10.0
#: turns: every side runs every case once per turn
RUNS = 3
#: stress-tier acceptance bars: baseline seconds / change seconds
REQUIRED_SPEEDUP = {"doubling-geometric": 4.0, "doubling-grid": 2.0}
#: stress-tier acceptance bars: parent seconds / change seconds
REQUIRED_PARENT_SPEEDUP = {"doubling-geometric": 1.25, "doubling-grid": 1.2}
#: the sides of every case, oldest first, and the commits they export
SIDES = ("baseline", "parent", "previous", "rerun", "change")
COMMITS = {"baseline": BASELINE_COMMIT, "parent": PARENT_COMMIT,
           "previous": PREVIOUS_COMMIT, "rerun": RERUN_COMMIT}

PHASES = ("nets", "explorations", "path_walk_and_rest", "total")
#: (module, attribute, phase): the functions timed, wrapped under the
#: names their caller bound
TIMED: List[Tuple[str, str, str]] = [
    ("repro.core.doubling_spanner", "greedy_net", "nets"),
    ("repro.core.doubling_spanner", "bounded_approx_spt", "explorations"),
    ("repro.spt.approx_spt", "BoundedSPT.resume", "explorations"),
]
#: (module, attribute, counter): the functions counted.  A name absent
#: on one side counts nothing there: the rewrite changed what the nets
#: search with and where the rounding rule lives.
COUNTED: List[Tuple[str, str, str]] = [
    ("repro.core.doubling_spanner", "greedy_net", "net_calls"),
    ("repro.core.nets", "dijkstra", "net_searches"),
    ("repro.core.nets", "bounded_dijkstra", "net_searches"),
    ("repro.core.nets", "sssp", "net_searches"),
    ("repro.core.doubling_spanner", "bounded_approx_spt", "exploration_calls"),
    ("repro.spt.approx_spt", "BoundedSPT.resume", "resumes"),
    ("repro.spt.approx_spt", "_round_up_weight", "weight_roundings"),
    ("repro.graphs.csr", "round_up_weight", "weight_roundings"),
    ("repro.core.doubling_spanner", "_walk", "walks"),
    ("repro.graphs.weighted_graph", "WeightedGraph.has_edge", "path_steps"),
]
#: (module, attribute, counter): the functions that round a whole weight
#: column in one call, each call counted as the number of weights it
#: rounds, so ``weight_roundings`` counts weights on every side
COUNTED_PER_WEIGHT: List[Tuple[str, str, str]] = [
    ("repro.graphs.csr", "round_up_weights", "weight_roundings"),
]
REQUIRED_JSON_KEYS = {
    "baseline_commit", "parent_commit", "previous_commit", "rerun_commit",
    "machine", "cases", "runs", "required_speedup", "required_parent_speedup",
    "large_seconds",
}


def _case(profile_name: str, tier: str) -> Tuple[Callable[[], Any], Callable[[Any], Any]]:
    """A fresh-input factory and the construction, for one case."""
    from repro.core import doubling_spanner
    from repro.harness import get_profile

    profile = get_profile(profile_name)
    params = profile.algo_params(tier)

    def construct(graph: Any) -> Any:
        return doubling_spanner(graph, params["eps"], random.Random(profile.seed),
                                net_method=params["net_method"])

    return lambda: profile.build_graph(tier), construct


def _large_case() -> Tuple[Callable[[], Any], Callable[[Any], Any]]:
    """:data:`LARGE`'s fresh-input factory and construction."""
    from repro.core import doubling_spanner
    from repro.graphs import random_geometric_graph

    n, seed, eps = LARGE

    def construct(graph: Any) -> Any:
        return doubling_spanner(graph, eps, random.Random(seed), net_method="greedy")

    return lambda: random_geometric_graph(n, seed=seed), construct


def _timed_run(make_graph: Callable[[], Any],
               construct: Callable[[Any], Any]) -> Tuple[Any, Dict[str, float]]:
    """One construction on a fresh input; wall seconds per phase."""
    spent = {phase: 0.0 for _m, _a, phase in TIMED}

    graph = make_graph()
    with timed_phases(TIMED, spent):
        t0 = time.perf_counter()
        result = construct(graph)
        total = time.perf_counter() - t0
    rest = total - spent["nets"] - spent["explorations"]
    return result, dict(spent, path_walk_and_rest=rest, total=total)


def _counted_run(make_graph: Callable[[], Any],
                 construct: Callable[[Any], Any]) -> Dict[str, int]:
    """One untimed construction on a fresh input; calls per counter."""
    counts = {key: 0 for _m, _a, key in COUNTED}

    def per_weight(fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        def counted(weights: Any, eps: float) -> Any:
            counts[key] += len(weights)
            return fn(weights, eps)
        return counted

    graph = make_graph()
    with counted_calls(COUNTED, counts), wrapped(COUNTED_PER_WEIGHT, per_weight):
        result = construct(graph)
    if not hasattr(importlib.import_module("repro.core.doubling_spanner"), "_walk"):
        # before walks were carried across scales, every net-point visit walked
        counts["walks"] = sum(s.net_size for s in result.scales)
    return counts


def _peak_run(make_graph: Callable[[], Any],
              construct: Callable[[Any], Any]) -> float:
    """One untimed construction on a fresh input; its tracemalloc peak, MB."""
    graph = make_graph()
    tracemalloc.start()
    try:
        construct(graph)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()


def _digests(result: Any) -> Dict[str, str]:
    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    lines = [f"{u!r} {v!r} {w!r}\n" for u, v, w in result.spanner.edges()]
    return {
        "edges": sha256("".join(sorted(lines))),
        "ordered_edges": sha256("".join(lines)),
        "ledger": sha256(json.dumps(result.ledger.by_phase(), sort_keys=True)),
    }


def _record(make_graph: Callable[[], Any], construct: Callable[[Any], Any],
            counted: bool = True) -> Dict[str, Any]:
    """One timed run of a case, its peak and, if ``counted``, its calls."""
    result, seconds = _timed_run(make_graph, construct)
    record = {
        "n": result.spanner.n,
        "scales": len(result.scales),
        "spanner_edges": result.spanner.m,
        "seconds": {p: round(seconds[p], 4) for p in PHASES},
        "peak_mb": _peak_run(make_graph, construct),
        "digests": _digests(result),
    }
    if counted:
        record["counts"] = _counted_run(make_graph, construct)
    return record


def measure() -> int:
    """Child side: one run of every case with the ``repro`` on the path,
    and :data:`LARGE` when that ``repro`` is this checkout's."""
    import repro

    _timed_run(*_case(*CASES[0]))  # warm-up: imports, first-call set-up
    cases = {f"{p}/{t}": _record(*_case(p, t)) for p, t in CASES}
    if Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        cases[LARGE_CASE] = _record(*_large_case(), counted=False)
    print(json.dumps({"source": repro.__file__, "cases": cases}))
    return 0


def _fastest(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One side's cases from its runs: per case the fastest run, every
    run's total, the smallest peak and the digests, which must agree
    across runs (``"unstable"`` otherwise)."""
    merged: Dict[str, Any] = {}
    for key in runs[0]:
        records = [run[key] for run in runs]
        digests = {json.dumps(r["digests"], sort_keys=True) for r in records}
        merged[key] = dict(
            min(records, key=lambda r: r["seconds"]["total"]),
            total_runs=[r["seconds"]["total"] for r in records],
            peak_mb=min(r["peak_mb"] for r in records),
            digests=records[0]["digests"] if len(digests) == 1 else "unstable",
        )
    return merged


def _speedup(sides: Dict[str, Any], side: str) -> float:
    """``side``'s total seconds over the change's."""
    return sides[side]["seconds"]["total"] / sides["change"]["seconds"]["total"]


def _table(record: Dict[str, Any]) -> List[str]:
    machine = record["machine"]
    lines = [
        f"=== §7 doubling spanner, greedy nets: commit {record['baseline_commit']}"
        f" (baseline), commit {record['parent_commit']} (parent), commit "
        f"{record['previous_commit']} (previous) and commit "
        f"{record['rerun_commit']} (rerun) vs this change ===",
        f"{machine['cpu']}, {machine['cores']} cores, CPython "
        f"{machine['python']}; wall seconds per phase of the fastest of "
        f"{record['runs']} runs per side, the sides taking turns, on fresh inputs",
        "digests: the baseline, parent and previous sides run the two-label "
        "search (recorded, not gated); the change must equal the rerun side",
    ]
    for case, sides in record["cases"].items():
        new = sides["change"]
        if case == LARGE_CASE:
            n, seed, eps = LARGE
            lines += [
                "",
                f"--- {case}: random_geometric_graph({n}, seed={seed}), eps={eps}, "
                f"greedy nets, change side only: {new['scales']} scales, "
                f"{new['spanner_edges']} spanner edges ---",
                f"total {new['seconds']['total']:.2f} s (runs "
                f"{', '.join(f'{t:.2f}' for t in new['total_runs'])}; bar "
                f"{record['large_seconds']:.0f} s), tracemalloc peak "
                f"{new['peak_mb']:.1f} MB",
            ]
            continue
        same = {side: "equal" if sides[side]["digests"] == new["digests"] else "differ"
                for side in SIDES[:-1]}
        lines += [
            "",
            f"--- {case}: n={new['n']}, {new['scales']} scales, "
            f"{new['spanner_edges']} spanner edges; speedup "
            + ", ".join(f"{_speedup(sides, side):.2f}x over the {side}"
                        for side in SIDES[:-1])
            + "; digests vs "
            + ", ".join(f"{side} {same[side]}" for side in SIDES[:-1]) + " ---",
            f"{'phase':<22}" + "".join(f" {side + ' s':>11}" for side in SIDES),
        ]
        for phase in PHASES:
            lines.append(f"{phase:<22}" + "".join(
                f" {sides[side]['seconds'][phase]:>11.4f}" for side in SIDES))
        lines.append(f"{'calls':<22}" + "".join(f" {side:>11}" for side in SIDES))
        for key in new["counts"]:
            lines.append(f"{key:<22}" + "".join(
                f" {sides[side]['counts'][key]:>11}" for side in SIDES))
        lines.append(f"{'peak_mb (tracemalloc)':<22}" + "".join(
            f" {sides[side]['peak_mb']:>11.3f}" for side in SIDES))
    return lines


def run() -> int:
    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    with contextlib.ExitStack() as stack:
        sources = {side: stack.enter_context(exported_src(commit))
                   for side, commit in COMMITS.items()}
        sources["change"] = ROOT / "src"
        for turn in range(RUNS):
            # rotate who goes first, so no side always follows the same one
            for side in SIDES[turn % len(SIDES):] + SIDES[:turn % len(SIDES)]:
                runs[side].append(measure_side("bench_doubling", sources[side]))
    merged = {side: _fastest(runs[side]) for side in SIDES}
    record = {
        "baseline_commit": BASELINE_COMMIT,
        "parent_commit": PARENT_COMMIT,
        "previous_commit": PREVIOUS_COMMIT,
        "rerun_commit": RERUN_COMMIT,
        "machine": machine(),
        "runs": RUNS,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_parent_speedup": REQUIRED_PARENT_SPEEDUP,
        "large_seconds": LARGE_SECONDS,
        "cases": {case: {side: merged[side][case] for side in SIDES
                         if case in merged[side]}
                  for case in merged["change"]},
    }
    lines = _table(record)
    TXT_PATH.write_text("\n".join(lines) + "\n")
    JSON_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(f"\nwrote {TXT_PATH.name} and {JSON_PATH.name}")
    return check()


def check() -> int:
    """CI gate: the committed record exists, parses and clears the bars."""
    if not JSON_PATH.exists() or not TXT_PATH.exists():
        print(f"FAIL: {JSON_PATH.name} or {TXT_PATH.name} is missing "
              "(run --run and commit both)")
        return 1
    record = json.loads(JSON_PATH.read_text())
    missing = REQUIRED_JSON_KEYS - set(record)
    if missing:
        print(f"FAIL: {JSON_PATH.name} lacks keys: {sorted(missing)}")
        return 1
    for side, commit in COMMITS.items():
        if record[f"{side}_commit"] != commit:
            print(f"FAIL: committed {side}_commit {record[f'{side}_commit']} != {commit}")
            return 1
    expected = sorted([f"{p}/{t}" for p, t in CASES] + [LARGE_CASE])
    if sorted(record["cases"]) != expected:
        print(f"FAIL: cases {sorted(record['cases'])} != {expected}")
        return 1
    # gate against this script's bars, not the file's copy of them
    bars = {"baseline": REQUIRED_SPEEDUP, "parent": REQUIRED_PARENT_SPEEDUP}
    failures = []
    large = record["cases"][LARGE_CASE]
    if set(large) != {"change"}:
        failures.append(f"{LARGE_CASE}: sides {sorted(large)} != ['change']")
    elif not large["change"]["seconds"]["total"] < LARGE_SECONDS:
        failures.append(f"{LARGE_CASE}: {large['change']['seconds']['total']} s "
                        f"is not under {LARGE_SECONDS} s")
    for case, sides in sorted(record["cases"].items()):
        if case == LARGE_CASE:
            continue
        if set(sides) != set(SIDES):
            failures.append(f"{case}: sides {sorted(sides)} != {sorted(SIDES)}")
            continue
        if "unstable" in (sides["change"]["digests"], sides["rerun"]["digests"]):
            failures.append(f"{case}: digests vary from run to run")
        elif sides["change"]["digests"] != sides["rerun"]["digests"]:
            failures.append(f"{case}: digests differ from the rerun side's")
        if any(set(sides[side]["seconds"]) != set(PHASES) for side in SIDES):
            failures.append(f"{case}: per-phase seconds incomplete")
            continue
        profile, tier = case.split("/")
        if tier != "stress":
            continue
        for side, bar in bars.items():
            if _speedup(sides, side) < bar[profile]:
                failures.append(f"{case}: speedup {_speedup(sides, side):.2f}x "
                                f"over the {side} is below the "
                                f"{bar[profile]}x bar")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    stress = "; ".join(
        f"{c} {_speedup(s, 'baseline'):.1f}x / {_speedup(s, 'parent'):.1f}x"
        for c, s in sorted(record["cases"].items()) if c.endswith("/stress"))
    reported = "; ".join(
        f"{c} {_speedup(s, 'previous'):.2f}x / {_speedup(s, 'rerun'):.2f}x"
        for c, s in sorted(record["cases"].items()) if c.endswith("/stress"))
    print(f"OK: vs commits {BASELINE_COMMIT} / {PARENT_COMMIT}: {stress}; "
          f"vs commits {PREVIOUS_COMMIT} / {RERUN_COMMIT} (reported): {reported}; "
          f"digests equal commit {RERUN_COMMIT}'s on all {len(CASES)} cases; "
          f"{LARGE_CASE} {large['change']['seconds']['total']:.2f} s, "
          f"peak {large['change']['peak_mb']:.1f} MB")
    return 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", action="store_true",
                      help="measure every side and rewrite the evidence files")
    mode.add_argument("--check", action="store_true",
                      help="validate the committed evidence (the CI gate)")
    args = parser.parse_args(argv)
    return run() if args.run else check()


if __name__ == "__main__":
    sys.exit(main())
