"""§7 doubling-spanner speedup evidence: seconds and call counts per phase.

Times ``doubling_spanner(..., net_method="greedy")`` on the
``doubling-geometric`` and ``doubling-grid`` harness profiles at the
smoke and stress tiers, split into the construction's phases:

* **nets** — time inside ``greedy_net`` (one call per scale), with the
  shortest-path searches it starts;
* **explorations** — time inside ``bounded_approx_spt`` (one call per
  net point per scale), with the weight roundings behind it;
* **path walk and the rest** — the remaining construction time: the
  per-scale loop that walks each reported path into the spanner
  (``walks`` counts the net-point visits that walk, ``path_steps`` the
  ``WeightedGraph.has_edge`` calls, one per step walked), the
  participation count, the BFS tree and the MST.

``exploration_calls`` counts the searches that actually run: since
explorations are reused across scales, fewer than one per net point per
scale.  ``peak_mb`` is the construction's tracemalloc peak, measured in
a separate untimed run, because the reuse keeps each net point's last
tree alive.

Four sides run this same script in a child process, on a fresh input
graph per run: the baseline on a ``git archive`` export of
:data:`BASELINE_COMMIT` (the commit before the §7 hot-path rewrite),
the parent on an export of :data:`PARENT_COMMIT` (the commit before
explorations read each row in ascending weight and stopped at the
radius), the previous side on an export of :data:`PREVIOUS_COMMIT` (the
commit before walks and participation were carried across scales and
greedy nets ran on dense indices), and the change on the checkout this
script sits in.  Every case's edge, insertion-order and ledger digests
must be equal on all four sides, and the stress tier must clear
:data:`REQUIRED_SPEEDUP` over the baseline and
:data:`REQUIRED_PARENT_SPEEDUP` over the parent; the previous side is
reported, not gated.  The files written:

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
import hashlib
import importlib
import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from evidence import (
    counted_calls, machine, measure_baseline, measure_side, timed_phases, wrapped,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TXT_PATH = HERE / "BENCH_doubling_speedup.txt"
JSON_PATH = HERE / "BENCH_doubling_speedup.json"

#: the commit before the §7 hot-path rewrite
BASELINE_COMMIT = "529f358"
#: the commit before explorations read each row in ascending weight
PARENT_COMMIT = "11a55a2"
#: the commit before walks and participation were carried across scales
PREVIOUS_COMMIT = "0aba68a"
#: (profile, tier) cases; timed runs per tier (each side reports medians)
CASES: List[Tuple[str, str]] = [
    ("doubling-geometric", "smoke"), ("doubling-grid", "smoke"),
    ("doubling-geometric", "stress"), ("doubling-grid", "stress"),
]
RUNS = {"smoke": 5, "stress": 3}
#: stress-tier acceptance bars: baseline seconds / change seconds
REQUIRED_SPEEDUP = {"doubling-geometric": 4.0, "doubling-grid": 2.0}
#: stress-tier acceptance bars: parent seconds / change seconds
REQUIRED_PARENT_SPEEDUP = {"doubling-geometric": 1.25, "doubling-grid": 1.2}
#: the sides of every case, oldest first
SIDES = ("baseline", "parent", "previous", "change")

PHASES = ("nets", "explorations", "path_walk_and_rest", "total")
#: (module, attribute, phase): the functions timed, wrapped under the
#: names their caller bound
TIMED: List[Tuple[str, str, str]] = [
    ("repro.core.doubling_spanner", "greedy_net", "nets"),
    ("repro.core.doubling_spanner", "bounded_approx_spt", "explorations"),
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
    "baseline_commit", "parent_commit", "previous_commit", "machine", "cases",
    "runs", "required_speedup", "required_parent_speedup",
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


def measure() -> int:
    """Child side: measure every case with the ``repro`` on the path."""
    import repro

    _timed_run(*_case(*CASES[0]))  # warm-up: imports, first-call set-up
    cases = {}
    for profile_name, tier in CASES:
        make_graph, construct = _case(profile_name, tier)
        runs = [_timed_run(make_graph, construct) for _ in range(RUNS[tier])]
        result = runs[0][0]
        cases[f"{profile_name}/{tier}"] = {
            "n": result.spanner.n,
            "scales": len(result.scales),
            "spanner_edges": result.spanner.m,
            "seconds": {p: round(statistics.median(s[p] for _r, s in runs), 4)
                        for p in PHASES},
            "total_runs": [round(s["total"], 4) for _r, s in runs],
            "counts": _counted_run(make_graph, construct),
            "peak_mb": _peak_run(make_graph, construct),
            "digests": _digests(result),
        }
    print(json.dumps({"source": repro.__file__, "cases": cases}))
    return 0


def _speedup(sides: Dict[str, Any], side: str) -> float:
    """``side``'s total seconds over the change's."""
    return sides[side]["seconds"]["total"] / sides["change"]["seconds"]["total"]


def _table(record: Dict[str, Any]) -> List[str]:
    machine = record["machine"]
    lines = [
        f"=== §7 doubling spanner, greedy nets: commit {record['baseline_commit']}"
        f" (baseline), commit {record['parent_commit']} (parent) and commit "
        f"{record['previous_commit']} (previous) vs this change ===",
        f"{machine['cpu']}, {machine['cores']} cores, CPython "
        f"{machine['python']}; wall seconds, per-phase medians of "
        f"{RUNS['smoke']} (smoke) / {RUNS['stress']} (stress) runs on fresh inputs",
    ]
    for case, sides in record["cases"].items():
        new = sides["change"]
        same = ("equal" if all(sides[side]["digests"] == new["digests"]
                               for side in SIDES) else "DIFFER")
        lines += [
            "",
            f"--- {case}: n={new['n']}, {new['scales']} scales, "
            f"{new['spanner_edges']} spanner edges; speedup "
            f"{_speedup(sides, 'baseline'):.2f}x over the baseline, "
            f"{_speedup(sides, 'parent'):.2f}x over the parent, "
            f"{_speedup(sides, 'previous'):.2f}x over the previous side; "
            f"digests {same} ---",
            f"{'phase':<22} {'baseline s':>11} {'parent s':>10} {'prev s':>10}"
            f" {'change s':>10} {'vs base':>8} {'vs parent':>10} {'vs prev':>8}",
        ]
        for phase in PHASES:
            b, p, q, c = (sides[side]["seconds"][phase] for side in SIDES)
            ratios = ([f"{x / c:.1f}x" for x in (b, p, q)] if c > 0 else ["-"] * 3)
            lines.append(f"{phase:<22} {b:>11.4f} {p:>10.4f} {q:>10.4f} {c:>10.4f}"
                         f" {ratios[0]:>8} {ratios[1]:>10} {ratios[2]:>8}")
        lines.append(f"{'calls':<22} {'baseline':>11} {'parent':>10} {'previous':>10}"
                     f" {'change':>10}")
        for key in new["counts"]:
            b, p, q, c = (sides[side]["counts"][key] for side in SIDES)
            lines.append(f"{key:<22} {b:>11} {p:>10} {q:>10} {c:>10}")
        b, p, q, c = (sides[side]["peak_mb"] for side in SIDES)
        lines.append(f"{'peak_mb (tracemalloc)':<22} {b:>11.3f} {p:>10.3f} {q:>10.3f}"
                     f" {c:>10.3f}")
    return lines


def run() -> int:
    base = measure_baseline("bench_doubling", BASELINE_COMMIT)
    parent = measure_baseline("bench_doubling", PARENT_COMMIT)
    previous = measure_baseline("bench_doubling", PREVIOUS_COMMIT)
    new = measure_side("bench_doubling", ROOT / "src")
    record = {
        "baseline_commit": BASELINE_COMMIT,
        "parent_commit": PARENT_COMMIT,
        "previous_commit": PREVIOUS_COMMIT,
        "machine": machine(),
        "runs": RUNS,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_parent_speedup": REQUIRED_PARENT_SPEEDUP,
        "cases": {case: {"baseline": base[case], "parent": parent[case],
                         "previous": previous[case], "change": new[case]}
                  for case in base},
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
    for key, commit in (("baseline_commit", BASELINE_COMMIT),
                        ("parent_commit", PARENT_COMMIT),
                        ("previous_commit", PREVIOUS_COMMIT)):
        if record[key] != commit:
            print(f"FAIL: committed {key} {record[key]} != {commit}")
            return 1
    expected = sorted(f"{p}/{t}" for p, t in CASES)
    if sorted(record["cases"]) != expected:
        print(f"FAIL: cases {sorted(record['cases'])} != {expected}")
        return 1
    # gate against this script's bars, not the file's copy of them
    bars = {"baseline": REQUIRED_SPEEDUP, "parent": REQUIRED_PARENT_SPEEDUP}
    failures = []
    for case, sides in sorted(record["cases"].items()):
        if set(sides) != set(SIDES):
            failures.append(f"{case}: sides {sorted(sides)} != {sorted(SIDES)}")
            continue
        new = sides["change"]
        for side in SIDES[:-1]:
            if sides[side]["digests"] != new["digests"]:
                failures.append(f"{case}: digests differ from the {side}'s")
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
    previous = "; ".join(
        f"{c} {_speedup(s, 'previous'):.2f}x"
        for c, s in sorted(record["cases"].items()) if c.endswith("/stress"))
    print(f"OK: vs commits {BASELINE_COMMIT} / {PARENT_COMMIT}: {stress}; "
          f"vs commit {PREVIOUS_COMMIT} (reported): {previous}; "
          f"digests equal on all {len(expected)} cases")
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
