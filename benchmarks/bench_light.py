"""§5 light spanner and §4 SLT speedup evidence: seconds per phase at three sizes.

Times ``light_spanner(k=3, ε=0.25)`` and ``shallow_light_tree(α=5)`` on
``erdos_renyi_graph(n, 10/n)`` for n ∈ :data:`SIZES`, split into the
constructions' phases:

* **bfs_tree** — ``build_bfs_tree``, the simulated CONGEST BFS;
* **kruskal** — ``kruskal_mst``;
* **fragments_and_tour** — ``decompose_fragments`` and
  ``compute_euler_tour``, whose staged tour charges the largest
  base-fragment hop diameter;
* **baswana_sen** and **elkin_neiman** (light spanner) — the E′ bucket's
  spanner and the per-bucket cluster-graph spanners;
* **approx_spt** (SLT) — the two approximate shortest-path trees;
* **rest** — the remaining construction time: the light spanner's bucket
  loop (clustering, cluster graphs and their round charges), the SLT's
  break points and its ``abp-local`` charge.

A least-squares fit of log(total seconds) against log(n + m) over the
three sizes gives each construction's scaling slope.

Three sides run this same script in a child process, on a fresh copy of
each input per run: the baseline on a ``git archive`` export of
:data:`BASELINE_COMMIT` (the commit before the round charges went
linear), the parent on an export of :data:`PARENT_COMMIT` (the commit
before Kruskal ran over index arrays once per frozen graph, the SPTs
relaxed the cached rounded column and Elkin–Neiman skipped clusters
without a neighbour), and the change on the checkout this script sits
in.  Every case's edge and ledger digests must be equal on all three
sides, the light spanner must clear :data:`REQUIRED_SPEEDUP` over the
baseline at the largest size and its change-side slope must stay at or
below :data:`MAX_SLOPE`, and the SLT must clear
:data:`REQUIRED_PARENT_SPEEDUP` over the parent at the largest size.
The files written:

* ``benchmarks/BENCH_light_speedup.txt`` — the human-readable table;
* ``benchmarks/BENCH_light_speedup.json`` — the record CI's
  ``bench-smoke`` job gates on.

Run modes::

    python benchmarks/bench_light.py --run    # measure + rewrite both files
    python benchmarks/bench_light.py --check  # validate the committed JSON

Not a pytest file on purpose: the baseline's largest light spanner alone
takes several seconds per run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from evidence import machine, measure_baseline, measure_side, timed_phases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TXT_PATH = HERE / "BENCH_light_speedup.txt"
JSON_PATH = HERE / "BENCH_light_speedup.json"

#: the commit before the linear-time round charges
BASELINE_COMMIT = "03979ab"
#: the commit before the §4/§5 building blocks did each piece of work once
PARENT_COMMIT = "dd2fd5a"
#: input sizes n of ER(n, 10/n); timed runs per size.  The fastest run
#: is reported: a shared machine's speed can drift by 2x within seconds,
#: and the fastest run is the one a slow spell disturbed least.
SIZES = (1000, 2000, 4000)
RUNS = 5
#: light-spanner acceptance bars: baseline / change seconds at the
#: largest size, and the change side's log-log slope in n + m
REQUIRED_SPEEDUP = 5.0
MAX_SLOPE = 1.4
#: SLT acceptance bar: parent / change seconds at the largest size
REQUIRED_PARENT_SPEEDUP = 1.2
#: the sides of every case, oldest first
SIDES = ("baseline", "parent", "change")

CONSTRUCTIONS = ("light_spanner", "slt")
#: construction -> (module, attribute, phase) of the functions timed,
#: wrapped under the names the construction's module bound
TIMED: Dict[str, List[Tuple[str, str, str]]] = {
    "light_spanner": [
        ("repro.core.light_spanner", "build_bfs_tree", "bfs_tree"),
        ("repro.core.light_spanner", "kruskal_mst", "kruskal"),
        ("repro.core.light_spanner", "decompose_fragments", "fragments_and_tour"),
        ("repro.core.light_spanner", "compute_euler_tour", "fragments_and_tour"),
        ("repro.core.light_spanner", "baswana_sen_spanner", "baswana_sen"),
        ("repro.core.light_spanner", "elkin_neiman_spanner", "elkin_neiman"),
    ],
    "slt": [
        ("repro.core.slt", "build_bfs_tree", "bfs_tree"),
        ("repro.core.slt", "kruskal_mst", "kruskal"),
        ("repro.core.slt", "decompose_fragments", "fragments_and_tour"),
        ("repro.core.slt", "compute_euler_tour", "fragments_and_tour"),
        ("repro.core.slt", "approx_spt", "approx_spt"),
    ],
}
PHASES = {
    "light_spanner": ("bfs_tree", "kruskal", "fragments_and_tour", "baswana_sen",
                      "elkin_neiman", "rest", "total"),
    "slt": ("bfs_tree", "kruskal", "fragments_and_tour", "approx_spt", "rest", "total"),
}
REQUIRED_JSON_KEYS = {
    "baseline_commit", "parent_commit", "machine", "cases", "runs",
    "required_speedup", "required_parent_speedup", "max_slope",
}


def _input(n: int) -> Any:
    from repro.graphs import erdos_renyi_graph

    return erdos_renyi_graph(n, 10.0 / n, seed=n)


def _construct(name: str, graph: Any, n: int) -> Tuple[Any, Any]:
    """The construction's output graph and its round ledger."""
    from repro.core import light_spanner, shallow_light_tree

    if name == "light_spanner":
        spanner = light_spanner(graph, 3, 0.25, random.Random(n))
        return spanner.spanner, spanner.ledger
    slt = shallow_light_tree(graph, min(graph.vertices(), key=repr), 5.0)
    return slt.tree, slt.ledger


def _timed_run(name: str, graph: Any, n: int) -> Tuple[Any, Dict[str, float]]:
    """One construction on a fresh copy of ``graph``: its output and
    ledger, and wall seconds per phase."""
    spent = {phase: 0.0 for phase in PHASES[name]}

    fresh = graph.copy()  # no CSR view cached by an earlier run
    with timed_phases(TIMED[name], spent):
        t0 = time.perf_counter()
        result = _construct(name, fresh, n)
        spent["total"] = time.perf_counter() - t0
    spent["rest"] = spent["total"] - sum(
        spent[p] for p in PHASES[name] if p not in ("rest", "total"))
    return result, spent


def _digests(graph: Any, ledger: Any) -> Dict[str, str]:
    lines = sorted(f"{u!r} {v!r} {w!r}\n" for u, v, w in graph.edges())
    phases = json.dumps(ledger.by_phase(), sort_keys=True)
    return {
        "edges": hashlib.sha256("".join(lines).encode()).hexdigest(),
        "ledger": hashlib.sha256(phases.encode()).hexdigest(),
    }


def measure() -> int:
    """Child side: measure every size with the ``repro`` on the path."""
    import repro

    small = _input(200)
    for name in CONSTRUCTIONS:  # warm-up: imports, first-call set-up
        _timed_run(name, small, 200)
    cases = {}
    for n in SIZES:
        graph = _input(n)
        case: Dict[str, Any] = {"n": graph.n, "m": graph.m}
        for name in CONSTRUCTIONS:
            runs = [_timed_run(name, graph, n) for _ in range(RUNS)]
            output, fastest = min(runs, key=lambda run: run[1]["total"])
            case[name] = {
                "seconds": {p: round(fastest[p], 4) for p in PHASES[name]},
                "total_runs": [round(s["total"], 4) for _r, s in runs],
                "digests": _digests(*output),
            }
        cases[f"n={n}"] = case
    print(json.dumps({"source": repro.__file__, "cases": cases}))
    return 0


def _slope(cases: Dict[str, Any], side: str, name: str) -> float:
    """Least-squares slope of log(total seconds) against log(n + m)."""
    points = [(math.log(c[side]["n"] + c[side]["m"]),
               math.log(c[side][name]["seconds"]["total"])) for c in cases.values()]
    mx = statistics.fmean(x for x, _y in points)
    my = statistics.fmean(y for _x, y in points)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _y in points))


def _speedup(case: Dict[str, Any], name: str, side: str = "baseline") -> float:
    """``side``'s total seconds over the change's."""
    return (case[side][name]["seconds"]["total"]
            / case["change"][name]["seconds"]["total"])


def _table(record: Dict[str, Any]) -> List[str]:
    machine_info, cases = record["machine"], record["cases"]
    lines = [
        f"=== §5 light spanner and §4 SLT on ER(n, 10/n): commit "
        f"{record['baseline_commit']} (baseline) and commit "
        f"{record['parent_commit']} (parent) vs this change ===",
        f"{machine_info['cpu']}, {machine_info['cores']} cores, CPython "
        f"{machine_info['python']}; wall seconds per phase of the fastest of "
        f"{record['runs']} runs on fresh copies of each input",
    ]
    for name in CONSTRUCTIONS:
        slopes = ", ".join(f"{side} {_slope(cases, side, name):.2f}" for side in SIDES)
        lines += ["", f"--- {name}: log-log slope of seconds in n+m: {slopes} ---"]
        for key, case in cases.items():
            sides = [case[side][name] for side in SIDES]
            same = ("equal" if all(s["digests"] == sides[-1]["digests"] for s in sides)
                    else "DIFFER")
            lines += [
                f"{key}, m={case['change']['m']}: speedup "
                f"{_speedup(case, name):.2f}x over the baseline, "
                f"{_speedup(case, name, 'parent'):.2f}x over the parent; "
                f"edge and ledger digests {same}",
                f"  {'phase':<20} {'baseline s':>11} {'parent s':>10} {'change s':>10}"
                f" {'vs base':>8} {'vs parent':>10}",
            ]
            for phase in PHASES[name]:
                b, p, c = (s["seconds"][phase] for s in sides)
                ratios = (f"{b / c:.1f}x", f"{p / c:.1f}x") if c > 0 else ("-", "-")
                lines.append(f"  {phase:<20} {b:>11.4f} {p:>10.4f} {c:>10.4f}"
                             f" {ratios[0]:>8} {ratios[1]:>10}")
    return lines


def run() -> int:
    base = measure_baseline("bench_light", BASELINE_COMMIT)
    parent = measure_baseline("bench_light", PARENT_COMMIT)
    new = measure_side("bench_light", ROOT / "src")
    record = {
        "baseline_commit": BASELINE_COMMIT,
        "parent_commit": PARENT_COMMIT,
        "machine": machine(),
        "runs": RUNS,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_parent_speedup": REQUIRED_PARENT_SPEEDUP,
        "max_slope": MAX_SLOPE,
        "cases": {key: {"baseline": base[key], "parent": parent[key],
                        "change": new[key]}
                  for key in base},
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
                        ("parent_commit", PARENT_COMMIT)):
        if record[key] != commit:
            print(f"FAIL: committed {key} {record[key]} != {commit}")
            return 1
    cases = record["cases"]
    expected = [f"n={n}" for n in SIZES]
    if sorted(cases) != sorted(expected):
        print(f"FAIL: cases {sorted(cases)} != {sorted(expected)}")
        return 1
    failures = []
    for key in expected:
        if set(cases[key]) != set(SIDES):
            failures.append(f"{key}: sides {sorted(cases[key])} != {sorted(SIDES)}")
            continue
        for name in CONSTRUCTIONS:
            new = cases[key]["change"][name]
            for side in ("baseline", "parent"):
                if cases[key][side][name]["digests"] != new["digests"]:
                    failures.append(f"{key} {name}: edge or ledger digests differ "
                                    f"from the {side}'s")
            if any(set(cases[key][side][name]["seconds"]) != set(PHASES[name])
                   for side in SIDES):
                failures.append(f"{key} {name}: per-phase seconds incomplete")
    # gate against this script's bars, not the file's copy of them
    largest = expected[-1]
    if not failures:
        speedup = _speedup(cases[largest], "light_spanner")
        slope = _slope(cases, "change", "light_spanner")
        if speedup < REQUIRED_SPEEDUP:
            failures.append(f"light_spanner at {largest}: speedup {speedup:.2f}x "
                            f"is below the {REQUIRED_SPEEDUP}x bar")
        if slope > MAX_SLOPE:
            failures.append(f"light_spanner: change-side slope {slope:.2f} is "
                            f"above {MAX_SLOPE}")
        slt_parent = _speedup(cases[largest], "slt", "parent")
        if slt_parent < REQUIRED_PARENT_SPEEDUP:
            failures.append(f"slt at {largest}: speedup {slt_parent:.2f}x over the "
                            f"parent is below the {REQUIRED_PARENT_SPEEDUP}x bar")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: vs commit {BASELINE_COMMIT}: light_spanner {speedup:.1f}x at "
          f"{largest}, slope {_slope(cases, 'baseline', 'light_spanner'):.2f} -> "
          f"{slope:.2f}; slt {_speedup(cases[largest], 'slt'):.1f}x; vs commit "
          f"{PARENT_COMMIT}: light_spanner "
          f"{_speedup(cases[largest], 'light_spanner', 'parent'):.2f}x, slt "
          f"{slt_parent:.2f}x; digests equal on all {len(expected)} sizes")
    return 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", action="store_true",
                      help="measure both sides and rewrite the evidence files")
    mode.add_argument("--check", action="store_true",
                      help="validate the committed evidence (the CI gate)")
    args = parser.parse_args(argv)
    return run() if args.run else check()


if __name__ == "__main__":
    sys.exit(main())
