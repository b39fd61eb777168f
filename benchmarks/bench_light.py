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

Both sides run this same script in a child process, on a fresh copy of
each input per run: the baseline on a ``git archive`` export of
:data:`BASELINE_COMMIT` (the commit before the round charges went
linear), the change on the checkout this script sits in.  Every case's
edge and ledger digests must be equal on both sides, the light spanner
must clear :data:`REQUIRED_SPEEDUP` at the largest size and its
change-side slope must stay at or below :data:`MAX_SLOPE`.  The files
written:

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
#: input sizes n of ER(n, 10/n); timed runs per size.  The fastest run
#: is reported: a shared machine's speed can drift by 2x within seconds,
#: and the fastest run is the one a slow spell disturbed least.
SIZES = (1000, 2000, 4000)
RUNS = 5
#: light-spanner acceptance bars: baseline / change seconds at the
#: largest size, and the change side's log-log slope in n + m
REQUIRED_SPEEDUP = 5.0
MAX_SLOPE = 1.4

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
    "baseline_commit", "machine", "cases", "runs", "required_speedup", "max_slope",
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


def _speedup(case: Dict[str, Any], name: str) -> float:
    return (case["baseline"][name]["seconds"]["total"]
            / case["change"][name]["seconds"]["total"])


def _table(record: Dict[str, Any]) -> List[str]:
    machine_info, cases = record["machine"], record["cases"]
    lines = [
        f"=== §5 light spanner and §4 SLT on ER(n, 10/n): commit "
        f"{record['baseline_commit']} (baseline) vs this change ===",
        f"{machine_info['cpu']}, {machine_info['cores']} cores, CPython "
        f"{machine_info['python']}; wall seconds per phase of the fastest of "
        f"{record['runs']} runs on fresh copies of each input",
    ]
    for name in CONSTRUCTIONS:
        lines += ["", f"--- {name}: log-log slope of seconds in n+m: baseline "
                      f"{_slope(cases, 'baseline', name):.2f}, change "
                      f"{_slope(cases, 'change', name):.2f} ---"]
        for key, case in cases.items():
            base, new = case["baseline"][name], case["change"][name]
            same = "equal" if base["digests"] == new["digests"] else "DIFFER"
            lines += [
                f"{key}, m={case['change']['m']}: speedup "
                f"{_speedup(case, name):.2f}x; edge and ledger digests {same}",
                f"  {'phase':<20} {'baseline s':>11} {'change s':>10} {'ratio':>8}",
            ]
            for phase in PHASES[name]:
                b, c = base["seconds"][phase], new["seconds"][phase]
                ratio = f"{b / c:.1f}x" if c > 0 else "-"
                lines.append(f"  {phase:<20} {b:>11.4f} {c:>10.4f} {ratio:>8}")
    return lines


def run() -> int:
    base = measure_baseline("bench_light", BASELINE_COMMIT)
    new = measure_side("bench_light", ROOT / "src")
    record = {
        "baseline_commit": BASELINE_COMMIT,
        "machine": machine(),
        "runs": RUNS,
        "required_speedup": REQUIRED_SPEEDUP,
        "max_slope": MAX_SLOPE,
        "cases": {key: {"baseline": base[key], "change": new[key]} for key in base},
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
    if record["baseline_commit"] != BASELINE_COMMIT:
        print(f"FAIL: committed baseline {record['baseline_commit']} "
              f"!= {BASELINE_COMMIT}")
        return 1
    cases = record["cases"]
    expected = [f"n={n}" for n in SIZES]
    if sorted(cases) != sorted(expected):
        print(f"FAIL: cases {sorted(cases)} != {sorted(expected)}")
        return 1
    failures = []
    for key in expected:
        for name in CONSTRUCTIONS:
            sides = [cases[key][side][name] for side in ("baseline", "change")]
            if sides[0]["digests"] != sides[1]["digests"]:
                failures.append(f"{key} {name}: edge or ledger digests differ")
            if any(set(s["seconds"]) != set(PHASES[name]) for s in sides):
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
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: vs commit {BASELINE_COMMIT}: light_spanner {speedup:.1f}x at "
          f"{largest}, slope {_slope(cases, 'baseline', 'light_spanner'):.2f} -> "
          f"{slope:.2f}; slt {_speedup(cases[largest], 'slt'):.1f}x; digests equal "
          f"on all {len(expected)} sizes")
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
