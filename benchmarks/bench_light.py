"""§5 light spanner and §4 SLT speedup evidence: seconds per phase at three sizes.

Times ``light_spanner(k=3, ε=0.25)`` and ``shallow_light_tree(α=5)`` on
``erdos_renyi_graph(n, 10/n)`` for n ∈ :data:`SIZES`, each on a fresh
copy of the input, and ``slt_then_spanner``: both on one fresh copy, the
SLT first, as perfbench's light-er runs them, so the spanner finds τ
and the MST already on the frozen view.  The constructions are split
into phases, each the self time of the functions named (a timed call
inside another counts in its own phase, not in its caller's):

* **freeze** — ``WeightedGraph.freeze``, the CSR view, built once per
  graph by whichever step asks first;
* **bfs_tree** — ``build_bfs_tree``, the simulated CONGEST BFS;
* **kruskal** — ``kruskal_mst``;
* **fragments_and_tour** — ``decompose_fragments`` and
  ``compute_euler_tour``, whose tour charges the largest base-fragment
  hop diameter;
* **baswana_sen** and **elkin_neiman** (light spanner) — the E′ bucket's
  spanner and the per-bucket cluster-graph spanners;
* **approx_spt** (SLT) — the two approximate shortest-path trees;
* **rest** — the remaining construction time: the light spanner's bucket
  loop (clustering, cluster graphs and their round charges), the SLT's
  break points and its ``abp-local`` charge.

A least-squares fit of log(total seconds) against log(n + m) over the
three sizes gives each construction's scaling slope.

The **building blocks** table times four pieces of work alone, each on
a fresh copy of the input: the BFS tree τ (a first call, and a second
call on the same graph, both after the graph is frozen), the Euler tour
of the MST, the ε=1 rounded column the SLT's first SPT relaxes, and the
light spanner's bucket sweep at ε=0.25.  A side without
``_bucket_sweep`` runs the one-pass sweep as commit 7a92ec3 wrote it
inline, with that side's own ``_bucket_index``.

Four sides run this same script in child processes, each child one run
of every case, and the sides take turns for :data:`RUNS` rounds: the
baseline on a ``git archive`` export of :data:`BASELINE_COMMIT` (the
commit before the round charges went linear), the parent on an export of
:data:`PARENT_COMMIT` (the commit before Kruskal ran over index arrays
once per frozen graph, the SPTs relaxed the cached rounded column and
Elkin–Neiman skipped clusters without a neighbour), the previous side on
an export of :data:`PREVIOUS_COMMIT` (the commit before each bucket's
cluster graph went to Elkin–Neiman as index rows), and the change on
the checkout this script sits in.  Every case's edge and ledger digests
must be equal on all four sides, the light spanner must clear
:data:`REQUIRED_SPEEDUP` over the baseline at the largest size and its
change-side slope must stay at or below :data:`MAX_SLOPE`, and the SLT
must clear :data:`REQUIRED_PARENT_SPEEDUP` over the parent at the
largest size.  The previous side is reported, not gated.  The files
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
import contextlib
import hashlib
import importlib
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from evidence import exported_src, machine, measure_side, timed_phases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TXT_PATH = HERE / "BENCH_light_speedup.txt"
JSON_PATH = HERE / "BENCH_light_speedup.json"

#: the commit before the linear-time round charges
BASELINE_COMMIT = "03979ab"
#: the commit before the §4/§5 building blocks did each piece of work once
PARENT_COMMIT = "dd2fd5a"
#: the commit before each bucket's cluster graph went to Elkin–Neiman as
#: index rows (reported, not gated)
PREVIOUS_COMMIT = "ede63f4"
#: input sizes n of ER(n, 10/n); timed runs per size.  The sides take
#: turns, one child process per side and run, so a slow spell lands on
#: every side alike, and the fastest run is reported: a shared machine's
#: speed can drift by 2x within seconds, and the fastest run is the one
#: a slow spell disturbed least.
SIZES = (1000, 2000, 4000)
RUNS = 5
#: light-spanner acceptance bars: baseline / change seconds at the
#: largest size, and the change side's log-log slope in n + m
REQUIRED_SPEEDUP = 5.0
MAX_SLOPE = 1.4
#: SLT acceptance bar: parent / change seconds at the largest size
REQUIRED_PARENT_SPEEDUP = 1.2
#: the sides of every case, oldest first
SIDES = ("baseline", "parent", "previous", "change")

CONSTRUCTIONS = ("light_spanner", "slt", "slt_then_spanner")
#: construction -> (module, attribute, phase) of the functions timed,
#: wrapped under the names the construction's module bound
FREEZE = ("repro.graphs.weighted_graph", "WeightedGraph.freeze", "freeze")
TIMED: Dict[str, List[Tuple[str, str, str]]] = {
    "light_spanner": [
        FREEZE,
        ("repro.core.light_spanner", "build_bfs_tree", "bfs_tree"),
        ("repro.core.light_spanner", "kruskal_mst", "kruskal"),
        ("repro.core.light_spanner", "decompose_fragments", "fragments_and_tour"),
        ("repro.core.light_spanner", "compute_euler_tour", "fragments_and_tour"),
        ("repro.core.light_spanner", "baswana_sen_spanner", "baswana_sen"),
        ("repro.core.light_spanner", "elkin_neiman_spanner", "elkin_neiman"),
    ],
    "slt": [
        FREEZE,
        ("repro.core.slt", "build_bfs_tree", "bfs_tree"),
        ("repro.core.slt", "kruskal_mst", "kruskal"),
        ("repro.core.slt", "decompose_fragments", "fragments_and_tour"),
        ("repro.core.slt", "compute_euler_tour", "fragments_and_tour"),
        ("repro.core.slt", "approx_spt", "approx_spt"),
    ],
    "slt_then_spanner": [
        FREEZE,
        ("repro.core.slt", "build_bfs_tree", "bfs_tree"),
        ("repro.core.light_spanner", "build_bfs_tree", "bfs_tree"),
        ("repro.core.slt", "kruskal_mst", "kruskal"),
        ("repro.core.light_spanner", "kruskal_mst", "kruskal"),
    ],
}
PHASES = {
    "light_spanner": ("freeze", "bfs_tree", "kruskal", "fragments_and_tour",
                      "baswana_sen", "elkin_neiman", "rest", "total"),
    "slt": ("freeze", "bfs_tree", "kruskal", "fragments_and_tour", "approx_spt",
            "rest", "total"),
    "slt_then_spanner": ("freeze", "bfs_tree", "kruskal", "rest", "total"),
}
#: the building blocks timed alone, in table order
BLOCKS = ("bfs_tree", "bfs_tree_again", "euler_tour", "rounding", "sweep")
REQUIRED_JSON_KEYS = {
    "baseline_commit", "parent_commit", "previous_commit", "machine", "cases",
    "runs", "required_speedup", "required_parent_speedup", "max_slope",
}


def _input(n: int) -> Any:
    from repro.graphs import erdos_renyi_graph

    return erdos_renyi_graph(n, 10.0 / n, seed=n)


def _construct(name: str, graph: Any, n: int) -> List[Tuple[Any, Any]]:
    """Each output graph of the construction, with its round ledger."""
    from repro.core import light_spanner, shallow_light_tree

    outputs = []
    if name in ("slt", "slt_then_spanner"):
        slt = shallow_light_tree(graph, min(graph.vertices(), key=repr), 5.0)
        outputs.append((slt.tree, slt.ledger))
    if name in ("light_spanner", "slt_then_spanner"):
        spanner = light_spanner(graph, 3, 0.25, random.Random(n))
        outputs.append((spanner.spanner, spanner.ledger))
    return outputs


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


def _digests(outputs: List[Tuple[Any, Any]]) -> Dict[str, str]:
    lines = [sorted(f"{u!r} {v!r} {w!r}\n" for u, v, w in graph.edges())
             for graph, _ledger in outputs]
    phases = [json.dumps(ledger.by_phase(), sort_keys=True) for _g, ledger in outputs]
    return {
        "edges": hashlib.sha256("\n".join("".join(x) for x in lines).encode()).hexdigest(),
        "ledger": hashlib.sha256("\n".join(phases).encode()).hexdigest(),
    }


def _sweep(csr: Any, big_l: float, n: int, eps: float) -> Any:
    """This side's light-spanner bucket sweep; a side that ran it inline
    runs the one-pass loop of commit 7a92ec3 with its own
    ``_bucket_index``."""
    # repro.core exports the function light_spanner under the module's name
    light = importlib.import_module("repro.core.light_spanner")
    if "_bucket_sweep" in light.__dict__:
        return light._bucket_sweep(csr, big_l, n, eps)
    low_cap = big_l / n
    i_max = math.ceil(math.log(n, 1.0 + eps)) if n > 1 else 0
    low_edges = []
    bucket_edges: Dict[int, List[Any]] = {}
    for u, v, w in csr.edges():
        if w <= low_cap:
            low_edges.append((u, v))
        elif w <= big_l:
            i = light._bucket_index(w, big_l, eps)
            if 0 <= i <= i_max:
                bucket_edges.setdefault(i, []).append((u, v, w))
    return low_edges, bucket_edges


def _timed_blocks(graph: Any) -> Dict[str, float]:
    """Wall seconds of each of :data:`BLOCKS`, each on a fresh copy."""
    from repro.congest import build_bfs_tree
    from repro.mst import decompose_fragments, kruskal_mst
    from repro.traversal import compute_euler_tour

    spent = {}
    root = min(graph.vertices(), key=repr)
    fresh = graph.copy()
    fresh.freeze()  # a side that keeps τ on the view freezes first
    t0 = time.perf_counter()
    bfs = build_bfs_tree(fresh, root)
    t1 = time.perf_counter()
    build_bfs_tree(fresh, root)
    spent["bfs_tree"], spent["bfs_tree_again"] = t1 - t0, time.perf_counter() - t1

    fresh = graph.copy()
    mst = kruskal_mst(fresh)
    decomp = decompose_fragments(mst, root)
    t0 = time.perf_counter()
    compute_euler_tour(mst, root, decomp, bfs.height)
    spent["euler_tour"] = time.perf_counter() - t0

    csr = graph.copy().freeze()
    t0 = time.perf_counter()
    csr.rounded_weights(1.0)
    spent["rounding"] = time.perf_counter() - t0

    big_l = 2.0 * mst.total_weight()
    t0 = time.perf_counter()
    _sweep(csr, big_l, graph.n, 0.25)
    spent["sweep"] = time.perf_counter() - t0
    return spent


def measure() -> int:
    """Child side: one run of every case with the ``repro`` on the path."""
    import repro

    small = _input(200)
    for name in CONSTRUCTIONS:  # warm-up: imports, first-call set-up
        _timed_run(name, small, 200)
    cases = {}
    for n in SIZES:
        graph = _input(n)
        case: Dict[str, Any] = {"n": graph.n, "m": graph.m}
        for name in CONSTRUCTIONS:
            output, spent = _timed_run(name, graph, n)
            case[name] = {"seconds": {p: round(spent[p], 4) for p in PHASES[name]},
                          "digests": _digests(output)}
        case["blocks"] = {b: round(s, 5) for b, s in _timed_blocks(graph).items()}
        cases[f"n={n}"] = case
    print(json.dumps({"source": repro.__file__, "cases": cases}))
    return 0


def _fastest(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One side's cases from its runs: per construction the phases of the
    fastest run, every run's total and the digests (which must agree),
    per building block the fastest time."""
    merged: Dict[str, Any] = {}
    for key, first in runs[0].items():
        case = merged[key] = {"n": first["n"], "m": first["m"]}
        for name in CONSTRUCTIONS:
            timings = [run[key][name] for run in runs]
            digests = {json.dumps(t["digests"], sort_keys=True) for t in timings}
            case[name] = {
                "seconds": min((t["seconds"] for t in timings),
                               key=lambda seconds: seconds["total"]),
                "total_runs": [t["seconds"]["total"] for t in timings],
                "digests": first[name]["digests"] if len(digests) == 1 else "unstable",
            }
        case["blocks"] = {b: min(run[key]["blocks"][b] for run in runs) for b in BLOCKS}
    return merged


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
        f"{record['baseline_commit']} (baseline), commit "
        f"{record['parent_commit']} (parent) and commit "
        f"{record['previous_commit']} (previous) vs this change ===",
        f"{machine_info['cpu']}, {machine_info['cores']} cores, CPython "
        f"{machine_info['python']}; wall seconds per phase of the fastest of "
        f"{record['runs']} runs on fresh copies of each input, the sides taking "
        f"turns",
    ]
    header = (f"  {'phase':<20} {'baseline s':>11} {'parent s':>10} {'prev s':>10}"
              f" {'change s':>10} {'vs base':>8} {'vs parent':>10} {'vs prev':>8}")

    def row(phase: str, seconds: List[float], digits: int = 4) -> str:
        b, p, q, c = seconds
        ratios = ([f"{x / c:.1f}x" for x in (b, p, q)] if c > 0 else ["-"] * 3)
        return (f"  {phase:<20} {b:>11.{digits}f} {p:>10.{digits}f} {q:>10.{digits}f}"
                f" {c:>10.{digits}f} {ratios[0]:>8} {ratios[1]:>10} {ratios[2]:>8}")

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
                f"{_speedup(case, name, 'parent'):.2f}x over the parent, "
                f"{_speedup(case, name, 'previous'):.2f}x over the previous side; "
                f"edge and ledger digests {same}",
                header,
            ]
            lines += [row(phase, [s["seconds"][phase] for s in sides])
                      for phase in PHASES[name]]
    lines += ["", "--- building blocks, each alone on a fresh copy: bfs_tree_again is "
              "a second call on the same graph, rounding the ε=1 column, sweep the "
              "light spanner's bucket sweep at ε=0.25 ---"]
    for key, case in cases.items():
        lines += [f"{key}, m={case['change']['m']}", header.replace("phase", "block")]
        lines += [row(block, [case[side]["blocks"][block] for side in SIDES], 5)
                  for block in BLOCKS]
    return lines


def run() -> int:
    commits = {"baseline": BASELINE_COMMIT, "parent": PARENT_COMMIT,
               "previous": PREVIOUS_COMMIT}
    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    with contextlib.ExitStack() as stack:
        sources = {side: stack.enter_context(exported_src(commit))
                   for side, commit in commits.items()}
        sources["change"] = ROOT / "src"
        for turn in range(RUNS):
            # rotate who goes first, so no side always follows the same one
            for side in SIDES[turn % len(SIDES):] + SIDES[:turn % len(SIDES)]:
                runs[side].append(measure_side("bench_light", sources[side]))
    base, parent, previous, new = (_fastest(runs[side]) for side in SIDES)
    record = {
        "baseline_commit": BASELINE_COMMIT,
        "parent_commit": PARENT_COMMIT,
        "previous_commit": PREVIOUS_COMMIT,
        "machine": machine(),
        "runs": RUNS,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_parent_speedup": REQUIRED_PARENT_SPEEDUP,
        "max_slope": MAX_SLOPE,
        "cases": {key: {"baseline": base[key], "parent": parent[key],
                        "previous": previous[key], "change": new[key]}
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
                        ("parent_commit", PARENT_COMMIT),
                        ("previous_commit", PREVIOUS_COMMIT)):
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
            for side in SIDES[:-1]:
                if cases[key][side][name]["digests"] != new["digests"]:
                    failures.append(f"{key} {name}: edge or ledger digests differ "
                                    f"from the {side}'s")
            if any(set(cases[key][side][name]["seconds"]) != set(PHASES[name])
                   for side in SIDES):
                failures.append(f"{key} {name}: per-phase seconds incomplete")
        if any(set(cases[key][side]["blocks"]) != set(BLOCKS) for side in SIDES):
            failures.append(f"{key}: building-block seconds incomplete")
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
          f"{slt_parent:.2f}x; vs commit {PREVIOUS_COMMIT} (reported): "
          f"light_spanner {_speedup(cases[largest], 'light_spanner', 'previous'):.2f}x, "
          f"slt then spanner "
          f"{_speedup(cases[largest], 'slt_then_spanner', 'previous'):.2f}x; "
          f"digests equal on all {len(expected)} sizes")
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
