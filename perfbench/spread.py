"""Run-to-run spread of the end-to-end metrics over several seeds.

``python3 perfbench/spread.py --workload light-er --seeds 1 2 3 4 5``
runs the benchmark once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``) and prints, per metric, the median, the spread
(inter-quartile range over the median, as ``statistics.quantiles``
gives the quartiles) and the metric's bound.  A metric is steady when
its spread stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from arith import median, spread  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", help="append each run's JSON result here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    walls = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=180,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for line in proc.stdout.splitlines():
            if line.startswith("wall "):
                for name, v in json.loads(line[5:]).items():
                    walls.setdefault(name, []).append(v)
        print(f"seed {seed} done", flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals) if len(vals) >= 2 else float("nan")
        flag = "" if s < m["bound"] / 3 else "  (over a third of the bound)"
        print(f"{m['name']:16s} median {median(vals):12.6g}  spread "
              f"{s:7.4f}  bound {m['bound']}{flag}")
    for name, vals in walls.items():
        print(f"wall {name:16s} median {median(vals):12.6g}  spread "
              f"{spread(vals) if len(vals) >= 2 else float('nan'):7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
