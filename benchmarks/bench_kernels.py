"""Kernel speedup evidence: pure-Python SSSP vs the numpy kernels.

The tentpole workload is the huge-tier shape at stress scale: a packed
ring-chords instance (n=500k, 6 chord offsets -> ~6M arcs), 16 sources
of batched SSSP plus the fixed-point residual certification of every
row — construction + certification, the exact pipeline ``run_profile``
executes at the huge tier.  The pure-Python kernels run it
per-source on the same mmapped columns; the numpy kernels settle the
whole (sources × nodes) matrix in one frontier-relaxation pass and fold
the residual over rows with one fused sweep.

Both sides take the min over ``REPEATS`` timed runs — wall-clock noise
on shared machines swings either side by tens of percent, and the
minimum is the standard low-variance estimator for CPU-bound loops.

When scipy imports, ``scipy.sparse.csgraph.dijkstra`` runs the same
sources over the same columns as a compiled reference floor.  That row
is report-only: it is never gated, ``--check`` does not read it, and
scipy is not a dependency — without it the row is skipped.

Committed evidence files (CI's ``kernels-smoke`` job gates on them):

* ``benchmarks/BENCH_kernels_speedup.txt`` — the human-readable table;
* ``benchmarks/BENCH_kernels_speedup.json`` — the machine-readable
  record with the >= 10x acceptance bar.

Run modes::

    python benchmarks/bench_kernels.py --run    # measure + rewrite both
    python benchmarks/bench_kernels.py --check  # validate committed JSON

Not a pytest file on purpose: the python side alone costs ~2 minutes,
which does not belong in the tier-1 suite; --check is stdlib-only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

#: the acceptance bar: numpy kernels must beat pure Python by this factor
REQUIRED_SPEEDUP = 10.0

#: workload: huge-tier shape at stress scale (fits CI memory comfortably)
N, CHORDS, SEED, SOURCES = 500_000, 6, 0, 16

#: timed repetitions per side; min-of-repeats on BOTH sides keeps the
#: ratio honest under machine noise (symmetric estimator)
REPEATS = 2

HERE = Path(__file__).resolve().parent
TXT_PATH = HERE / "BENCH_kernels_speedup.txt"
JSON_PATH = HERE / "BENCH_kernels_speedup.json"

REQUIRED_JSON_KEYS = {
    "workload", "python_sssp_seconds", "python_residual_seconds",
    "numpy_prepare_seconds", "numpy_sssp_seconds", "numpy_residual_seconds",
    "python_total_seconds", "numpy_total_seconds", "speedup",
    "max_residual", "unsettled_arcs", "repeats", "required_speedup",
}


def _min_timed(fn, repeats=REPEATS):
    """(last result, min wall seconds) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _scipy_floor(ip, idx, w, n, sources):
    """``(seconds, matrix, version)`` of ``scipy.sparse.csgraph.dijkstra``
    on the same columns and sources, or None when scipy does not import."""
    try:
        import numpy as np
        import scipy
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
    except ImportError:
        return None
    graph = csr_matrix(
        (np.asarray(w), np.asarray(idx), np.asarray(ip)), shape=(n, n)
    )
    matrix, seconds = _min_timed(
        lambda: dijkstra(graph, directed=True, indices=sources)
    )
    return seconds, matrix, scipy.__version__


def run() -> int:
    from repro.kernels import ensure_packed, has_numpy, load_packed, npkern, pykern

    if not has_numpy():
        print("FAIL: numpy is required to measure the kernel speedup "
              "(pip install -e .[fast])")
        return 1

    path = ensure_packed(N, CHORDS, SEED)
    pg = load_packed(path, verify=False)
    try:
        ip, idx, w = pg.indptr, pg.indices, pg.weights
        sources = [(k * pg.n) // SOURCES for k in range(SOURCES)]

        # ---- pure-Python side: per-source Dijkstra + residual loop
        py_matrix, py_sssp_s = _min_timed(
            lambda: pykern.sssp_matrix(ip, idx, w, sources)
        )

        def py_residual():
            worst, unsettled = 0.0, 0
            for row in py_matrix:
                r, u = pykern.residual(ip, idx, w, row)
                worst = max(worst, r)
                unsettled += u
            return worst, unsettled

        (py_worst, py_unsettled), py_res_s = _min_timed(py_residual)

        # ---- numpy side: one prepared batched pass + fused residual
        prep, np_prep_s = _min_timed(lambda: npkern.prepare(ip, idx, w))
        np_matrix, np_sssp_s = _min_timed(
            lambda: npkern.sssp_matrix_prepared(prep, sources)
        )
        (np_worst, np_unsettled), np_res_s = _min_timed(
            lambda: npkern.residual_matrix_prepared(prep, np_matrix)
        )

        # ---- report-only floor: scipy's compiled Dijkstra, if present
        floor = _scipy_floor(ip, idx, w, pg.n, sources)

        # parity spot-check before any timing is trusted: one full row
        rows = {"numpy": np_matrix[0]}
        if floor is not None:
            rows["scipy"] = floor[1][0]
        for name, row0 in rows.items():
            for v in range(0, pg.n, max(1, pg.n // 5000)):
                if abs(py_matrix[0][v] - float(row0[v])) > 1e-9:
                    print(f"FATAL: python and {name} disagree at vertex {v}: "
                          f"{py_matrix[0][v]!r} vs {float(row0[v])!r}")
                    return 1
        m_arcs = pg.m_arcs
    finally:
        pg.close()

    if py_unsettled or np_unsettled or py_worst > 1e-6 or np_worst > 1e-6:
        print(f"FATAL: certification failed (python {py_worst}/{py_unsettled},"
              f" numpy {np_worst}/{np_unsettled})")
        return 1

    py_total = py_sssp_s + py_res_s
    np_total = np_prep_s + np_sssp_s + np_res_s
    speedup = py_total / np_total
    workload = (f"ring-chords n={N} ({m_arcs} arcs), {SOURCES}-source batched "
                f"SSSP + residual certification")
    lines = [
        f"=== Kernel speedup: {workload} ===",
        "",
        f"{'stage':<34} {'python':>10} {'numpy':>10}",
        "-" * 58,
        f"{'prepare (CSR conversion)':<34} {'-':>10} {np_prep_s:>9.3f}s",
        f"{'batched SSSP (' + str(SOURCES) + ' sources)':<34}"
        f" {py_sssp_s:>9.3f}s {np_sssp_s:>9.3f}s",
        f"{'fixed-point residual (all rows)':<34}"
        f" {py_res_s:>9.3f}s {np_res_s:>9.3f}s",
        f"{'total':<34} {py_total:>9.3f}s {np_total:>9.3f}s",
        "",
        f"speedup: {speedup:.1f}x (min over {REPEATS} runs per side; "
        f"acceptance bar >= {REQUIRED_SPEEDUP:.0f}x)",
        f"certified: residual {max(py_worst, np_worst):.2e}, "
        f"0 unsettled arcs on both kernels",
        "",
    ]
    if floor is None:
        lines.append("floor: skipped (scipy is not installed)")
    else:
        lines.append(
            f"floor: scipy {floor[2]} sparse.csgraph.dijkstra, same "
            f"{SOURCES} sources: {floor[0]:.3f}s (report-only, never gated)"
        )
    TXT_PATH.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))

    record = {
        "workload": {"family": "ring-chords", "n": N, "chords": CHORDS,
                     "seed": SEED, "m_arcs": m_arcs, "sources": SOURCES},
        "python_sssp_seconds": round(py_sssp_s, 4),
        "python_residual_seconds": round(py_res_s, 4),
        "numpy_prepare_seconds": round(np_prep_s, 4),
        "numpy_sssp_seconds": round(np_sssp_s, 4),
        "numpy_residual_seconds": round(np_res_s, 4),
        "python_total_seconds": round(py_total, 4),
        "numpy_total_seconds": round(np_total, 4),
        "speedup": round(speedup, 2),
        "max_residual": max(py_worst, np_worst),
        "unsettled_arcs": int(py_unsettled + np_unsettled),
        "repeats": REPEATS,
        "required_speedup": REQUIRED_SPEEDUP,
        "scipy_sssp_seconds": None if floor is None else round(floor[0], 4),
        "scipy_version": None if floor is None else floor[2],
    }
    JSON_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {TXT_PATH.name} and {JSON_PATH.name}")
    if speedup < REQUIRED_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"{REQUIRED_SPEEDUP:.0f}x acceptance bar")
        return 1
    return 0


def check() -> int:
    """CI gate: the committed JSON must exist, parse, and clear the bar."""
    if not JSON_PATH.exists():
        print(f"FAIL: {JSON_PATH} is missing (run --run and commit it)")
        return 1
    record = json.loads(JSON_PATH.read_text())
    missing = REQUIRED_JSON_KEYS - set(record)
    if missing:
        print(f"FAIL: {JSON_PATH.name} lacks keys: {sorted(missing)}")
        return 1
    # gate against the script's own constant, not the committed file's
    # copy — a regressed re-run must not lower the bar it is measured by
    if record["speedup"] < REQUIRED_SPEEDUP:
        print(f"FAIL: committed speedup {record['speedup']}x is below the "
              f"{REQUIRED_SPEEDUP}x bar")
        return 1
    if record["unsettled_arcs"] != 0 or record["max_residual"] > 1e-6:
        print("FAIL: committed run was not a certified fixed point")
        return 1
    if not TXT_PATH.exists():
        print(f"FAIL: {TXT_PATH} is missing (run --run and commit it)")
        return 1
    wl = record["workload"]
    print(f"OK: committed evidence shows {record['speedup']}x "
          f"(bar {record['required_speedup']}x) on ring-chords "
          f"n={wl['n']} x {wl['sources']} sources")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", action="store_true",
                      help="measure and rewrite the committed evidence files")
    mode.add_argument("--check", action="store_true",
                      help="validate the committed evidence (the CI gate)")
    args = parser.parse_args(argv)
    return run() if args.run else check()


if __name__ == "__main__":
    sys.exit(main())
