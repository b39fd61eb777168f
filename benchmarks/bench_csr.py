"""Dict backend vs indexed CSR fast path.

Times the full edge sweep (the §5 bucketing pattern) on both backends
of a Table-1-sized instance (n = 2000) and prints the speedup, then
pins the Baswana–Sen spanner's end-to-end time on the frozen view.
Every shortest-path search runs on the CSR view, so there is
no dict Dijkstra left to compare.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import print_table, run_once

from repro.graphs import erdos_renyi_graph
from repro.spanners.baswana_sen import baswana_sen_spanner


def _timed(fn, *args, repeat: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


@pytest.mark.parametrize("n,p", [(2000, 0.01)])
def test_edge_sweep_csr_vs_dict(benchmark, n, p):
    g = erdos_renyi_graph(n, p, seed=7)
    csr = g.to_csr()
    threshold = 50.0

    def sweep(graph):
        return sum(1 for _, _, w in graph.edges() if w <= threshold)

    count_dict, t_dict = _timed(sweep, g, repeat=5)
    count_csr, t_csr = _timed(sweep, csr, repeat=5)
    assert count_dict == count_csr
    run_once(benchmark, sweep, csr)
    print_table(
        f"Full edge sweep, ER(n={n}, p={p}), m={g.m}",
        ["backend", "seconds", "speedup"],
        [
            ["dict", f"{t_dict:.4f}", "1.0x"],
            ["CSR", f"{t_csr:.4f}", f"{t_dict / t_csr:.2f}x"],
        ],
    )
    benchmark.extra_info.update(n=n, dict_s=t_dict, csr_s=t_csr)


def test_baswana_sen_on_csr(benchmark):
    """The spanner's cluster scans run on the frozen view internally;
    this pins the end-to-end construction time on an n=2000 instance."""
    g = erdos_renyi_graph(2000, 0.01, seed=21)
    h, t_total = _timed(
        lambda: baswana_sen_spanner(g, 3, random.Random(5)), repeat=1
    )
    run_once(benchmark, baswana_sen_spanner, g, 3, random.Random(5))
    print_table(
        f"Baswana-Sen k=3 on ER(2000, 0.01), m={g.m}",
        ["quantity", "value"],
        [
            ["spanner edges", h.m],
            ["seconds", f"{t_total:.3f}"],
        ],
    )
    assert h.m <= 4 * 3 * 2000 ** (1 + 1 / 3)
    benchmark.extra_info.update(edges=h.m, seconds=t_total)
