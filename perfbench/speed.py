"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same pure-Python work can take from 1× to
1.5× as long from one few-second window to the next (measured on a
2-vCPU virtual machine), which swamps any change a benchmark is meant
to see.  Every timed step is therefore
bracketed by a fixed reference task (a heap Dijkstra over a seeded
400-vertex graph, the same kind of work as the program's) and reported
as *reference seconds*: the step's wall time scaled by how much slower
than :data:`REFERENCE_S` the brackets ran.  Raw wall times are printed
alongside.  Steps are kept short so that the brackets see the same
machine the step did.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Nominal time of one calibration task; reference seconds are wall
#: seconds on a machine where the task takes exactly this long.
REFERENCE_S = 0.0065
#: A sample runs the task in this many equal parts and scales up the
#: fastest one.  A neighbour's burst of a few milliseconds slows one
#: part, not the much longer step the sample brackets; taken whole, such
#: bursts moved a 0.3 s step's reference time by up to 1.6x (measured on
#: a 2-vCPU virtual machine: the per-run median of a fixed construction
#: spread 0.088 in reference time from whole samples, 0.034 from parts).
PARTS = 4


def _graph() -> List[List[Tuple[int, float]]]:
    rng = random.Random(7)
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(400)]
    for u in range(400):
        for _ in range(4):
            v, w = rng.randrange(400), rng.uniform(1.0, 100.0)
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


class Speed:
    """Times the reference task and scales wall times by it.

    Each CPU of a shared machine slows down on its own, so a sample is
    the mean of one reference task on each of ``cpus`` (the calling
    thread moves there and back): the CPUs the measured work ran on.
    """

    def __init__(self, cpus: Sequence[int], sources: int = 8) -> None:
        self.adj = _graph()
        self.cpus = list(cpus)
        self.sources = sources

    def on(self, cpus: Sequence[int]) -> "Speed":
        """The same reference task, sampled on ``cpus``."""
        return Speed(cpus, self.sources)

    def sample(self) -> float:
        """Mean wall seconds of the reference task over the CPUs.

        On each CPU the task runs in :data:`PARTS` parts and the fastest
        part, times :data:`PARTS`, stands for the whole task.
        """
        home = os.sched_getaffinity(0)
        try:
            total = 0.0
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                part = min(self._task(self.sources // PARTS) for _ in range(PARTS))
                total += PARTS * part
        finally:
            os.sched_setaffinity(0, home)
        return total / len(self.cpus)

    def _task(self, sources: int) -> float:
        adj = self.adj
        t0 = time.perf_counter()
        for s in range(sources):
            dist = {s: 0.0}
            heap = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    nd = d + w
                    if nd < dist.get(v, float("inf")):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        return time.perf_counter() - t0

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; return (result, wall seconds, reference seconds)."""
        before = self.sample()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        return result, wall, wall / slowdown(before, self.sample())


def slowdown(before: float, after: float) -> float:
    """How many times slower than nominal two bracketing samples ran."""
    return (before + after) / (2.0 * REFERENCE_S)
