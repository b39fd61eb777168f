"""Seeded query workloads: the serving-side half of a profile run.

A construction profile measures how fast a structure is *built*; a query
workload measures how fast it is *served*.  :class:`QueryMix` pins down
one seeded mix — how many pair queries, how skewed towards a hot set
(the repeat traffic the oracle's LRU cache exists for), how many
k-nearest calls — per size tier, and :func:`run_query_workload` turns a
constructed structure into the schema-v4 ``queries`` block: build time,
p50/p99 per-query latency, throughput, and the cache hit/miss split.

The mix is deterministic for a fixed seed (vertex choice, hot-set
membership and the hot/cold interleaving all come from one
``random.Random``), so cache hit counts are exactly reproducible and the
``--compare`` gate can hold them to the same 1% tolerance as CONGEST
round counts, while latencies gate with the usual wall-clock slack.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.oracle import DistanceOracle

#: quantities in the ``queries`` block whose values are seeded-deterministic
#: (everything else in the block is wall-clock); ``compare_reports`` gates
#: exactly these at the 1% rounds tolerance.
DETERMINISTIC_QUERY_QUANTITIES = ("cache_hits", "cache_misses")


@dataclass(frozen=True)
class QueryMix:
    """One seeded query mix (see module docstring).

    ``hot_fraction`` of the pair queries are drawn from a pool of
    ``hot_set`` fixed pairs (cache-friendly repeat traffic); the rest are
    fresh uniform pairs.  ``k_nearest`` queries ask for the ``k``
    closest vertices of random sources.
    """

    pairs: int
    hot_set: int
    hot_fraction: float
    k_nearest: int
    k: int
    landmarks: int


#: tier -> the mix ``run_profile(queries=True)`` executes at that tier.
QUERY_MIXES: Dict[str, QueryMix] = {
    "smoke": QueryMix(pairs=400, hot_set=40, hot_fraction=0.5,
                      k_nearest=25, k=5, landmarks=4),
    "table1": QueryMix(pairs=2_000, hot_set=120, hot_fraction=0.5,
                       k_nearest=100, k=8, landmarks=8),
    "stress": QueryMix(pairs=10_000, hot_set=250, hot_fraction=0.6,
                       k_nearest=250, k=10, landmarks=16),
}


def build_query_mix(
    structure: WeightedGraph, mix: QueryMix, seed: int
) -> Tuple[List[Tuple[Vertex, Vertex]], List[Vertex]]:
    """The concrete seeded query stream for ``structure``.

    Returns ``(pair_queries, k_nearest_sources)``; both are functions of
    ``(structure's vertex order, mix, seed)`` only, so two runs of the
    same profile issue bit-identical traffic.
    """
    verts = list(structure.vertices())
    rng = random.Random(seed)
    if len(verts) < 2:
        return [], list(verts)[: mix.k_nearest]
    hot = [
        (rng.choice(verts), rng.choice(verts)) for _ in range(max(1, mix.hot_set))
    ]
    pairs: List[Tuple[Vertex, Vertex]] = []
    for _ in range(mix.pairs):
        if rng.random() < mix.hot_fraction:
            pairs.append(hot[rng.randrange(len(hot))])
        else:
            pairs.append((rng.choice(verts), rng.choice(verts)))
    sources = [rng.choice(verts) for _ in range(mix.k_nearest)]
    return pairs, sources


def run_query_workload(
    structure: WeightedGraph,
    mix: QueryMix,
    seed: int,
) -> Dict[str, object]:
    """Serve one seeded mix over ``structure``; returns the ``queries`` block.

    The oracle is built here (timed separately as ``build_seconds`` — the
    preprocess-once cost) and then serves the whole mix through
    :meth:`~repro.oracle.DistanceOracle.query` /
    :meth:`~repro.oracle.DistanceOracle.k_nearest`, with per-query
    latency sampled around each call.
    """
    with obs_trace.timed_span("queries.oracle_build") as t_build:
        oracle = DistanceOracle.build(structure, landmarks=mix.landmarks, seed=seed)
    build_seconds = t_build.wall_s

    pairs, sources = build_query_mix(structure, mix, seed)
    latencies: List[float] = []
    clock = time.perf_counter
    with obs_trace.timed_span(
        "queries.serve", pairs=len(pairs), k_nearest=len(sources)
    ) as t_serve:
        served_t0 = clock()
        for u, v in pairs:
            t = clock()
            oracle.query(u, v)
            latencies.append(clock() - t)
        for v in sources:
            t = clock()
            oracle.k_nearest(v, mix.k)
            latencies.append(clock() - t)
        served_seconds = clock() - served_t0

    info = oracle.cache_info()
    # fold the oracle's per-instance metrics (cache counters, latency
    # histogram) into the process-wide registry now that serving is done
    obs_metrics.merge(oracle.metrics.snapshot())
    count = len(latencies)
    latencies.sort()

    def _pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(count - 1, int(p * count))] * 1000.0

    return {
        "count": count,
        "pair_queries": len(pairs),
        "k_nearest_queries": len(sources),
        "k": mix.k,
        "landmarks": len(oracle.landmark_indices),
        "strategy": oracle.strategy,
        "build_seconds": build_seconds,
        "served_seconds": served_seconds,
        "p50_ms": _pct(0.50),
        "p99_ms": _pct(0.99),
        "qps": count / served_seconds if served_seconds > 0 else 0.0,
        "cache_hits": info["hits"],
        "cache_misses": info["misses"],
        "cache_hit_rate": info["hits"] / max(1, info["hits"] + info["misses"]),
    }
