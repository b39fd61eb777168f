"""Profile execution: build the workload, run the algorithm, certify.

:func:`run_profile` turns one (:class:`~repro.harness.profiles.Profile`,
tier) pair into a :class:`ProfileRecord` — the machine-readable unit the
JSON reports are made of.  Construction and certification are
wall-clock-timed separately (certification is often the more expensive
half at paper sizes and must not pollute the construction trend), peak
memory is sampled with :mod:`tracemalloc` around the construction only,
round counts come from each construction's :class:`RoundLedger`, and
quality metrics reuse :class:`repro.analysis.report.QualityReport` so
the bound-certification logic stays in one place.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.report import MetricRow, QualityReport, net_report, slt_report, spanner_report
from repro.analysis.validation import verify_spanning_tree
from repro.congest import (
    RoundLedger,
    SyncNetwork,
    broadcast_messages,
    build_bfs_tree,
    convergecast_messages,
)
from repro.core import (
    build_net,
    doubling_spanner,
    estimate_mst_weight_via_nets,
    light_spanner,
    shallow_light_tree,
)
from repro.core.breakpoint_scan import run_interval_scan
from repro.core.cluster_simulation import simulate_case1_bucket
from repro.core.light_spanner import _case1_clusters
from repro.core.slt import _select_break_points
from repro.graphs import WeightedGraph
from repro.graphs.weighted_graph import Vertex
from repro.harness.profiles import HUGE_TIER, Profile, all_profiles
from repro.harness.queries import QUERY_MIXES, run_query_workload
from repro.kernels import PackedGraph, ensure_packed, load_packed, pykern, resolve_kernel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.mst import boruvka_mst, kruskal_mst
from repro.mst.kruskal import mst_weight
from repro.spanners import baswana_sen_spanner, elkin_neiman_spanner, greedy_spanner
from repro.spt import approx_spt
from repro.traversal import compute_euler_tour

#: the per-tier algorithm parameters run_profile threads through build/certify.
Params = Dict[str, Any]


def _root(graph: WeightedGraph) -> Vertex:
    return min(graph.vertices(), key=repr)


# Each algorithm entry is (build, certify):
#   build(graph, params, rng)    -> (artifact, rounds or None)
#   certify(graph, artifact, params) -> QualityReport
def _build_slt(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    res = shallow_light_tree(graph, _root(graph), params["alpha"])
    return res, res.rounds


def _certify_slt(graph: WeightedGraph, res: Any, params: Params) -> QualityReport:
    return slt_report(
        graph, res.tree, res.root,
        stretch_bound=res.stretch_bound,
        lightness_bound=res.lightness_bound,
        rounds=res.rounds,
    )


def _build_light_spanner(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    res = light_spanner(graph, params["k"], params["eps"], rng)
    return res, res.rounds


def _spanner_cert_kwargs(params: Params) -> Dict[str, Any]:
    """The certification-engine setting run_profile injects into ``params``."""
    return {"certify_sample": params.get("certify_sample")}


def _light_spanner_lightness_bound(graph: WeightedGraph, res: Any) -> float:
    """The lightness H cannot exceed by construction.

    H is T plus the edges the buckets select, and each edge bucket b
    selects weighs at most its cap, so w(H) <= w(T) + Σ_b spanner_edges_b
    · weight_cap_b over every bucket, E′ included.
    """
    tree_weight = mst_weight(graph)
    selected: float = sum(b.spanner_edges * b.weight_cap for b in res.buckets)
    return 1.0 + selected / tree_weight if tree_weight > 0 else 1.0


def _certify_light_spanner(graph: WeightedGraph, res: Any, params: Params) -> QualityReport:
    return spanner_report(
        graph, res.spanner, stretch_bound=res.stretch_bound,
        lightness_bound=_light_spanner_lightness_bound(graph, res),
        rounds=res.rounds, **_spanner_cert_kwargs(params),
    )


def _build_net(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    res = build_net(graph, params["scale"], params["delta"], rng)
    return res, res.rounds


def _certify_net(graph: WeightedGraph, res: Any, params: Params) -> QualityReport:
    return net_report(graph, res.points, res.alpha, res.beta, rounds=res.rounds)


def _build_doubling(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    res = doubling_spanner(
        graph, params["eps"], rng, net_method=params.get("net_method", "greedy")
    )
    return res, res.rounds


def _certify_doubling(graph: WeightedGraph, res: Any, params: Params) -> QualityReport:
    # per-edge stretch is bounded by the pairwise guarantee 1 + 30ε
    return spanner_report(
        graph, res.spanner, stretch_bound=res.stretch_bound, rounds=res.rounds,
        **_spanner_cert_kwargs(params),
    )


def _build_estimate(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    est = estimate_mst_weight_via_nets(
        graph, net_method=params.get("net_method", "greedy"), rng=rng
    )
    return est, est.ledger.total


def _certify_estimate(graph: WeightedGraph, est: Any, params: Params) -> QualityReport:
    # Theorem 7 sandwich: 1 <= Ψ/L <= O(α log n); both sides as upper bounds
    upper = 16.0 * est.alpha * math.log2(max(graph.n, 2))
    ratio = est.approximation_ratio
    rows = [
        MetricRow("psi/L", ratio, upper),
        MetricRow("L/psi", 1.0 / ratio if ratio > 0 else float("inf"), 1.0),
        MetricRow("scales", float(len(est.net_sizes))),
    ]
    return QualityReport(title="mst-weight estimate", rows=rows)


def _build_baswana_sen(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    ledger = RoundLedger()
    spanner = baswana_sen_spanner(graph, params["k"], rng, ledger)
    return (spanner, ledger), ledger.total


def _certify_baswana_sen(graph: WeightedGraph, artifact: Any, params: Params) -> QualityReport:
    spanner, ledger = artifact
    bound = 2 * params["k"] - 1
    return spanner_report(
        graph, spanner, stretch_bound=bound, rounds=ledger.total,
        **_spanner_cert_kwargs(params),
    )


def _build_elkin_neiman(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    adjacency = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    run = elkin_neiman_spanner(adjacency, params["k"], rng)
    spanner = WeightedGraph(graph.vertices())
    for edge in run.edges:
        u, v = tuple(edge)
        spanner.add_edge(u, v, graph.weight(u, v))
    return (run, spanner), run.rounds


def _certify_elkin_neiman(graph: WeightedGraph, artifact: Any, params: Params) -> QualityReport:
    run, spanner = artifact
    bound = 2 * params["k"] - 1
    return spanner_report(
        graph, spanner, stretch_bound=bound, rounds=run.rounds,
        **_spanner_cert_kwargs(params),
    )


def _build_greedy_spanner(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    return greedy_spanner(graph, 2 * params["k"] - 1), None


def _certify_greedy_spanner(graph: WeightedGraph, spanner: Any, params: Params) -> QualityReport:
    return spanner_report(
        graph, spanner, stretch_bound=2 * params["k"] - 1,
        **_spanner_cert_kwargs(params),
    )


def _kernel_sources(n: int, count: int) -> List[int]:
    """``count`` evenly spread dense source indices (deterministic)."""
    count = max(1, min(count, n))
    return [(k * n) // count for k in range(count)]


def _kernel_backend(params: Params) -> str:
    return resolve_kernel(str(params.get("kernel", "python")))


def _build_kernel_sssp(
    graph: "WeightedGraph | PackedGraph", params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    """Batched SSSP from :func:`_kernel_sources` over ``graph``'s CSR
    columns: a WeightedGraph's frozen view, or the huge tier's mmapped
    columns as they are.  On numpy the columns are converted once and
    the rows stay one array, which the certification reuses."""
    csr = graph.freeze() if isinstance(graph, WeightedGraph) else graph
    sources = _kernel_sources(csr.n, int(params.get("sources", 4)))
    if _kernel_backend(params) == "numpy":
        from repro.kernels import npkern

        prep = npkern.prepare(csr.indptr, csr.indices, csr.weights)
        return (prep, sources, npkern.sssp_matrix_prepared(prep, sources)), None
    matrix = pykern.sssp_matrix(csr.indptr, csr.indices, csr.weights, sources)
    return (csr, sources, matrix), None


def _certify_kernel_sssp(
    graph: "WeightedGraph | PackedGraph", artifact: Any, params: Params
) -> QualityReport:
    # fixed-point certificate: residual 0 + no finite-tail/inf-head arcs
    # means every relaxation-built row is exact (see repro.kernels.pykern)
    columns, sources, matrix = artifact
    if _kernel_backend(params) == "numpy":
        from repro.kernels import npkern

        worst, unsettled = npkern.residual_matrix_prepared(columns, matrix)
    else:
        worst, unsettled = 0.0, 0
        for row in matrix:
            w, u = pykern.residual(
                columns.indptr, columns.indices, columns.weights, row
            )
            worst = max(worst, w)
            unsettled += u
    rows = [
        MetricRow("residual", worst, 1e-6),
        MetricRow("unsettled-arcs", float(unsettled), 0.0),
        MetricRow("sources", float(len(sources))),
    ]
    return QualityReport(title="kernel sssp", rows=rows)


def _build_mst(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Tuple[Any, Optional[int]]:
    res = boruvka_mst(graph)
    return res, res.rounds


def _certify_mst(graph: WeightedGraph, res: Any, params: Params) -> QualityReport:
    verify_spanning_tree(graph, res.tree)
    optimal = kruskal_mst(graph).total_weight()
    ratio = res.tree.total_weight() / optimal if optimal > 0 else 1.0
    rows = [
        MetricRow("weight/optimal", ratio, 1.0),
        MetricRow("phases", float(res.phases), float(math.ceil(math.log2(max(graph.n, 2))))),
        MetricRow("rounds", float(res.rounds)),
    ]
    return QualityReport(title="boruvka mst", rows=rows)


@dataclass(frozen=True)
class NetStats:
    """Measured traffic of a CONGEST profile run (one or more phases).

    Each field mirrors a lifetime ``total_*`` counter of the
    :class:`SyncNetwork` — NOT the per-run counters — so a multi-phase
    build (BFS tree + broadcast on one network) reports aggregate
    traffic even though :meth:`SyncNetwork.reset` zeroed the per-run
    counters between phases.  ``active_node_rounds`` counts ``step``
    invocations — the engine's utilization measure, at most
    ``n × step-rounds``.
    """

    rounds: int
    messages: int
    words: int
    active_node_rounds: int

    @classmethod
    def of(cls, net: SyncNetwork) -> "NetStats":
        """Snapshot a network's lifetime ``total_*`` counters."""
        return cls(
            rounds=net.total_rounds,
            messages=net.total_messages_sent,
            words=net.total_words_sent,
            active_node_rounds=net.total_active_node_rounds,
        )


def _congest_network(
    graph: WeightedGraph, network: Optional[SyncNetwork]
) -> SyncNetwork:
    """The network a CONGEST build runs on: the injected one, or a new one."""
    return network if network is not None else SyncNetwork(graph)


def _seeded_payloads(
    graph: WeightedGraph, params: Params, rng: random.Random
) -> Dict[Vertex, List[int]]:
    """Deterministically place one 1-word payload at ``messages`` vertices."""
    verts = sorted(graph.vertices(), key=repr)
    count = min(int(params["messages"]), len(verts))
    return {v: [i] for i, v in enumerate(rng.sample(verts, count))}


def _build_congest_bfs(
    graph: WeightedGraph,
    params: Params,
    rng: random.Random,
    network: Optional[SyncNetwork] = None,
) -> Tuple[Any, int, NetStats]:
    net = _congest_network(graph, network)
    tree = build_bfs_tree(graph, _root(graph), network=net)
    return tree, tree.rounds, NetStats.of(net)


def _certify_congest_bfs(graph: WeightedGraph, tree: Any, params: Params) -> QualityReport:
    depth = max(tree.depth.values())
    rows = [
        MetricRow("reached", float(len(tree.depth)), float(graph.n)),
        MetricRow("depth", float(depth)),
        # the flood settles within depth + O(1) synchronous rounds
        MetricRow("rounds", float(tree.rounds), float(depth + 3)),
    ]
    return QualityReport(title="congest bfs", rows=rows)


def _build_congest_broadcast(
    graph: WeightedGraph,
    params: Params,
    rng: random.Random,
    network: Optional[SyncNetwork] = None,
) -> Tuple[Any, int, NetStats]:
    net = _congest_network(graph, network)
    tree = build_bfs_tree(graph, _root(graph), network=net)
    payloads = _seeded_payloads(graph, params, rng)
    received, rounds = broadcast_messages(graph, tree, payloads, network=net)
    return (tree, payloads, received, rounds), net.total_rounds, NetStats.of(net)


def _certify_congest_broadcast(graph: WeightedGraph, artifact: Any, params: Params) -> QualityReport:
    tree, payloads, received, rounds = artifact
    expected = sorted(m for msgs in payloads.values() for m in msgs)
    short = sum(1 for v in graph.vertices() if sorted(received[v]) != expected)
    rows = [
        MetricRow("undelivered-nodes", float(short), 0.0),
        MetricRow("messages", float(len(expected))),
        # Lemma 1: M + 2·height + O(1) measured rounds
        MetricRow("rounds", float(rounds), float(len(expected) + 2 * tree.height + 4)),
    ]
    return QualityReport(title="congest broadcast", rows=rows)


def _build_congest_convergecast(
    graph: WeightedGraph,
    params: Params,
    rng: random.Random,
    network: Optional[SyncNetwork] = None,
) -> Tuple[Any, int, NetStats]:
    net = _congest_network(graph, network)
    tree = build_bfs_tree(graph, _root(graph), network=net)
    payloads = _seeded_payloads(graph, params, rng)
    gathered, rounds = convergecast_messages(graph, tree, payloads, network=net)
    return (tree, payloads, gathered, rounds), net.total_rounds, NetStats.of(net)


def _certify_congest_convergecast(graph: WeightedGraph, artifact: Any, params: Params) -> QualityReport:
    tree, payloads, gathered, rounds = artifact
    expected = sorted(m for msgs in payloads.values() for m in msgs)
    # multiset symmetric difference: counts dropped AND duplicated /
    # fabricated payloads (a pure length check would miss a swap)
    diff = Counter(expected)
    diff.subtract(Counter(gathered))
    mismatch = sum(abs(c) for c in diff.values())
    rows = [
        MetricRow("multiset-mismatch-at-root", float(mismatch), 0.0),
        MetricRow("messages", float(len(expected))),
        # Lemma 1: M + height + O(1) measured rounds
        MetricRow("rounds", float(rounds), float(len(expected) + tree.height + 4)),
    ]
    return QualityReport(title="congest convergecast", rows=rows)


def _build_congest_interval_scan(
    graph: WeightedGraph,
    params: Params,
    rng: random.Random,
    network: Optional[SyncNetwork] = None,
) -> Tuple[Any, int, NetStats]:
    net = _congest_network(graph, network)
    root = _root(graph)
    mst = kruskal_mst(graph)
    tour = compute_euler_tour(mst, root)
    spt = approx_spt(graph, root, params["eps_spt"])
    result = run_interval_scan(
        graph, tour, spt.dist, params["eps"], network=net
    )
    return (tour, spt, result), result.rounds, NetStats.of(net)


def _certify_congest_interval_scan(graph: WeightedGraph, artifact: Any, params: Params) -> QualityReport:
    tour, spt, result = artifact
    reference, _, _ = _select_break_points(
        tour, spt.dist, params["eps"], result.alpha, RoundLedger(), 1
    )
    mismatches = len(set(result.bp1) ^ set(reference))
    rows = [
        MetricRow("bp1-mismatch", float(mismatches), 0.0),
        MetricRow("bp1-size", float(len(result.bp1))),
        # §4.1: "after α − 1 rounds this procedure ends"
        MetricRow("rounds", float(result.rounds), float(result.alpha + 2)),
    ]
    return QualityReport(title="congest interval scan", rows=rows)


def _build_congest_cluster_round(
    graph: WeightedGraph,
    params: Params,
    rng: random.Random,
    network: Optional[SyncNetwork] = None,
) -> Tuple[Any, int, NetStats]:
    net = _congest_network(graph, network)
    root = _root(graph)
    tree = build_bfs_tree(graph, root, network=net)
    mst = kruskal_mst(graph)
    tour = compute_euler_tour(mst, root)
    # bucket width w_i = L / bucket-index with L = 2W (§5); index 2 here,
    # so the Equation threshold is eps * w_i = eps * W
    eps_wi = params["eps"] * mst.total_weight()
    cluster_of = _case1_clusters(tour, eps_wi)
    sim = simulate_case1_bucket(
        graph, tree, cluster_of, params["k"], rng=rng, network=net
    )
    return (tree, sim), net.total_rounds, NetStats.of(net)


def _certify_congest_cluster_round(graph: WeightedGraph, artifact: Any, params: Params) -> QualityReport:
    tree, sim = artifact
    # the simulation exposes the cluster graph and shifts it ran on, so
    # the abstract [EN17b] reference certifies against the same inputs
    pure = elkin_neiman_spanner(sim.cluster_graph, params["k"], shifts=sim.shifts)  # repro: allow[REP1001] -- shifts= pins the randomness; rng is documented-ignored when shifts are given
    mismatches = len(sim.edges ^ pure.edges)
    per_round_cap = 3 * (len(sim.cluster_graph) + 2 * tree.height) + 12
    worst = max((cc + bc for cc, bc in sim.round_breakdown), default=0)
    rows = [
        MetricRow("edge-mismatch", float(mismatches), 0.0),
        MetricRow("clusters", float(len(sim.cluster_graph))),
        # each simulated [EN17b] round costs O(|C_i| + D) measured rounds
        MetricRow("worst-round", float(worst), float(per_round_cap)),
    ]
    return QualityReport(title="congest cluster round", rows=rows)


# build(graph, params, rng) -> (artifact, rounds) — or, for CONGEST
# algorithms, build(graph, params, rng, network=None) -> (artifact,
# rounds, NetStats): the third element feeds the record's network block
# (a congest-prefixed algorithm returning a 2-tuple would silently record
# no traffic), and the network kwarg lets the parity suite inject a
# tracing SyncNetwork or its reference loop.
BuildFn = Callable[..., Tuple[Any, ...]]
CertifyFn = Callable[..., QualityReport]

#: algorithm name -> (build, certify); profiles reference these keys.
ALGORITHMS: Dict[str, Tuple[BuildFn, CertifyFn]] = {
    "slt": (_build_slt, _certify_slt),
    "light-spanner": (_build_light_spanner, _certify_light_spanner),
    "net": (_build_net, _certify_net),
    "doubling-spanner": (_build_doubling, _certify_doubling),
    "estimate": (_build_estimate, _certify_estimate),
    "baswana-sen": (_build_baswana_sen, _certify_baswana_sen),
    "elkin-neiman": (_build_elkin_neiman, _certify_elkin_neiman),
    "greedy-spanner": (_build_greedy_spanner, _certify_greedy_spanner),
    "kernel-sssp": (_build_kernel_sssp, _certify_kernel_sssp),
    "mst": (_build_mst, _certify_mst),
    "congest-bfs": (_build_congest_bfs, _certify_congest_bfs),
    "congest-broadcast": (_build_congest_broadcast, _certify_congest_broadcast),
    "congest-convergecast": (
        _build_congest_convergecast,
        _certify_congest_convergecast,
    ),
    "congest-interval-scan": (
        _build_congest_interval_scan,
        _certify_congest_interval_scan,
    ),
    "congest-cluster-round": (
        _build_congest_cluster_round,
        _certify_congest_cluster_round,
    ),
}

#: algorithms that execute on a SyncNetwork and record its traffic.
CONGEST_ALGORITHMS = frozenset(
    name for name in ALGORITHMS if name.startswith("congest-")
)

#: algorithms whose certification runs the bounded-radius stretch engine
#: and therefore honours ``certify_sample``.
SPANNER_CERTIFIED_ALGORITHMS = frozenset(
    {"light-spanner", "doubling-spanner", "baswana-sen",
     "elkin-neiman", "greedy-spanner"}
)

#: algorithms that execute on the repro.kernels SSSP backends and honour
#: ``run_profile(kernel=...)``.
KERNEL_ALGORITHMS = frozenset({"kernel-sssp"})

# artifact -> the weighted structure a distance oracle can serve.  Keyed
# by algorithm because each build returns a differently-shaped artifact;
# an algorithm absent here (nets, estimation, CONGEST traffic) produces
# no servable metric structure and is skipped by the query suite.
STRUCTURE_EXTRACTORS: Dict[str, Callable[[Any], WeightedGraph]] = {
    "slt": lambda res: res.tree,
    "light-spanner": lambda res: res.spanner,
    "doubling-spanner": lambda res: res.spanner,
    "baswana-sen": lambda artifact: artifact[0],
    "elkin-neiman": lambda artifact: artifact[1],
    "greedy-spanner": lambda spanner: spanner,
    "mst": lambda res: res.tree,
}

#: algorithms whose profiles can serve a query workload (``--suite queries``).
QUERYABLE_ALGORITHMS = frozenset(STRUCTURE_EXTRACTORS)


def queryable_profiles() -> List[Profile]:
    """The profiles the query-workload suite runs (servable structures)."""
    return [p for p in all_profiles() if p.algorithm in QUERYABLE_ALGORITHMS]


@dataclass
class ProfileRecord:
    """The machine-readable outcome of one profile run at one tier."""

    profile: str
    tier: str
    family: str
    algorithm: str
    section: str
    seed: int
    params: Dict[str, object]
    n: int
    m: int
    generation_seconds: float
    construction_seconds: float
    certification_seconds: float
    # None when the run opted out of the tracemalloc pass (--no-mem)
    peak_memory_bytes: Optional[int]
    rounds: Optional[int]
    metrics: Dict[str, Dict[str, object]]
    ok: bool
    # measured network traffic, from the SyncNetwork's lifetime total_*
    # counters (CONGEST profiles only; None elsewhere and in
    # schema-version-1 reports; net_rounds absent before schema 5)
    messages: Optional[int] = None
    words: Optional[int] = None
    active_node_rounds: Optional[int] = None
    net_rounds: Optional[int] = None
    # stretch-certification accounting (mode / sampled_edges / pruning...;
    # spanner-certified profiles only, None elsewhere and in schema <= 2)
    certification: Optional[Dict[str, object]] = None
    # query-workload serving metrics (latency percentiles, throughput,
    # cache hit/miss split — see repro.harness.queries); present only when
    # the run requested queries on a queryable profile, and absent from
    # schema <= 3 reports
    queries: Optional[Dict[str, object]] = None
    # per-record observability: whether tracing was on, spans recorded
    # during this record, and the record's deltas of the process-wide
    # counter/gauge metrics (histograms stay out — their latency buckets
    # are wall-clock-shaped and the block must stay seeded-deterministic);
    # absent from schema <= 4 reports
    observability: Optional[Dict[str, object]] = None
    # daemon load-generation results (per-level latency percentiles,
    # achieved qps, failure rate — see repro.harness.loadgen); present
    # only on records produced by ``repro loadgen``, and absent from
    # schema <= 5 reports
    load: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (inverse of :meth:`from_dict`)."""
        return {
            "profile": self.profile,
            "tier": self.tier,
            "family": self.family,
            "algorithm": self.algorithm,
            "section": self.section,
            "seed": self.seed,
            "params": dict(self.params),
            "graph": {"n": self.n, "m": self.m},
            "timings": {
                "generation_seconds": self.generation_seconds,
                "construction_seconds": self.construction_seconds,
                "certification_seconds": self.certification_seconds,
            },
            "peak_memory_bytes": self.peak_memory_bytes,
            "rounds": self.rounds,
            "network": {
                "rounds": self.net_rounds,
                "messages": self.messages,
                "words": self.words,
                "active_node_rounds": self.active_node_rounds,
            },
            "certification": dict(self.certification)
            if self.certification is not None else None,
            "queries": dict(self.queries) if self.queries is not None else None,
            "observability": dict(self.observability)
            if self.observability is not None else None,
            "load": dict(self.load) if self.load is not None else None,
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProfileRecord":
        """Rebuild a record from its JSON form (schema versions 1 to 6).

        Blocks introduced by later schema versions (``network``,
        ``certification``, ``queries``, ``observability``, ``load``)
        load as ``None``/empty when the report predates them — a v1
        report must keep comparing cleanly under the current schema.
        """
        timings = data["timings"]
        graph = data["graph"]
        network = data.get("network") or {}
        certification = data.get("certification")
        queries = data.get("queries")
        observability = data.get("observability")
        load = data.get("load")
        return cls(
            profile=data["profile"],
            tier=data["tier"],
            family=data["family"],
            algorithm=data["algorithm"],
            section=data["section"],
            seed=data["seed"],
            params=dict(data["params"]),
            n=graph["n"],
            m=graph["m"],
            generation_seconds=timings["generation_seconds"],
            construction_seconds=timings["construction_seconds"],
            certification_seconds=timings["certification_seconds"],
            peak_memory_bytes=data["peak_memory_bytes"],
            rounds=data["rounds"],
            metrics={k: dict(v) for k, v in data["metrics"].items()},
            ok=data["ok"],
            messages=network.get("messages"),
            words=network.get("words"),
            active_node_rounds=network.get("active_node_rounds"),
            net_rounds=network.get("rounds"),
            certification=dict(certification)
            if certification is not None else None,
            queries=dict(queries) if queries is not None else None,
            observability=dict(observability)
            if observability is not None else None,
            load=dict(load) if load is not None else None,
        )


def _report_metrics(report: QualityReport) -> Dict[str, Dict[str, object]]:
    return {
        row.name: {"measured": row.measured, "bound": row.bound, "ok": row.ok}
        for row in report.rows
    }


def _observability_block(
    counters_before: Dict[str, float], spans_before: int
) -> Dict[str, object]:
    """The record's ``observability`` block: this record's metric activity.

    Counters report the *delta* over the record (the process-wide
    registry accumulates across a suite); gauges report their current
    level — a delta of a last-value-wins level is meaningless.
    Histograms are excluded on purpose: latency buckets are
    wall-clock-shaped, and this block must stay seeded-deterministic so
    BENCH reports byte-compare across identically-seeded runs.
    """
    metric_values: Dict[str, float] = {}
    for name, data in obs_metrics.snapshot().items():
        kind = data["type"]
        if kind == "counter":
            metric_values[name] = data["value"] - counters_before.get(name, 0)
        elif kind == "gauge":
            metric_values[name] = data["value"]
    return {
        "enabled": obs_trace.enabled(),
        "span_count": obs_trace.span_count() - spans_before,
        "metrics": metric_values,
    }


def run_profile(
    profile: Profile,
    tier: str,
    certify: bool = True,
    measure_memory: bool = True,
    certify_sample: Optional[float] = None,
    queries: bool = False,
    kernel: str = "python",
) -> ProfileRecord:
    """Execute ``profile`` at ``tier`` and return its record.

    The construction is wall-clock-timed with :mod:`tracemalloc` *off*
    (tracing slows allocation-heavy Python severalfold and would
    misrepresent real speed); when ``measure_memory`` is set the
    construction is then re-run — same seed, on a copy of the graph made
    before tracing starts, so the same work — under tracing to sample
    peak memory.  Pass ``measure_memory=False`` (``--no-mem``) to skip
    the second pass on expensive tiers; the record's
    ``peak_memory_bytes`` is then ``null``.

    ``certify_sample`` makes the bounded-radius stretch-certification
    engine of spanner-certified profiles certify a seeded fraction of
    the edges (see :func:`repro.analysis.certify.certify_edge_stretch`);
    other profiles ignore it.  The record's ``certification`` block
    reports what the engine actually did.

    ``queries=True`` additionally serves the tier's seeded query mix
    (:data:`repro.harness.queries.QUERY_MIXES`) through a
    :class:`~repro.oracle.DistanceOracle` built over the constructed
    structure, filling the record's ``queries`` block with latency
    percentiles, throughput and the cache hit/miss split; profiles whose
    algorithm produces no servable structure ignore the flag.

    ``kernel`` selects the SSSP backend (:mod:`repro.kernels`) that
    ``kernel-sssp`` profiles run their batched SSSP and residual on;
    every other profile ignores it, and stretch certification has one
    engine.  The default ``"python"`` keeps every committed baseline
    byte-stable; passing ``"numpy"``/``"auto"`` is the explicit opt-in.
    A ``kernel-sssp`` record's params carry the backend the name
    resolved to, as :func:`run_huge_profile`'s do, so a report says
    which kernel ran.

    Raises
    ------
    KeyError
        On an unknown tier or algorithm.
    ValueError
        On an out-of-range ``certify_sample``, or an unknown kernel for
        a ``kernel-sssp`` profile.
    RuntimeError
        When a ``kernel-sssp`` profile runs with ``kernel="numpy"`` and
        numpy is not installed.
    """
    if certify_sample is not None and not (0.0 < certify_sample <= 1.0):
        raise ValueError(f"certify_sample must be in (0, 1], got {certify_sample}")
    build, certify_fn = ALGORITHMS[profile.algorithm]
    params = profile.algo_params(tier)
    if (profile.algorithm in SPANNER_CERTIFIED_ALGORITHMS
            and certify_sample is not None):
        params["certify_sample"] = certify_sample
    if profile.algorithm in KERNEL_ALGORITHMS:
        params["kernel"] = resolve_kernel(kernel)

    counters_before = obs_metrics.scalars()
    spans_before = obs_trace.span_count()
    profile_span = obs_trace.span(
        "harness.profile", profile=profile.name, tier=tier
    )
    profile_span.__enter__()
    try:
        with obs_trace.timed_span("harness.generate") as t_gen:
            graph = profile.build_graph(tier)
        generation_seconds = t_gen.wall_s

        with obs_trace.timed_span("harness.build") as t_build:
            built = build(graph, params, random.Random(profile.seed))
        artifact, rounds = built[0], built[1]
        stats: Optional[NetStats] = built[2] if len(built) > 2 else None
        if stats is None and profile.algorithm in CONGEST_ALGORITHMS:
            # a congest build that forgets the NetStats element would
            # silently disable the messages/words/active-node-rounds
            # regression gate
            raise TypeError(
                f"CONGEST build {profile.algorithm!r} must return "
                f"(artifact, rounds, NetStats)"
            )
        construction_seconds = t_build.wall_s

        peak_memory: Optional[int] = None
        if measure_memory:
            with obs_trace.span("harness.memory"):
                # a fresh copy: nothing the timed pass cached on the
                # frozen view (MST, BFS trees) is reused
                fresh = graph.copy()
                tracemalloc_was_tracing = tracemalloc.is_tracing()
                if not tracemalloc_was_tracing:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                build(fresh, params, random.Random(profile.seed))
                _, peak_memory = tracemalloc.get_traced_memory()
                if not tracemalloc_was_tracing:
                    tracemalloc.stop()

        metrics: Dict[str, Dict[str, object]] = {}
        ok = True
        certification_seconds = 0.0
        certification: Optional[Dict[str, object]] = None
        if certify:
            with obs_trace.timed_span("harness.certify") as t_cert:
                report = certify_fn(graph, artifact, params)
            certification_seconds = t_cert.wall_s
            metrics = _report_metrics(report)
            ok = report.ok
            certification = getattr(report, "certification", None)

        query_block: Optional[Dict[str, object]] = None
        if queries and profile.algorithm in QUERYABLE_ALGORITHMS:
            structure = STRUCTURE_EXTRACTORS[profile.algorithm](artifact)
            with obs_trace.span("harness.queries"):
                query_block = run_query_workload(
                    structure, QUERY_MIXES[tier], seed=profile.seed
                )
    finally:
        profile_span.__exit__(None, None, None)

    return ProfileRecord(
        profile=profile.name,
        tier=tier,
        family=profile.family,
        algorithm=profile.algorithm,
        section=profile.section,
        seed=profile.seed,
        params=params,
        n=graph.n,
        m=graph.m,
        generation_seconds=generation_seconds,
        construction_seconds=construction_seconds,
        certification_seconds=certification_seconds,
        peak_memory_bytes=peak_memory,
        rounds=rounds,
        metrics=metrics,
        ok=ok,
        messages=stats.messages if stats is not None else None,
        words=stats.words if stats is not None else None,
        active_node_rounds=stats.active_node_rounds if stats is not None else None,
        net_rounds=stats.rounds if stats is not None else None,
        certification=certification,
        queries=query_block,
        observability=_observability_block(counters_before, spans_before),
    )


def run_suite(
    profiles: Optional[List[Profile]] = None,
    tier: str = "smoke",
    measure_memory: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    certify_sample: Optional[float] = None,
    queries: bool = False,
    kernel: str = "python",
) -> List[ProfileRecord]:
    """Run ``profiles`` (default: all registered) at ``tier`` in name order."""
    selected = profiles if profiles is not None else all_profiles()
    records: List[ProfileRecord] = []
    with obs_trace.span("harness.suite", tier=tier, profiles=len(selected)):
        for i, profile in enumerate(selected, start=1):
            record = run_profile(profile, tier,
                                 measure_memory=measure_memory,
                                 certify_sample=certify_sample,
                                 queries=queries, kernel=kernel)
            records.append(record)
            if progress is not None:
                status = "ok" if record.ok else "VIOLATED"
                rounds = "-" if record.rounds is None else str(record.rounds)
                progress(
                    f"[{i}/{len(selected)}] {profile.name:<24} "
                    f"n={record.n:<5} "
                    f"build {record.construction_seconds:7.3f}s  "
                    f"cert {record.certification_seconds:7.3f}s  "
                    f"rounds {rounds:>6}  {status}"
                )
    return records


def run_huge_profile(
    profile: Profile,
    kernel: str = "auto",
    cache_dir: Optional[str] = None,
) -> ProfileRecord:
    """Run ``profile``'s huge tier straight from the packed mmap format.

    The huge tier (10^6+ vertices) never materializes a
    :class:`WeightedGraph` — the workload is generated once into the
    versioned ``.rpg`` binary format (cached under ``cache_dir``, see
    :func:`repro.kernels.ensure_packed`), mmapped back as zero-copy CSR
    columns, and run through the same ``kernel-sssp`` build and
    certification as every other tier, on the columns as they are.  The
    record's generation time therefore covers pack-or-cache-hit,
    construction the batched SSSP, and certification the fixed-point
    residual check (residual 0 and no unsettled arcs certify every
    distance row exact).

    ``kernel`` defaults to ``"auto"`` — numpy when available, else the
    pure-Python kernel (slow at this scale, but correct).  The packed
    file's CRC is checked on load.

    Raises
    ------
    KeyError
        When ``profile`` does not define a huge tier.
    ValueError
        When the profile's family has no streaming packer.
    RuntimeError
        When ``kernel="numpy"`` and numpy is not installed.
    """
    if HUGE_TIER not in profile.tiers:
        raise KeyError(
            f"profile {profile.name!r} does not define a {HUGE_TIER!r} tier"
        )
    if profile.family != "ring-chords":
        raise ValueError(
            f"no streaming packer for family {profile.family!r}; the huge "
            f"tier currently runs the ring-chords family only"
        )
    gp = profile.graph_params(HUGE_TIER)
    n, chords = int(gp["n"]), int(gp["chords"])  # type: ignore[arg-type]
    params = profile.algo_params(HUGE_TIER)
    backend = resolve_kernel(kernel)
    params["kernel"] = backend

    counters_before = obs_metrics.scalars()
    spans_before = obs_trace.span_count()
    profile_span = obs_trace.span(
        "harness.profile", profile=profile.name, tier=HUGE_TIER, kernel=backend
    )
    profile_span.__enter__()
    try:
        with obs_trace.timed_span("harness.generate") as t_gen:
            path = ensure_packed(n, chords, profile.seed, cache_dir=cache_dir)
            pg = load_packed(path)
        generation_seconds = t_gen.wall_s
        try:
            with obs_trace.timed_span("harness.build") as t_build:
                artifact = _build_kernel_sssp(
                    pg, params, random.Random(profile.seed)
                )[0]
            with obs_trace.timed_span("harness.certify") as t_cert:
                report = _certify_kernel_sssp(pg, artifact, params)
            n_packed, m_arcs = pg.n, pg.m_arcs
        finally:
            pg.close()
    finally:
        profile_span.__exit__(None, None, None)

    return ProfileRecord(
        profile=profile.name,
        tier=HUGE_TIER,
        family=profile.family,
        algorithm=profile.algorithm,
        section=profile.section,
        seed=profile.seed,
        params=params,
        n=n_packed,
        m=m_arcs // 2,
        generation_seconds=generation_seconds,
        construction_seconds=t_build.wall_s,
        certification_seconds=t_cert.wall_s,
        peak_memory_bytes=None,
        rounds=None,
        metrics=_report_metrics(report),
        ok=report.ok,
        certification={
            "mode": "fixed-point",
            "kernel": backend,
            "sources": int(report.metric("sources").measured),
            "unsettled_arcs": int(report.metric("unsettled-arcs").measured),
            "packed_file": str(path),
        },
        observability=_observability_block(counters_before, spans_before),
    )
