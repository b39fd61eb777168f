"""The three workloads: their inputs, constructions and certification.

One *iteration* is the user's construction path on one input graph:
construct (the paper's algorithms), certify (``repro.analysis``
reports, python kernel) and build a :class:`~repro.oracle.DistanceOracle`
over the served spanner.  Inputs are drawn from the run's seed; the
``serve-mixed`` structure is the one fixed input, so its serving
numbers compare the same structure on every seed while the seed draws
the query mix and the arrival schedule.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Tuple

from repro.analysis import slt_report, spanner_report
from repro.core import doubling_spanner, light_spanner, shallow_light_tree
from repro.graphs import (
    WeightedGraph, dijkstra, erdos_renyi_graph, random_geometric_graph,
)
from repro.oracle import DistanceOracle
from speed import Speed

#: Paper parameters.
SLT_ALPHA = 5.0
SPANNER_K, SPANNER_EPS = 3, 0.25
DOUBLING_EPS = 0.08

#: Input sizes.
ER_N, ER_P = 400, 0.08
GEO_N = 30
SERVE_N, SERVE_P, SERVE_GRAPH_SEED = 1200, 0.006, 1200

#: Seed for claims made after a change was written (never tuned on).
HELD_OUT_SEED = 9973

#: Oracle answers checked against Dijkstra on the structure, per iteration.
ORACLE_CHECKS = 16

SpanFn = Callable[[str], ContextManager[None]]


def no_span(_name: str) -> ContextManager[None]:
    """The untraced pass's span: nothing recorded."""
    return contextlib.nullcontext()


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input graph of a run seeded ``seed``."""
    return seed * 1_000_003 + index


def edge_digest(graph: WeightedGraph) -> str:
    """sha256 of the canonical edge list (sorted ``u v repr(w)`` lines)."""
    lines = sorted(
        f"{min(u, v)} {max(u, v)} {w!r}\n" for u, v, w in graph.edges()
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def phase_group(phase: str) -> str:
    """The ``rounds.<group>`` a ledger phase name is reported under."""
    if phase.startswith("tour:"):
        return "tour"
    if phase.startswith(("bucket", "E':")):
        return "buckets"
    if phase.startswith("scale"):
        return "scales"
    if "approx-spt" in phase:
        return "approx-spt"
    if phase.startswith("mst"):
        return "mst"
    if "bfs" in phase:
        return "bfs"
    return "other"


@dataclass
class Structure:
    """One construction's output, certified."""

    kind: str  # "slt" | "light" | "doubling"
    graph: WeightedGraph
    phases: Dict[str, int]
    stretch: float = math.nan
    lightness: float = math.nan
    certification: Dict[str, Any] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return sum(self.phases.values())

    def grouped_rounds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for phase, r in self.phases.items():
            group = phase_group(phase)
            out[group] = out.get(group, 0) + r
        return out


@dataclass
class Iteration:
    """Timings, outputs and bound violations of one iteration.

    The three step times are reference seconds (see :mod:`speed`);
    ``wall`` holds the same steps' raw wall seconds.
    """

    index: int
    construct_s: float
    certify_s: float
    oracle_build_s: float
    wall: Tuple[float, float, float]
    structures: List[Structure]
    served: Structure
    violations: List[str]
    full_net_scales: int = 0
    scales: int = 0

    @property
    def rounds(self) -> int:
        return sum(s.rounds for s in self.structures)

    def digest_lines(self, workload: str) -> List[str]:
        out = []
        for s in self.structures:
            ledger = hashlib.sha256(
                json.dumps(s.phases, sort_keys=True).encode()
            ).hexdigest()
            out.append(
                f"digest {workload} iter={self.index} {s.kind} "
                f"edges={edge_digest(s.graph)} ledger={ledger} "
                f"rounds={json.dumps(s.grouped_rounds(), sort_keys=True)}"
            )
        return out


def _check(ok: bool, what: str, violations: List[str]) -> None:
    if not ok:
        violations.append(what)


def _check_oracle(oracle: DistanceOracle, graph: WeightedGraph, key: int,
                  violations: List[str]) -> None:
    """The oracle's answers from one seeded source equal Dijkstra's."""
    rng = random.Random(key)
    vertices = sorted(graph.vertices(), key=repr)
    source = rng.choice(vertices)
    dist, _parents = dijkstra(graph, source)
    for target in rng.sample(vertices, min(ORACLE_CHECKS, len(vertices))):
        got, want = oracle.query(source, target), dist.get(target, math.inf)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            violations.append(f"oracle: d({source},{target}) = {got} != {want}")
            return


def _certify_spanner(
    graph: WeightedGraph, result: Any, kind: str, formula: float,
    violations: List[str], span: SpanFn,
) -> Structure:
    with span("analysis.certify_spanner"):
        report = spanner_report(
            graph, result.spanner, stretch_bound=result.stretch_bound,
            certify_kernel="python",
        )
    stretch = report.metric("stretch")
    _check(abs(result.stretch_bound - formula) <= 1e-9,
           f"{kind}: stretch bound {result.stretch_bound} != {formula}",
           violations)
    _check(stretch.ok, f"{kind}: stretch {stretch.measured} > {formula}",
           violations)
    return Structure(
        kind, result.spanner, result.ledger.by_phase(),
        stretch=stretch.measured,
        lightness=report.metric("lightness").measured,
        certification=dict(report.certification or {}),
    )


class Workload:
    """A workload: how to make its inputs and what one iteration runs."""

    name = ""
    #: iterations every run makes; deterministic metrics use exactly these
    min_iterations = 1
    #: True when the workload also serves what it built over a socket
    serves = False
    #: iterations of the traced pass (fixed, so traced counts repeat)
    traced_iterations = 1

    def make_input(self, seed: int, index: int) -> WeightedGraph:
        raise NotImplementedError

    def construct(
        self, graph: WeightedGraph, key: int, span: SpanFn
    ) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def certify(
        self, graph: WeightedGraph, built: List[Tuple[str, Any]],
        violations: List[str], span: SpanFn,
    ) -> List[Structure]:
        raise NotImplementedError

    def iterate(
        self, graph: WeightedGraph, index: int, key: int, speed: Speed,
        span: SpanFn = no_span,
    ) -> Iteration:
        """Construct, certify and build the oracle; time each step.

        The oracle's answers are spot-checked outside the timed steps.
        """
        violations: List[str] = []
        built, c_wall, c_ref = speed.timed(
            lambda: self.construct(graph, key, span))
        structures, v_wall, v_ref = speed.timed(
            lambda: self.certify(graph, built, violations, span))
        served = structures[-1]

        def build() -> DistanceOracle:
            with span("oracle.build"):
                return DistanceOracle.build(served.graph, kernel="auto")

        oracle, o_wall, o_ref = speed.timed(build)
        _check_oracle(oracle, served.graph, key, violations)
        it = Iteration(index, c_ref, v_ref, o_ref, (c_wall, v_wall, o_wall),
                       structures, served, violations)
        for kind, result in built:
            if kind == "doubling":
                it.scales = len(result.scales)
                it.full_net_scales = sum(
                    1 for s in result.scales if s.net_size == graph.n
                )
        return it


class LightER(Workload):
    """§4 SLT and §5 light spanner on seeded Erdős–Rényi graphs."""

    name = "light-er"
    min_iterations = 30
    traced_iterations = 4

    def make_input(self, seed: int, index: int) -> WeightedGraph:
        return erdos_renyi_graph(ER_N, ER_P, seed=input_seed(seed, index))

    def construct(self, graph, key, span):
        root = min(graph.vertices(), key=repr)
        with span("core.slt"):
            slt = shallow_light_tree(graph, root, SLT_ALPHA)
        with span("core.light_spanner"):
            spanner = light_spanner(
                graph, SPANNER_K, SPANNER_EPS, rng=random.Random(key)
            )
        return [("slt", slt), ("light", spanner)]

    def certify(self, graph, built, violations, span):
        (_, slt), (_, spanner) = built
        with span("analysis.certify_slt"):
            report = slt_report(
                graph, slt.tree, slt.root, slt.stretch_bound,
                slt.lightness_bound,
            )
        root_stretch = report.metric("root-stretch")
        lightness = report.metric("lightness")
        _check(root_stretch.ok,
               f"slt: root-stretch {root_stretch.measured} > {slt.stretch_bound}",
               violations)
        _check(lightness.ok,
               f"slt: lightness {lightness.measured} > {slt.lightness_bound}",
               violations)
        tree = Structure("slt", slt.tree, slt.ledger.by_phase(),
                         stretch=root_stretch.measured,
                         lightness=lightness.measured)
        formula = (2 * SPANNER_K - 1) * (1.0 + 4.0 * SPANNER_EPS)
        return [tree, _certify_spanner(graph, spanner, "light", formula,
                                       violations, span)]


class DoublingGeo(Workload):
    """§7 doubling spanner (greedy nets) on seeded geometric graphs."""

    name = "doubling-geo"
    min_iterations = 16
    traced_iterations = 4

    def make_input(self, seed: int, index: int) -> WeightedGraph:
        return random_geometric_graph(GEO_N, seed=input_seed(seed, index))

    def construct(self, graph, key, span):
        with span("core.doubling"):
            result = doubling_spanner(
                graph, DOUBLING_EPS, rng=random.Random(key), net_method="greedy"
            )
        return [("doubling", result)]

    def certify(self, graph, built, violations, span):
        (_, result), = built
        formula = 1.0 + 30.0 * DOUBLING_EPS
        return [_certify_spanner(graph, result, "doubling", formula,
                                 violations, span)]


class ServeMixed(Workload):
    """A fixed §5 spanner served under a hot/cold query mix."""

    name = "serve-mixed"
    min_iterations = 12
    serves = True
    traced_iterations = 2

    def make_input(self, seed: int, index: int) -> WeightedGraph:
        return erdos_renyi_graph(SERVE_N, SERVE_P, seed=SERVE_GRAPH_SEED)

    def construct(self, graph, key, span):
        with span("core.light_spanner"):
            spanner = light_spanner(
                graph, SPANNER_K, SPANNER_EPS,
                rng=random.Random(SERVE_GRAPH_SEED),
            )
        return [("light", spanner)]

    def certify(self, graph, built, violations, span):
        (_, spanner), = built
        formula = (2 * SPANNER_K - 1) * (1.0 + 4.0 * SPANNER_EPS)
        return [_certify_spanner(graph, spanner, "light", formula,
                                 violations, span)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (LightER(), DoublingGeo(), ServeMixed())
}
