"""Named, seeded workload profiles — the single source of scenario truth.

A :class:`Profile` pins down one benchmarkable scenario: a graph family,
per-tier generator parameters, an algorithm, its parameters, and a seed.
Everything that runs workloads — ``python -m repro bench``, the
``benchmarks/bench_*.py`` tables, CI smoke runs — resolves scenarios
through this registry, so a workload is defined in exactly one place and
every consumer agrees on what, say, ``spanner-er`` means.

Three size tiers are mandatory for every profile:

``smoke``
    Seconds-per-profile sizes for CI and the test-suite.
``table1``
    The sizes the Table-1 benchmark tables historically used.
``stress``
    The largest sizes the pure-Python constructions handle in minutes.

The built-ins span every construction in the repository (§4 SLT, §5
light spanner, §6 nets, §7 doubling spanner, §8 estimation, the
Baswana–Sen / Elkin–Neiman / greedy spanner building blocks, Borůvka
MST, and the CONGEST simulator's BFS fan-out) across nine graph
families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.graphs import (
    WeightedGraph,
    caterpillar_graph,
    das_sarma_hard_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    power_law_graph,
    random_geometric_graph,
    ring_chords_graph,
    ring_of_cliques,
    star_graph,
)

#: The mandatory size tiers, smallest first.  A profile may define extra
#: tiers beyond these; ``"huge"`` (10^6–10^7 nodes, which
#: :func:`repro.harness.runner.run_profile` reads from the packed mmap
#: format instead of building) is the convention for sizes only the
#: array kernels can touch.
TIERS: Tuple[str, ...] = ("smoke", "table1", "stress")

#: the optional out-of-band tier name whose graph run_profile mmaps.
HUGE_TIER = "huge"


def _seedless(builder: Callable[..., WeightedGraph]) -> Callable[..., WeightedGraph]:
    """Adapt a deterministic generator to the uniform ``seed=`` calling shape."""

    def build(seed: Optional[int] = None, **kwargs: Any) -> WeightedGraph:
        return builder(**kwargs)

    return build


def _lower_bound_graph(seed: Optional[int] = None, **kwargs: Any) -> WeightedGraph:
    graph, _mst_weight = das_sarma_hard_graph(seed=seed, **kwargs)
    return graph


#: family name -> generator taking ``seed=`` plus family-specific kwargs.
FAMILIES: Dict[str, Callable[..., WeightedGraph]] = {
    "er": erdos_renyi_graph,
    "grid": grid_graph,
    "geometric": random_geometric_graph,
    "power-law": power_law_graph,
    "hypercube": hypercube_graph,
    "lower-bound": _lower_bound_graph,
    "star": _seedless(star_graph),
    "caterpillar": _seedless(caterpillar_graph),
    "ring-of-cliques": _seedless(ring_of_cliques),
    "ring-chords": ring_chords_graph,
}


@dataclass(frozen=True)
class Profile:
    """One named scenario: graph family × per-tier size × algorithm × params.

    Attributes
    ----------
    name:
        Registry key (kebab-case, unique).
    section:
        The paper anchor the scenario exercises (e.g. ``"§5"``).
    family:
        A key of :data:`FAMILIES`.
    algorithm:
        A key of :data:`repro.harness.runner.ALGORITHMS`.
    params:
        Algorithm parameters shared by all tiers.
    tiers:
        ``tier -> generator kwargs`` for every tier in :data:`TIERS`.
    tier_params:
        Optional per-tier overrides merged over ``params``.
    seed:
        Seed for both graph generation and the algorithm's RNG.
    """

    name: str
    description: str
    section: str
    family: str
    algorithm: str
    params: Mapping[str, object]
    tiers: Mapping[str, Mapping[str, object]]
    seed: int = 0
    tier_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)

    def graph_params(self, tier: str) -> Dict[str, object]:
        """Generator kwargs for ``tier`` (raises KeyError on unknown tier)."""
        if tier not in self.tiers:
            raise KeyError(f"profile {self.name!r} has no tier {tier!r}")
        return dict(self.tiers[tier])

    def algo_params(self, tier: str) -> Dict[str, object]:
        """Algorithm params for ``tier`` (base params + tier overrides)."""
        merged = dict(self.params)
        merged.update(self.tier_params.get(tier, {}))
        return merged

    def build_graph(self, tier: str, **overrides: Any) -> WeightedGraph:
        """Generate the tier's workload graph, deterministically.

        ``overrides`` patch individual generator kwargs (including
        ``seed``) — benchmark sweeps use this to vary one axis while the
        scenario definition stays here.
        """
        kwargs = self.graph_params(tier)
        kwargs.update(overrides)
        seed = kwargs.pop("seed", self.seed)
        return FAMILIES[self.family](seed=seed, **kwargs)


_REGISTRY: Dict[str, Profile] = {}


def register(profile: Profile) -> Profile:
    """Add ``profile`` to the registry (rejects duplicates / bad refs)."""
    if profile.name in _REGISTRY:
        raise ValueError(f"duplicate profile name {profile.name!r}")
    if profile.family not in FAMILIES:
        raise ValueError(f"profile {profile.name!r}: unknown family {profile.family!r}")
    missing = [t for t in TIERS if t not in profile.tiers]
    if missing:
        raise ValueError(f"profile {profile.name!r}: missing tiers {missing}")
    _REGISTRY[profile.name] = profile
    return profile


def get_profile(name: str) -> Profile:
    """Look up a profile by name (raises KeyError with suggestions)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown profile {name!r}; known profiles: {known}") from None


def profile_names() -> List[str]:
    """All registered profile names, sorted."""
    return sorted(_REGISTRY)


def all_profiles() -> List[Profile]:
    """All registered profiles, sorted by name."""
    return [_REGISTRY[name] for name in profile_names()]


def congest_profiles() -> List[Profile]:
    """The CONGEST-layer profiles (``python -m repro bench --suite congest``).

    Selected by algorithm: everything that executes message-level on a
    :class:`~repro.congest.simulator.SyncNetwork`, so a profile added for
    a new node program is picked up automatically.
    """
    return [p for p in all_profiles() if p.algorithm.startswith("congest-")]


def huge_profiles() -> List[Profile]:
    """Profiles defining the optional huge tier (``--suite huge``)."""
    return [p for p in all_profiles() if HUGE_TIER in p.tiers]


# ---------------------------------------------------------------------------
# Built-in profiles
# ---------------------------------------------------------------------------

register(Profile(
    name="slt-er",
    description="§4 shallow-light tree on an ER graph, lightness budget 5",
    section="§4",
    family="er",
    algorithm="slt",
    params={"alpha": 5.0},
    seed=7,
    tiers={
        "smoke": {"n": 40, "p": 0.2},
        "table1": {"n": 80, "p": 0.2},
        "stress": {"n": 240, "p": 0.05},
    },
))

register(Profile(
    name="slt-star-rim",
    description="§4 SLT on the star+rim family (MST root-stretch is terrible)",
    section="§4",
    family="star",
    algorithm="slt",
    params={"alpha": 2.0},
    tiers={
        "smoke": {"n": 24, "spoke_weight": 10.0, "rim_weight": 1.0},
        "table1": {"n": 40, "spoke_weight": 10.0, "rim_weight": 1.0},
        "stress": {"n": 160, "spoke_weight": 10.0, "rim_weight": 1.0},
    },
))

register(Profile(
    name="slt-caterpillar",
    description="§4 SLT on a heavy-spine caterpillar (long MST root paths)",
    section="§4",
    family="caterpillar",
    algorithm="slt",
    params={"alpha": 3.0},
    tiers={
        "smoke": {"spine": 10, "legs_per_vertex": 2},
        "table1": {"spine": 30, "legs_per_vertex": 3},
        "stress": {"spine": 80, "legs_per_vertex": 4},
    },
))

register(Profile(
    name="spanner-er",
    description="§5 light spanner (k=2) on a dense ER graph",
    section="§5",
    family="er",
    algorithm="light-spanner",
    params={"k": 2, "eps": 0.25},
    seed=100,
    tiers={
        "smoke": {"n": 40, "p": 0.3},
        "table1": {"n": 80, "p": 0.8},
        "stress": {"n": 200, "p": 0.15},
    },
))

register(Profile(
    name="spanner-geometric",
    description="§5 light spanner (k=2) on a doubling (geometric) workload",
    section="§5",
    family="geometric",
    algorithm="light-spanner",
    params={"k": 2, "eps": 0.25},
    seed=5,
    tiers={
        "smoke": {"n": 30},
        "table1": {"n": 60},
        "stress": {"n": 150},
    },
))

register(Profile(
    name="spanner-power-law",
    description="§5 light spanner (k=3) on a preferential-attachment graph",
    section="§5",
    family="power-law",
    algorithm="light-spanner",
    params={"k": 3, "eps": 0.25},
    seed=12,
    tiers={
        "smoke": {"n": 40, "attach": 2},
        "table1": {"n": 90, "attach": 3},
        "stress": {"n": 220, "attach": 3},
    },
))

register(Profile(
    name="net-er",
    description="§6 (α, β)-net at Δ=25 on an ER graph",
    section="§6",
    family="er",
    algorithm="net",
    params={"scale": 25.0, "delta": 0.5},
    seed=10,
    tiers={
        "smoke": {"n": 36, "p": 0.2},
        "table1": {"n": 70, "p": 0.2},
        "stress": {"n": 200, "p": 0.08},
    },
))

register(Profile(
    name="net-geometric",
    description="§6 (α, β)-net at Δ=40 on a geometric workload",
    section="§6",
    family="geometric",
    algorithm="net",
    params={"scale": 40.0, "delta": 0.5},
    seed=3,
    tiers={
        "smoke": {"n": 40},
        "table1": {"n": 100},
        "stress": {"n": 220},
    },
))

register(Profile(
    name="doubling-geometric",
    description="§7 doubling spanner (ε=0.08) on a ddim≈2 geometric workload",
    section="§7",
    family="geometric",
    algorithm="doubling-spanner",
    params={"eps": 0.08, "net_method": "greedy"},
    seed=21,
    tiers={
        "smoke": {"n": 24},
        "table1": {"n": 40},
        "stress": {"n": 90},
    },
))

register(Profile(
    name="doubling-grid",
    description="§7 doubling spanner (ε=0.1) on a jittered grid",
    section="§7",
    family="grid",
    algorithm="doubling-spanner",
    params={"eps": 0.1, "net_method": "greedy"},
    seed=11,
    tiers={
        "smoke": {"rows": 5, "cols": 5, "jitter": 0.3},
        "table1": {"rows": 8, "cols": 8, "jitter": 0.3},
        "stress": {"rows": 14, "cols": 14, "jitter": 0.3},
    },
))

register(Profile(
    name="estimate-lower-bound",
    description="§8 MST-weight estimation on the [DSHK+12] hard family",
    section="§8",
    family="lower-bound",
    algorithm="estimate",
    params={"net_method": "greedy"},
    seed=1,
    tiers={
        "smoke": {"n": 60, "planted_weight": 100.0},
        "table1": {"n": 120, "planted_weight": 100.0},
        "stress": {"n": 300, "planted_weight": 10_000.0},
    },
))

register(Profile(
    name="baswana-sen-er",
    description="[BS07] (2k−1)-spanner building block (k=3) on an ER graph",
    section="§5 (E′ bucket)",
    family="er",
    algorithm="baswana-sen",
    params={"k": 3},
    seed=41,
    tiers={
        "smoke": {"n": 40, "p": 0.25},
        "table1": {"n": 60, "p": 0.3},
        "stress": {"n": 400, "p": 0.05},
    },
))

register(Profile(
    name="elkin-neiman-hypercube",
    description="[EN17b] unweighted spanner (k=3) on a hypercube",
    section="§5 (case-1 rounds)",
    family="hypercube",
    algorithm="elkin-neiman",
    params={"k": 3},
    seed=2,
    tiers={
        "smoke": {"dim": 5},
        "table1": {"dim": 7},
        "stress": {"dim": 9},
    },
))

register(Profile(
    name="greedy-spanner-er",
    description="[ADD+93] greedy 3-spanner baseline on an ER graph",
    section="baseline",
    family="er",
    algorithm="greedy-spanner",
    params={"k": 2},
    seed=13,
    tiers={
        "smoke": {"n": 40, "p": 0.3},
        "table1": {"n": 80, "p": 0.3},
        "stress": {"n": 160, "p": 0.15},
    },
))

register(Profile(
    name="mst-ring-of-cliques",
    description="Borůvka MST where lightness and sparsity pull apart",
    section="§3 substrate",
    family="ring-of-cliques",
    algorithm="mst",
    params={},
    tiers={
        "smoke": {"num_cliques": 4, "clique_size": 5},
        "table1": {"num_cliques": 8, "clique_size": 8},
        "stress": {"num_cliques": 16, "clique_size": 16},
    },
))

register(Profile(
    name="kernel-sssp-ring",
    description="batched SSSP + fixed-point residual certification on the "
                "ring-chords family (the repro.kernels showcase; its huge "
                "tier runs from the packed mmap format)",
    section="substrate",
    family="ring-chords",
    algorithm="kernel-sssp",
    params={"kernel": "python", "sources": 4},
    seed=0,
    tiers={
        "smoke": {"n": 400, "chords": 3},
        "table1": {"n": 5_000, "chords": 4},
        "stress": {"n": 60_000, "chords": 5},
        HUGE_TIER: {"n": 1_000_000, "chords": 6},
    },
    tier_params={
        "table1": {"sources": 6},
        "stress": {"sources": 8},
        HUGE_TIER: {"sources": 8},
    },
))

register(Profile(
    name="congest-bfs-grid",
    description="CONGEST simulator fan-out: distributed BFS tree on a grid",
    section="§2 model",
    family="grid",
    algorithm="congest-bfs",
    params={},
    tiers={
        "smoke": {"rows": 6, "cols": 6},
        "table1": {"rows": 10, "cols": 10},
        "stress": {"rows": 20, "cols": 20},
    },
))

register(Profile(
    name="congest-broadcast",
    description="Lemma-1 pipelined broadcast over a BFS tree on a deep grid "
                "(few messages, many rounds — most nodes idle in most rounds)",
    section="§2 Lemma 1",
    family="grid",
    algorithm="congest-broadcast",
    params={"messages": 4},
    seed=17,
    tiers={
        "smoke": {"rows": 6, "cols": 6},
        "table1": {"rows": 16, "cols": 16},
        "stress": {"rows": 60, "cols": 60},
    },
    tier_params={
        "table1": {"messages": 8},
        "stress": {"messages": 12},
    },
))

register(Profile(
    name="congest-convergecast",
    description="Lemma-1 pipelined convergecast on a long caterpillar "
                "(activity hugs the spine path to the root)",
    section="§2 Lemma 1",
    family="caterpillar",
    algorithm="congest-convergecast",
    params={"messages": 6},
    seed=23,
    tiers={
        "smoke": {"spine": 12, "legs_per_vertex": 2},
        "table1": {"spine": 60, "legs_per_vertex": 3},
        "stress": {"spine": 300, "legs_per_vertex": 4},
    },
    tier_params={
        "table1": {"messages": 16},
        "stress": {"messages": 32},
    },
))

register(Profile(
    name="congest-interval-scan",
    description="§4.1 break-point interval scan: ~√n parallel tokens walk "
                "the MST Euler tour (only token holders are ever active)",
    section="§4.1",
    family="geometric",
    algorithm="congest-interval-scan",
    params={"eps": 0.5, "eps_spt": 0.5},
    seed=9,
    tiers={
        "smoke": {"n": 30},
        "table1": {"n": 120},
        "stress": {"n": 400},
    },
))

register(Profile(
    name="congest-cluster-round",
    description="§5 case-1 cluster-graph [EN17b] rounds at message level "
                "(convergecast + broadcast phases over the BFS tree)",
    section="§5 case 1",
    family="er",
    algorithm="congest-cluster-round",
    params={"k": 2, "eps": 0.25},
    seed=31,
    tiers={
        "smoke": {"n": 25, "p": 0.25},
        "table1": {"n": 60, "p": 0.15},
        "stress": {"n": 140, "p": 0.08},
    },
))
