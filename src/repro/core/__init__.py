"""The paper's contributions: SLT (§4), light spanner (§5), nets (§6),
doubling spanner (§7), and the §8 lower-bound reduction."""

from repro.core.slt import SLTResult, slt_base, shallow_light_tree
from repro.core.bfn_reduction import bfn_reweighted_graph, bfn_bounds
from repro.core.light_spanner import LightSpannerResult, BucketStats, light_spanner
from repro.core.nets import NetInvariantError, NetResult, build_net, greedy_net
from repro.core.doubling_spanner import DoublingSpannerResult, doubling_spanner
from repro.core.net_hierarchy import NetHierarchy, NetLevel, build_net_hierarchy
from repro.core.cluster_simulation import (
    ClusterSimulationResult,
    simulate_case1_bucket,
)
from repro.core.lower_bounds import (
    MSTWeightEstimate,
    estimate_mst_weight_via_nets,
    congest_round_floor,
)

__all__ = [
    "SLTResult",
    "slt_base",
    "shallow_light_tree",
    "bfn_reweighted_graph",
    "bfn_bounds",
    "LightSpannerResult",
    "BucketStats",
    "light_spanner",
    "NetInvariantError",
    "NetResult",
    "build_net",
    "greedy_net",
    "DoublingSpannerResult",
    "doubling_spanner",
    "NetHierarchy",
    "NetLevel",
    "build_net_hierarchy",
    "ClusterSimulationResult",
    "simulate_case1_bucket",
    "MSTWeightEstimate",
    "estimate_mst_weight_via_nets",
    "congest_round_floor",
]
