"""Weighted-graph substrate: core data structure, distances, generators.

Everything in the repository operates on :class:`~repro.graphs.weighted_graph.WeightedGraph`,
a small adjacency-map graph tuned for the algorithms in the paper
(MST, Euler tours, spanners, nets).  Converters to/from ``networkx``
are provided for cross-validation in the test-suite.
"""

from repro.graphs.weighted_graph import WeightedGraph, canonical_edge
from repro.graphs.csr import CSRGraph
from repro.graphs.shortest_paths import (
    dijkstra,
    bounded_dijkstra,
    all_pairs_shortest_paths,
    eccentricity,
    hop_distances,
    hop_diameter,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    grid_graph,
    erdos_renyi_graph,
    random_geometric_graph,
    unit_ball_graph,
    random_tree,
    caterpillar_graph,
    ring_of_cliques,
    hypercube_graph,
    power_law_graph,
    random_regular_graph,
    barbell_graph,
    ring_chord_offsets,
    ring_chord_weight,
    ring_chords_graph,
)
from repro.graphs.lower_bound_family import das_sarma_hard_graph
from repro.graphs.doubling import (
    doubling_dimension_estimate,
    ball,
    packing_number,
)

__all__ = [
    "WeightedGraph",
    "CSRGraph",
    "canonical_edge",
    "dijkstra",
    "bounded_dijkstra",
    "all_pairs_shortest_paths",
    "eccentricity",
    "hop_distances",
    "hop_diameter",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "grid_graph",
    "erdos_renyi_graph",
    "random_geometric_graph",
    "unit_ball_graph",
    "random_tree",
    "caterpillar_graph",
    "ring_of_cliques",
    "hypercube_graph",
    "power_law_graph",
    "random_regular_graph",
    "barbell_graph",
    "ring_chord_offsets",
    "ring_chord_weight",
    "ring_chords_graph",
    "das_sarma_hard_graph",
    "doubling_dimension_estimate",
    "ball",
    "packing_number",
]
