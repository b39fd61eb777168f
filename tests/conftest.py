"""Shared fixtures: a zoo of small graphs every suite exercises."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    WeightedGraph,
    caterpillar_graph,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_of_cliques,
    star_graph,
)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def triangle():
    g = WeightedGraph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(0, 2, 2.5)
    return g


@pytest.fixture
def small_er():
    return erdos_renyi_graph(30, 0.25, seed=7)


@pytest.fixture
def medium_er():
    return erdos_renyi_graph(60, 0.15, seed=11)


@pytest.fixture
def geometric():
    return random_geometric_graph(40, seed=3)


@pytest.fixture
def grid():
    return grid_graph(6, 6, jitter=0.3, seed=5)


@pytest.fixture
def star_with_rim():
    return star_graph(12, spoke_weight=10.0, rim_weight=1.0)


@pytest.fixture
def heavy_ring():
    return ring_of_cliques(4, 5, intra_weight=1.0, inter_weight=40.0)


@pytest.fixture
def caterpillar():
    return caterpillar_graph(10, legs_per_vertex=2)


@pytest.fixture
def ring_with_chords():
    """A 1000-vertex ring with edge weights 1 + U[0, 10⁻³) and 40 chords
    weighted by their ring distance (seed 1).

    Its chords are heavy next to the MST's weight, so ``light_spanner``
    puts some of them in case-1 buckets: bucket 6 at k=2, buckets 6 and
    7 at k=3 (ε=0.25).
    """
    n, chords = 1000, 40
    rng = random.Random(1)
    g = WeightedGraph(range(n))
    for v in range(n):
        g.add_edge(v, (v + 1) % n, 1.0 + 1e-3 * rng.random())
    while g.m < n + chords:
        u = rng.randrange(n)
        d = rng.randint(2, n // 2)
        if not g.has_edge(u, (u + d) % n):
            g.add_edge(u, (u + d) % n, float(d))
    return g


@pytest.fixture(
    params=["er", "geometric", "grid", "ring", "star"],
    ids=["erdos-renyi", "geometric", "grid", "ring-of-cliques", "star-rim"],
)
def workload(request):
    """Parametrized workload used by the integration-style suites."""
    if request.param == "er":
        return erdos_renyi_graph(25, 0.3, seed=1)
    if request.param == "geometric":
        return random_geometric_graph(25, seed=2)
    if request.param == "grid":
        return grid_graph(5, 5, jitter=0.5, seed=3)
    if request.param == "ring":
        return ring_of_cliques(3, 5, inter_weight=25.0)
    return star_graph(14, spoke_weight=8.0, rim_weight=1.0)
