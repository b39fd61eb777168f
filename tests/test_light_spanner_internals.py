"""White-box tests for the §5 clustering machinery."""

import math
import random

import pytest

from repro.core.light_spanner import (
    _bucket_sweep,
    _case1_clusters,
    _case2_clusters,
)
from repro.graphs import WeightedGraph, dijkstra, erdos_renyi_graph, random_tree
from repro.mst import kruskal_mst
from repro.traversal import compute_euler_tour


@pytest.fixture
def tour():
    g = erdos_renyi_graph(40, 0.2, seed=21)
    mst = kruskal_mst(g)
    return mst, compute_euler_tour(mst, 0)


def _bucket_of(weights, big_l, n, eps):
    """Run the bucket sweep over a star whose spokes carry ``weights``:
    each weight's bucket index, ``"E'"`` or ``None``, and the caps."""
    g = WeightedGraph(range(len(weights) + 1))
    for leaf, w in enumerate(weights, start=1):
        g.add_edge(0, leaf, w)
    low_edges, bucket_edges, caps = _bucket_sweep(g.freeze(), big_l, n, eps)
    where = {v: "E'" for _u, v in low_edges}
    for i, edges in bucket_edges.items():
        where.update((v, i) for _u, v, _w in edges)
    return [where.get(leaf) for leaf in range(1, len(weights) + 1)], caps


class TestBucketSweep:
    def test_boundaries(self):
        # w = L lands in bucket 0; w just above L/(1+eps) too; w =
        # L/(1+eps) lands in bucket 1; L/n is E'; above L is no bucket
        where, _ = _bucket_of([1000.0, 801.0, 800.0, 10.0, 1000.5], 1000.0, 100, 0.25)
        assert where == [0, 0, 1, "E'", None]

    @pytest.mark.parametrize("w", [999.9, 512.3, 100.0, 3.7, 1.0])
    def test_invariant_holds(self, w):
        big_l, eps = 1000.0, 0.25
        (i,), caps = _bucket_of([w], big_l, 10000, eps)
        assert big_l / (1 + eps) ** (i + 1) < w <= big_l / (1 + eps) ** i
        assert caps[i + 1] < w <= caps[i]

    def test_many_random_weights(self):
        rng = random.Random(0)
        big_l, eps, n = 5000.0, 0.1, 5000
        weights = [rng.uniform(1.0 + 1e-9, big_l) for _ in range(200)]
        where, caps = _bucket_of(weights, big_l, n, eps)
        assert caps == [big_l / (1 + eps) ** i for i in range(len(caps))]
        for w, i in zip(weights, where):
            assert big_l / (1 + eps) ** (i + 1) < w <= big_l / (1 + eps) ** i


class TestCase1Clusters:
    def test_weak_diameter_bound(self, tour):
        """§5 case 1: any two vertices of a cluster are within ε·w_i in
        the MST metric."""
        mst, t = tour
        eps_wi = t.length / 7.0
        cluster_of = _case1_clusters(t, eps_wi)
        by_cluster = {}
        for v, c in cluster_of.items():
            by_cluster.setdefault(c, []).append(v)
        for members in by_cluster.values():
            dist, _ = dijkstra(mst, members[0])
            for v in members:
                assert dist[v] <= eps_wi + 1e-9

    def test_cluster_count_bound(self, tour):
        """At most ⌈L/(ε·w_i)⌉ + 1 clusters (§5 case 1)."""
        _, t = tour
        for denom in (3.0, 10.0, 30.0):
            eps_wi = t.length / denom
            clusters = set(_case1_clusters(t, eps_wi).values())
            assert len(clusters) <= math.ceil(t.length / eps_wi) + 1

    def test_every_vertex_clustered(self, tour):
        _, t = tour
        cluster_of = _case1_clusters(t, t.length / 5.0)
        assert set(cluster_of) == set(t.tree.vertices())


class TestCase2Clusters:
    def test_weak_diameter_bound(self, tour):
        mst, t = tour
        eps_wi = t.length / 9.0
        cluster_of, _ = _case2_clusters(t, eps_wi, index_stride=7)
        by_cluster = {}
        for v, c in cluster_of.items():
            by_cluster.setdefault(c, []).append(v)
        for members in by_cluster.values():
            dist, _ = dijkstra(mst, members[0])
            for v in members:
                assert dist[v] <= eps_wi + 1e-9

    def test_interval_hop_length_bounded_by_stride(self, tour):
        """Condition 2 caps every communication interval at the index
        stride."""
        _, t = tour
        for stride in (3, 8, 20):
            _, max_interval = _case2_clusters(t, t.length / 4.0, stride)
            assert max_interval <= stride

    def test_position_zero_is_center(self, tour):
        _, t = tour
        cluster_of, _ = _case2_clusters(t, t.length / 4.0, 9)
        assert cluster_of[t.order[0]] == 0

    def test_centers_are_cluster_ids(self, tour):
        """Cluster ids are center positions; every member's first
        appearance is at or after its center."""
        _, t = tour
        cluster_of, _ = _case2_clusters(t, t.length / 6.0, 11)
        for v, c in cluster_of.items():
            assert any(j >= c for j in t.appearances[v])

    def test_fine_scale_every_position_is_center(self):
        """When ε·w_i is below the smallest edge weight, every position
        crosses a boundary and becomes its own center."""
        tree = random_tree(12, seed=3, min_weight=5.0, max_weight=9.0)
        t = compute_euler_tour(tree, 0)
        cluster_of, max_interval = _case2_clusters(t, 1.0, index_stride=10 ** 9)
        assert max_interval == 1
