"""Hypothesis property tests for the CONGEST primitives.

Random trees + random payload assignments: the pipelined primitives must
deliver exactly the right multiset of messages within the Lemma-1 round
budget, and the keyed convergecast must keep every key's maximum, on
every sample.  The Bellman–Ford program's properties live with it in
``tests/test_bellman_ford.py``.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    broadcast_messages,
    build_bfs_tree,
    convergecast_messages,
)
from repro.congest.keyed_aggregate import keyed_max_convergecast
from repro.graphs import WeightedGraph

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def trees_with_payloads(draw, min_n=2, max_n=14, max_msgs=3):
    n = draw(st.integers(min_n, max_n))
    g = WeightedGraph(range(n))
    for v in range(1, n):
        g.add_edge(draw(st.integers(0, v - 1)), v, 1.0)
    payloads = {}
    for v in range(n):
        count = draw(st.integers(0, max_msgs))
        if count:
            payloads[v] = [f"p{v}.{i}" for i in range(count)]
    return g, payloads


class TestPipelineProperties:
    @given(trees_with_payloads())
    @settings(**_SETTINGS)
    def test_convergecast_delivers_exact_multiset(self, case):
        g, payloads = case
        tree = build_bfs_tree(g, 0)
        received, rounds = convergecast_messages(g, tree, payloads)
        expected = sorted(m for msgs in payloads.values() for m in msgs)
        assert sorted(received) == expected
        total = len(expected)
        assert rounds <= total + tree.height + 4

    @given(trees_with_payloads())
    @settings(**_SETTINGS)
    def test_broadcast_everyone_gets_everything(self, case):
        g, payloads = case
        tree = build_bfs_tree(g, 0)
        received, rounds = broadcast_messages(g, tree, payloads)
        expected = sorted(m for msgs in payloads.values() for m in msgs)
        for v in g.vertices():
            assert sorted(received[v]) == expected
        assert rounds <= len(expected) + 2 * tree.height + 4


class TestKeyedAggregateProperties:
    @given(
        trees_with_payloads(max_msgs=0),
        st.integers(1, 5),
        st.integers(0, 10),
    )
    @settings(**_SETTINGS)
    def test_max_per_key(self, case, num_keys, seed):
        g, _ = case
        tree = build_bfs_tree(g, 0)
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(num_keys)]
        inputs = {
            v: {k: (rng.random(), f"s{v}") for k in keys if rng.random() < 0.6}
            for v in g.vertices()
        }
        inputs = {v: d for v, d in inputs.items() if d}
        merged, rounds = keyed_max_convergecast(g, tree, inputs)
        for k in keys:
            contributions = [d[k] for d in inputs.values() if k in d]
            if contributions:
                assert merged[k] == max(contributions)
            else:
                assert k not in merged
        assert rounds <= num_keys + 2 * tree.height + 8
