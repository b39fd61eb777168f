"""Golden certificates of the bounded-radius certification engine.

The records below were taken from the engine before a search could close
a target at its first witness path, except ``edges_resolved``, which was
added from the engine that closed a target when a relaxation reached the
target itself, before a search could look one hop ahead.  A search may
stop earlier, but the certificate must not change: ``max_stretch`` is
compared bit for bit through ``float.hex``, ``bound_exceeded`` and every
``Certification.to_dict()`` entry recorded here must be equal (so the
set of targets closed before being settled keeps its size), and
``fallbacks`` (searches that crossed the §5.1 radius and kept going) may
only go down.

The two ``doubling-*`` records were re-recorded once, on purpose, when
§7's explorations became one-label searches and its scales were anchored
at the lightest weight (``tests/test_doubling_golden.py``): the spanner
keeps 234 of the graph's 327 edges where it kept 240, and its certified
stretch is bit for bit the same.
"""

import functools
import random

import pytest

from repro.analysis import certify_edge_stretch
from repro.core import doubling_spanner, light_spanner
from repro.graphs import WeightedGraph, erdos_renyi_graph, random_geometric_graph
from repro.mst import kruskal_mst
from repro.spanners.baswana_sen import baswana_sen_spanner


@functools.lru_cache(maxsize=None)
def _light(seed):
    """ER(400, 0.08) and its light_spanner(k=3, ε=0.25)."""
    graph = erdos_renyi_graph(400, 0.08, seed=seed)
    res = light_spanner(graph, 3, 0.25, random.Random(seed))
    return graph, res.spanner, res.stretch_bound


@functools.lru_cache(maxsize=None)
def _doubling():
    """A 30-point geometric graph and its §7 doubling spanner (ε=0.08)."""
    graph = random_geometric_graph(30, seed=7)
    res = doubling_spanner(graph, 0.08, rng=random.Random(7), net_method="greedy")
    return graph, res.spanner, res.stretch_bound


@functools.lru_cache(maxsize=None)
def _mst():
    """ER(120, 0.1, seed=4) and its MST, a spanner violating small bounds."""
    graph = erdos_renyi_graph(120, 0.1, seed=4)
    return graph, kruskal_mst(graph)


@functools.lru_cache(maxsize=None)
def _random_subgraph():
    """A seeded 60% edge subgraph spanning every vertex: disconnected."""
    graph = erdos_renyi_graph(80, 0.04, seed=6)
    rng = random.Random(6)
    kept = [(u, v) for u, v, _w in sorted(graph.edges()) if rng.random() < 0.6]
    return graph, graph.edge_subgraph(kept)


@functools.lru_cache(maxsize=None)
def _strings():
    """ER(150, 0.1, seed=8) and its Baswana–Sen k=2 spanner, both
    relabelled ``v000``…"""
    base = erdos_renyi_graph(150, 0.1, seed=8)
    spanner = baswana_sen_spanner(base, 2, random.Random(8))

    def relabel(g):
        out = WeightedGraph(f"v{v:03d}" for v in g.vertices())
        for u, v, w in g.edges():
            out.add_edge(f"v{u:03d}", f"v{v:03d}", w)
        return out

    return relabel(base), relabel(spanner)


def _case(name):
    """``(graph, spanner, certify_edge_stretch keyword arguments)``."""
    if name.startswith("light"):
        _, seed, mode = name.split("-")
        graph, spanner, bound = _light(int(seed))
        kwargs = {"exact": {}, "bounded": {"bound": bound},
                  "failfast": {"bound": bound, "fail_fast": True}}[mode]
        return graph, spanner, kwargs
    if name.startswith("doubling"):
        graph, spanner, bound = _doubling()
        return graph, spanner, {} if name.endswith("exact") else {"bound": bound}
    if name.startswith("mst"):
        graph, spanner = _mst()
        return graph, spanner, {
            "mst-bounded": {"bound": 2.0},
            "mst-failfast": {"bound": 1.5, "fail_fast": True},
        }[name]
    if name == "subgraph60-exact":
        return (*_random_subgraph(), {})
    graph, spanner = _strings()
    return graph, spanner, {} if name.endswith("exact") else {"bound": 3.0}


#: name -> (max_stretch.hex(), bound_exceeded, recorded to_dict() entries)
GOLDEN = {
    'light-1-exact': ('0x1.0b9e0c9d75379p+0', False, {
        'mode': 'exact', 'bound': None, 'sample': None,
        'edges_total': 6742, 'edges_in_spanner': 6208,
        'edges_checked': 534, 'edges_resolved': 533,
        'sources_explored': 242, 'sources_short_circuited': 158,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-1-bounded': ('0x1.0b9e0c9d75379p+0', False, {
        'mode': 'bounded', 'bound': 10.0, 'sample': None,
        'edges_total': 6742, 'edges_in_spanner': 6208,
        'edges_checked': 534, 'edges_resolved': 533,
        'sources_explored': 242, 'sources_short_circuited': 158,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-1-failfast': ('0x1.0b9e0c9d75379p+0', False, {
        'mode': 'bounded', 'bound': 10.0, 'sample': None,
        'edges_total': 6742, 'edges_in_spanner': 6208,
        'edges_checked': 534, 'edges_resolved': 533,
        'sources_explored': 242, 'sources_short_circuited': 158,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-2-exact': ('0x1.40b817ded8392p+0', False, {
        'mode': 'exact', 'bound': None, 'sample': None,
        'edges_total': 6687, 'edges_in_spanner': 6402,
        'edges_checked': 285, 'edges_resolved': 284,
        'sources_explored': 173, 'sources_short_circuited': 227,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-2-bounded': ('0x1.40b817ded8392p+0', False, {
        'mode': 'bounded', 'bound': 10.0, 'sample': None,
        'edges_total': 6687, 'edges_in_spanner': 6402,
        'edges_checked': 285, 'edges_resolved': 284,
        'sources_explored': 173, 'sources_short_circuited': 227,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-2-failfast': ('0x1.40b817ded8392p+0', False, {
        'mode': 'bounded', 'bound': 10.0, 'sample': None,
        'edges_total': 6687, 'edges_in_spanner': 6402,
        'edges_checked': 285, 'edges_resolved': 284,
        'sources_explored': 173, 'sources_short_circuited': 227,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-3-exact': ('0x1.0000000000000p+0', False, {
        'mode': 'exact', 'bound': None, 'sample': None,
        'edges_total': 6791, 'edges_in_spanner': 6508,
        'edges_checked': 283, 'edges_resolved': 283,
        'sources_explored': 182, 'sources_short_circuited': 218,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-3-bounded': ('0x1.0000000000000p+0', False, {
        'mode': 'bounded', 'bound': 10.0, 'sample': None,
        'edges_total': 6791, 'edges_in_spanner': 6508,
        'edges_checked': 283, 'edges_resolved': 283,
        'sources_explored': 182, 'sources_short_circuited': 218,
        'fallbacks': 0, 'sampled_edges': None}),
    'light-3-failfast': ('0x1.0000000000000p+0', False, {
        'mode': 'bounded', 'bound': 10.0, 'sample': None,
        'edges_total': 6791, 'edges_in_spanner': 6508,
        'edges_checked': 283, 'edges_resolved': 283,
        'sources_explored': 182, 'sources_short_circuited': 218,
        'fallbacks': 0, 'sampled_edges': None}),
    'doubling-exact': ('0x1.0e64f1a7d75e1p+0', False, {
        'mode': 'exact', 'bound': None, 'sample': None,
        'edges_total': 327, 'edges_in_spanner': 234,
        'edges_checked': 93, 'edges_resolved': 0,
        'sources_explored': 26, 'sources_short_circuited': 4,
        'fallbacks': 0, 'sampled_edges': None}),
    'doubling-bounded': ('0x1.0e64f1a7d75e1p+0', False, {
        'mode': 'bounded', 'bound': 3.4, 'sample': None,
        'edges_total': 327, 'edges_in_spanner': 234,
        'edges_checked': 93, 'edges_resolved': 0,
        'sources_explored': 26, 'sources_short_circuited': 4,
        'fallbacks': 0, 'sampled_edges': None}),
    'mst-bounded': ('0x1.6ec0ebbba7c3cp+3', False, {
        'mode': 'bounded', 'bound': 2.0, 'sample': None,
        'edges_total': 818, 'edges_in_spanner': 119,
        'edges_checked': 699, 'edges_resolved': 195,
        'sources_explored': 108, 'sources_short_circuited': 12,
        'fallbacks': 30, 'sampled_edges': None}),
    'mst-failfast': ('inf', True, {
        'mode': 'bounded', 'bound': 1.5, 'sample': None,
        'edges_total': 818, 'edges_in_spanner': 119,
        'edges_checked': 699, 'edges_resolved': 10,
        'sources_explored': 108, 'sources_short_circuited': 12,
        'fallbacks': 0, 'sampled_edges': None}),
    'subgraph60-exact': ('inf', False, {
        'mode': 'exact', 'bound': None, 'sample': None,
        'edges_total': 225, 'edges_in_spanner': 132,
        'edges_checked': 93, 'edges_resolved': 5,
        'sources_explored': 52, 'sources_short_circuited': 28,
        'fallbacks': 0, 'sampled_edges': None}),
    'strings-exact': ('0x1.09ccd19d9b6a2p+0', False, {
        'mode': 'exact', 'bound': None, 'sample': None,
        'edges_total': 1265, 'edges_in_spanner': 1207,
        'edges_checked': 58, 'edges_resolved': 57,
        'sources_explored': 43, 'sources_short_circuited': 107,
        'fallbacks': 0, 'sampled_edges': None}),
    'strings-bounded': ('0x1.09ccd19d9b6a2p+0', False, {
        'mode': 'bounded', 'bound': 3.0, 'sample': None,
        'edges_total': 1265, 'edges_in_spanner': 1207,
        'edges_checked': 58, 'edges_resolved': 57,
        'sources_explored': 43, 'sources_short_circuited': 107,
        'fallbacks': 0, 'sampled_edges': None}),
}


def _record(cert):
    return cert.max_stretch.hex(), cert.bound_exceeded, cert.to_dict()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_matches_golden(name):
    graph, spanner, kwargs = _case(name)
    want_hex, want_exceeded, want = GOLDEN[name]
    got_hex, got_exceeded, got = _record(
        certify_edge_stretch(graph, spanner, **kwargs))
    assert (got_hex, got_exceeded) == (want_hex, want_exceeded)
    assert set(got) == set(want)
    assert got["fallbacks"] <= want["fallbacks"]
    assert ({key: got[key] for key in want if key != "fallbacks"}
            == {key: value for key, value in want.items() if key != "fallbacks"})


def test_golden_covers_fallbacks_and_violations():
    assert GOLDEN["mst-bounded"][2]["fallbacks"] > 0
    assert GOLDEN["mst-failfast"][1]
    assert GOLDEN["subgraph60-exact"][0] == "inf"


@pytest.mark.parametrize("name", ["light-1-exact", "light-2-bounded",
                                  "doubling-exact", "mst-bounded"])
@pytest.mark.parametrize("exponent", [-40, 40])
def test_power_of_two_scaling_keeps_the_certificate(name, exponent):
    # multiplying every weight by 2^±40 is exact in floating point, so
    # every path sum and every ratio is unchanged bit for bit
    graph, spanner, kwargs = _case(name)
    factor = 2.0 ** exponent
    scaled = certify_edge_stretch(
        graph.reweighted(lambda u, v, w: w * factor),
        spanner.reweighted(lambda u, v, w: w * factor), **kwargs)
    assert scaled.max_stretch.hex() == GOLDEN[name][0]
    assert scaled.to_dict() == certify_edge_stretch(
        graph, spanner, **kwargs).to_dict()
