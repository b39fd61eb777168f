"""§7 scales carry their walks and participation count across scales.

``doubling_spanner`` walks a net point's tree into the spanner only
when the net changed since the last scale or the point's search settled
more, and keeps one per-vertex participation count that a net point's
settled list enters and leaves with the point or its search.  The tests
below log, per scale, the net, the points whose search settled more and
the points that walked, and check those rules on an input whose greedy
net drops a point and takes it back and on one whose net stays while
only some of its searches settle more.  On both, the construction must
also equal the loop that runs a fresh search and walks every net point
at every scale (``tests/test_doubling_spanner.py``, which compares it
with that loop on more inputs, the golden ones among them).
"""

import importlib
import random
from typing import Set

from repro.core.doubling_spanner import doubling_spanner
from repro.core.nets import greedy_net
from repro.graphs import erdos_renyi_graph, random_geometric_graph
from repro.graphs.weighted_graph import Vertex

from test_doubling_spanner import assert_same_as_every_exploration, golden_input

DOUBLING = importlib.import_module("repro.core.doubling_spanner")


def _scale_log(graph, eps, seed, monkeypatch):
    """Per scale of a greedy-net construction: the net, the net points
    whose search settled vertices it had not settled before (a search
    that starts settles at least its source), and the net points that
    walked."""
    log, searches, sizes = [], {}, []
    net, start, walk = DOUBLING.greedy_net, DOUBLING.bounded_approx_spt, DOUBLING._walk

    def logged_net(g, radius):
        sizes.append({v: len(search.reached) for v, search in searches.items()})
        points = net(g, radius)
        log.append((set(points), set()))
        return points

    def logged_start(csr, sources, radius, e):
        search = searches[sources[0]] = start(csr, sources, radius, e)
        return search

    def logged_walk(spanner, g, verts, points, rank, u, memo, radius):
        log[-1][1].add(verts[u])
        return walk(spanner, g, verts, points, rank, u, memo, radius)

    with monkeypatch.context() as patch:
        patch.setattr(DOUBLING, "greedy_net", logged_net)
        patch.setattr(DOUBLING, "bounded_approx_spt", logged_start)
        patch.setattr(DOUBLING, "_walk", logged_walk)
        doubling_spanner(graph, eps, random.Random(seed), net_method="greedy")
    sizes.append({v: len(search.reached) for v, search in searches.items()})
    return [(points, {v for v, k in after.items() if k > before.get(v, 0)}, walked)
            for (points, walked), before, after in zip(log, sizes, sizes[1:])]


#: a greedy net that drops a point and takes it back at a later scale
REJOIN = (lambda: erdos_renyi_graph(20, 0.2, seed=1), 0.08, 1)
#: nets that stay from one scale to the next while only some of their
#: searches settle more
PARTIAL = (lambda: random_geometric_graph(12, seed=1), 0.08, 1)


class TestCarriedStateParity:
    def test_a_net_point_that_leaves_and_rejoins(self, monkeypatch):
        make, eps, seed = REJOIN
        log = _scale_log(make(), eps, seed, monkeypatch)
        # (its search settled more, walked) per point and scale it rejoins at
        rejoins = []
        gone: Set[Vertex] = set()
        for (before, _grew, _walked), (after, grew, walked) in zip(log, log[1:]):
            rejoins += [(v in grew, v in walked) for v in after & gone]
            gone = (gone | (before - after)) - after
        # some point comes back with the tree it kept, which re-enters
        # the count, and every point that comes back walks again
        assert (False, True) in rejoins
        assert all(walked for _ran, walked in rejoins)
        assert_same_as_every_exploration(make(), eps, seed, "greedy")

    def test_a_net_that_stays_while_some_searches_settle_more(self, monkeypatch):
        make, eps, seed = PARTIAL
        log = _scale_log(make(), eps, seed, monkeypatch)
        partial = [(net, grew, walked) for (last, _g, _w), (net, grew, walked)
                   in zip(log, log[1:]) if net == last and 0 < len(grew) < len(net)]
        assert partial
        # over an unchanged net, exactly the points whose search settled
        # more walk
        assert all(walked == grew for _net, grew, walked in partial)
        assert_same_as_every_exploration(make(), eps, seed, "greedy")


class TestWalks:
    def test_a_visit_walks_only_where_the_net_or_its_tree_changed(self, monkeypatch):
        graph, eps, seed = golden_input("geo1")
        log = _scale_log(graph, eps, seed, monkeypatch)
        last: Set[Vertex] = set()
        for net, grew, walked in log:
            assert walked == (net if net != last else grew)
            last = net
