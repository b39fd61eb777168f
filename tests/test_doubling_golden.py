"""Golden output of the §7 doubling spanner (greedy nets).

The digests below were first recorded before the §7 hot paths were
rewritten, and every rewrite since has promised byte-identical output,
so any change to the spanner's edges, the order they entered it, its
round ledger or its per-scale statistics on these inputs fails here.

They were re-recorded once, on purpose, when two changes moved the
output together.  The explorations became one-label searches: Dijkstra
over the rounded weights, settling every vertex whose rounded distance
is at most 2Δ, where the earlier search chose paths on rounded weights
but pruned them on true weights (DESIGN.md, "§7 doubling spanner", the
stretch argument).  And the scales were anchored at the lightest
weight, Δ_i = w_min·(1+ε)^i, where they were anchored at Δ = 1, which
renames the ledger's per-scale phases.  Every re-recorded output
certifies at most 1 + 30ε (the largest stretch read 1.0612 on ``geo3``).
"""

import hashlib
import importlib
import json
import random

import pytest

from repro.core import doubling_spanner
from repro.graphs import random_geometric_graph
from repro.harness.profiles import get_profile

#: name -> (sorted edges, edges in the order ``spanner.edges()`` yields
#: them, ledger.by_phase(), per-scale (net_size, paths_added, max_overlap))
#: sha256 digests, plus the plain edge and scale counts.  The yield order
#: follows the order edges entered the spanner, which ``freeze()`` and
#: everything built on the spanner read.
GOLDEN = {
    "geo1": (
        "9c1dee86a3168f429dff77044c090081ee34eefa73805067f462ae99e21d42bf",
        "cf4a5c97ca13dd0990549469dc95fc3104c26fd60f285884934d0916bc06446f",
        "8dd3b8c3a1200142b3d7521495a78e4474bc178bce146b385d0dde924c790c7c",
        "3d85c8f8b1c2d185d31e8ad521870cbf6bb8cb14f8f54ffb48f910318b82cce5",
        214, 69,
    ),
    "geo2": (
        "3a69964bbac442b577d1ff5dbe8be8bc627b21b6859f068f71a16ded928a941b",
        "9cfc0e5c564bf1632b5709f64478d59c29ddf834c77b0eed40a6e7f12625405c",
        "9ac9a10ed5fcc6195ab4830b571990f90cec4ddd1a1f2d5b2feb7f76aba12051",
        "33dc5ee0d311b54c655e7674849fd283ce99a10ae61cbe82290aa6cfd78a3fc9",
        217, 64,
    ),
    "geo3": (
        "a3b15b1f212a55f84c44b9896e3b70997b616f7124fd0800b8610c7d31a11779",
        "0050996746a9c62e87d6ef0303b494df1fa8d2386b8bfd7b6737a8c236dba607",
        "a4e9acde37eff29c8bb87b84151d02131d766d281e68f2abf8a378f2c4789e4e",
        "0a9d45bd4544c0263dcafb368235a890d0a2e02fd853af9afe8bb75bc9ddb72e",
        213, 66,
    ),
    "grid-smoke": (
        "6f8dce16faceb8323fc1f828c62af561c7711c4afa42ef2a2b042593b86d088f",
        "29d03d3dcf452aa074855de92dacdaf704f11d6c4eba6ad29539cdc9f6b58354",
        "bbb85080189184b2905fe287f5c12b0cb79da25b1408eb85677edf13b7338a58",
        "9bf985266d69ad372a867138882c240983852f686f809efe781152fcc9d4e961",
        40, 36,
    ),
    "geo-stress": (
        "17344b80471ab6e1fd67b6aa07bf03b9e2c9999b94c10a065c8f56e0f385e2c7",
        "6fc3e17e5d79d1ec1f7e42dfa49f7a2015514f746f42aae52c0a398bc5ab6afe",
        "21315d14160b209a825f0f6b9f3f42bbc034fd34280a4819867b3f7bf98d4d35",
        "284d1bc0571afbad3b21eb644a4596fc829865cfd34d8b982b5a36a0cbfaa8c2",
        993, 86,
    ),
}

#: name -> (searches started, net-point visits).  A net point's search
#: starts the first time the point joins the net and resumes at every
#: later scale it is in, so every input starts one search per vertex
#: (each is in the net at the first scale); a rule that re-ran searches
#: raises the first count (532 on ``geo1`` under the rule that re-ran a
#: search once the radius reached its clip).
EXPLORATIONS = {
    "geo1": (30, 2002),
    "geo2": (30, 1873),
    "geo3": (30, 1858),
    "grid-smoke": (25, 900),
    "geo-stress": (90, 6769),
}


#: name -> net-point visits that walk their tree into the spanner.  A
#: visit walks only when the net changed since the last scale or the
#: point's search settled more, so a weaker carry-over rule raises the
#: count toward the visits of :data:`EXPLORATIONS`.
WALKS = {
    "geo1": 664,
    "geo2": 741,
    "geo3": 705,
    "grid-smoke": 257,
    "geo-stress": 3987,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _build(name):
    if name == "grid-smoke":
        profile = get_profile("doubling-grid")
        graph, eps, seed = profile.build_graph("smoke"), 0.1, profile.seed
    elif name == "geo-stress":
        profile = get_profile("doubling-geometric")
        graph, seed = profile.build_graph("stress"), profile.seed
        eps = profile.params["eps"]
    else:
        seed = int(name[len("geo"):])
        graph, eps = random_geometric_graph(30, seed=seed), 0.08
    return doubling_spanner(graph, eps, random.Random(seed), net_method="greedy")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_doubling_spanner_matches_golden(name):
    edges, ordered, ledger, per_scale, m, num_scales = GOLDEN[name]
    res = _build(name)
    lines = [f"{u!r} {v!r} {w!r}\n" for u, v, w in res.spanner.edges()]
    assert (res.spanner.m, len(res.scales)) == (m, num_scales)
    assert _sha256("".join(sorted(lines))) == edges
    assert _sha256("".join(lines)) == ordered
    assert _sha256(json.dumps(res.ledger.by_phase(), sort_keys=True)) == ledger
    assert _sha256(json.dumps(
        [[s.net_size, s.paths_added, s.max_overlap] for s in res.scales]
    )) == per_scale


@pytest.mark.parametrize("name", sorted(EXPLORATIONS))
def test_each_search_starts_once(name, monkeypatch):
    module = importlib.import_module("repro.core.doubling_spanner")
    original = module.bounded_approx_spt
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "bounded_approx_spt", counted)
    res = _build(name)
    visits = sum(s.net_size for s in res.scales)
    assert (len(runs), visits) == EXPLORATIONS[name]


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walks_only_where_the_net_or_the_tree_changed(name, monkeypatch):
    module = importlib.import_module("repro.core.doubling_spanner")
    original = module._walk
    walks = []

    def counted(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(module, "_walk", counted)
    _build(name)
    assert len(walks) == WALKS[name]
