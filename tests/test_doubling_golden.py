"""Golden output of the §7 doubling spanner (greedy nets).

The digests below were recorded before the §7 hot paths were rewritten
(cached rounded-weight column, radius-bounded greedy nets, early-stopping
path walk).  The insertion-order digests and the ``doubling-geometric``
stress case were recorded before explorations were reused across scales.
Those rewrites promise byte-identical output, so any change to the
spanner's edges, the order they entered it, its round ledger or its
per-scale statistics on these inputs fails here.
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
        "3451125f9b67ccd2111709d452c42721286935fbed8dce6822f4edc7f02b4cfd",
        "6f4afff707b23e3177c3a9836872caec7bcf3035139e75a3f49cbcc999fa65c4",
        "b7332167292ea7dc66a2ec30702a2f1c871437260211281dd4ec7245b2caf2c6",
        "8f5c6633b7bbf4dbc1c8737430c8f5a047f6f5977748714fbc368ebdb622e0dc",
        215, 79,
    ),
    "geo2": (
        "1514bd6e8aa8c6d2bf306101e975ae7fdc79f533f8562945af64692f19354ce7",
        "b969f2cee60433369877b96b2c1c69ac77e9ce06d2f4997cdcbcd8800b2bdec0",
        "fa3b621a6b8ee4e549d4caf8d9ef3817e4721a9e3005d433bb899e279b25e910",
        "56c4c3720733dd3e1207c3833bbba4d71b5956a3f20d054e404ff7479b6f05e7",
        221, 77,
    ),
    "geo3": (
        "20c161baf91e6ddffaf58fe99609223528c4a8086d20afada20da1c6952079c9",
        "4f53cbe095ce9cbab661efa9e59b16a227cf245140325787fed377085181550b",
        "dba4976cbc88f87837325197f0f34fc88006d0a97476b7d4e38748a714ff49c2",
        "88ca054b9141476b247bc4230d3ed439c90c78936632e6827fb799a938c6e2aa",
        216, 79,
    ),
    "grid-smoke": (
        "6f8dce16faceb8323fc1f828c62af561c7711c4afa42ef2a2b042593b86d088f",
        "29d03d3dcf452aa074855de92dacdaf704f11d6c4eba6ad29539cdc9f6b58354",
        "24dced84f4c6ab88f8b5d1bb0f8d19ba9d72272da7bf60fba8f2bfb69199efe6",
        "ec255b7bdde447b2f0df6e7a211ffdcb2a31500193a5e2120853f8f07fff390c",
        40, 36,
    ),
    "geo-stress": (
        "d9a1d06834a079446896003a8782d4cf3d9650b69446143c1479cd4090768b30",
        "3ba5aa9accfe88a481faa796a261d9b0fe36db9f3cb73e0e93bf946b572ec709",
        "c840d56d6ba4f1a59bb850bc8e8c0a7d75531c201a9d4f2991ddaa19bea1e23c",
        "4290187b7cb1c04eb61bc15303e21b91737bc471c4fa0f3a1155493ae337df63",
        1039, 86,
    ),
}

#: name -> (explorations run, net-point visits).  An exploration re-runs
#: only once the scale's radius reaches the clip of its last run, so a
#: weaker reuse rule raises the first count.
EXPLORATIONS = {
    "geo1": (551, 2303),
    "geo2": (591, 2266),
    "geo3": (556, 2241),
    "grid-smoke": (250, 900),
    "geo-stress": (2426, 6769),
}


#: name -> net-point visits that walk their tree into the spanner.  A
#: visit walks only when the net changed since the last scale or the
#: point's exploration re-ran, so a weaker carry-over rule raises the
#: count toward the visits of :data:`EXPLORATIONS`.
WALKS = {
    "geo1": 683,
    "geo2": 768,
    "geo3": 770,
    "grid-smoke": 250,
    "geo-stress": 3996,
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
def test_explorations_rerun_only_past_their_clip(name, monkeypatch):
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
