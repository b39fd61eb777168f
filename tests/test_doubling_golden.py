"""Golden output of the §7 doubling spanner (greedy nets).

The digests below were recorded before the §7 hot paths were rewritten
(cached rounded-weight column, radius-bounded greedy nets, early-stopping
path walk).  Those rewrites promise byte-identical output, so any change
to the spanner's edges, its round ledger or its per-scale statistics on
these inputs fails here.
"""

import hashlib
import json
import random

import pytest

from repro.core import doubling_spanner
from repro.graphs import random_geometric_graph
from repro.harness.profiles import get_profile

#: name -> (edges, ledger.by_phase(), per-scale (net_size, paths_added,
#: max_overlap)) sha256 digests, plus the plain edge and scale counts
GOLDEN = {
    "geo1": (
        "3451125f9b67ccd2111709d452c42721286935fbed8dce6822f4edc7f02b4cfd",
        "b7332167292ea7dc66a2ec30702a2f1c871437260211281dd4ec7245b2caf2c6",
        "8f5c6633b7bbf4dbc1c8737430c8f5a047f6f5977748714fbc368ebdb622e0dc",
        215, 79,
    ),
    "geo2": (
        "1514bd6e8aa8c6d2bf306101e975ae7fdc79f533f8562945af64692f19354ce7",
        "fa3b621a6b8ee4e549d4caf8d9ef3817e4721a9e3005d433bb899e279b25e910",
        "56c4c3720733dd3e1207c3833bbba4d71b5956a3f20d054e404ff7479b6f05e7",
        221, 77,
    ),
    "geo3": (
        "20c161baf91e6ddffaf58fe99609223528c4a8086d20afada20da1c6952079c9",
        "dba4976cbc88f87837325197f0f34fc88006d0a97476b7d4e38748a714ff49c2",
        "88ca054b9141476b247bc4230d3ed439c90c78936632e6827fb799a938c6e2aa",
        216, 79,
    ),
    "grid-smoke": (
        "6f8dce16faceb8323fc1f828c62af561c7711c4afa42ef2a2b042593b86d088f",
        "24dced84f4c6ab88f8b5d1bb0f8d19ba9d72272da7bf60fba8f2bfb69199efe6",
        "ec255b7bdde447b2f0df6e7a211ffdcb2a31500193a5e2120853f8f07fff390c",
        40, 36,
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _build(name):
    if name == "grid-smoke":
        profile = get_profile("doubling-grid")
        graph, eps, seed = profile.build_graph("smoke"), 0.1, profile.seed
    else:
        seed = int(name[len("geo"):])
        graph, eps = random_geometric_graph(30, seed=seed), 0.08
    return doubling_spanner(graph, eps, random.Random(seed), net_method="greedy")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_doubling_spanner_matches_golden(name):
    edges, ledger, per_scale, m, num_scales = GOLDEN[name]
    res = _build(name)
    lines = sorted(f"{u!r} {v!r} {w!r}\n" for u, v, w in res.spanner.edges())
    assert (res.spanner.m, len(res.scales)) == (m, num_scales)
    assert _sha256("".join(lines)) == edges
    assert _sha256(json.dumps(res.ledger.by_phase(), sort_keys=True)) == ledger
    assert _sha256(json.dumps(
        [[s.net_size, s.paths_added, s.max_overlap] for s in res.scales]
    )) == per_scale
