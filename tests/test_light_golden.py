"""Golden output of the §5 light spanner, the §4 SLT and Borůvka's ledger.

The digests below were recorded before the round charges that walk
clusters and MST fragments were rewritten to run in linear time (the
§5 ``per_cluster`` edge-collection charge, fragment and Borůvka
component hop diameters).  Those rewrites promise byte-identical
output, so any change to the edges, the round ledgers or the light
spanner's per-bucket statistics on these inputs fails here.  The
insertion-order digests hash ``list(graph.edges())`` unsorted, so they
also pin the order in which the MST and the spanner edges were added.

``RING_GOLDEN`` and the one-graph test were recorded before the BFS tree
τ was cached on the frozen graph, the Euler tour was walked once, the
rounded column took one logarithm per slot and the bucket sweep one
bisection per edge.  ``RING_GOLDEN``'s input puts §5 case-1 buckets
inside ``light_spanner``, which no other golden input does.
"""

import hashlib
import json
import random

import pytest

from repro.core import light_spanner, shallow_light_tree
from repro.graphs import erdos_renyi_graph
from repro.mst import boruvka_mst

#: name -> (edges, ledger.by_phase(), BucketStats (index, case,
#: num_clusters, spanner_edges, rounds)) sha256 digests, plus the plain
#: edge and bucket counts and the insertion-order edge digest
LIGHT_GOLDEN = {
    "er400-1": (
        "df2a03217b0bacd78eeef839dc8dd71f3a054348d8d7cafadc562bec6a59e312",
        "fcbc416cad320286af54d798e8eb3a168e596375c23913c35752146d596398b0",
        "dd031bda184d511341a7bf36ed37b9ebcd2f5e0c231b53553314afc7d72c951f",
        6208, 13,
        "5cce92c9eccc6793c7723c700e7b577c088a5a785c031ee3d9f8e71dd2eaca7c",
    ),
    "er400-2": (
        "737c820ada6fa6ee435422a1ea200548dcdbfa2256385d44c53c5532a5c842bf",
        "51e209c71a7efb20570f5de5e7c5c35f54ee10c54dd8b9883a9f9f643a2c87d4",
        "095a5f36e165d110a696cae2de6e69f0d904943b683ab182b8143a63e784124a",
        6402, 13,
        "d9d438d21e04633689a727cbb354c9c2a79616f87118b3d841b203a1f4b0df8c",
    ),
    "er400-3": (
        "3babacf8cba8434e03161f28690b378c738ac532776f4d632da6cebbfc60bebf",
        "366053ffbc70499bbc1012e804ede35031ace045959804c2c5cc744f371aa5e1",
        "f1bfada7fd09bfee6bb27b3f0166a03cda7ac17e4707e321ce55b8bbdbe372f4",
        6508, 12,
        "3719a48efdb2c6222f4ef53fe582e8383f5dc4bc8bcf39f3e2902f35cb6f3b56",
    ),
    "serve-mixed": (
        "0f9750e9c6a316b5cd2ab3cd1d003d29aae090205faa47d5c2ee6be85384ab03",
        "35d29d6b53de096b1e7341c84f0a2f3faaa99448e8cfe230fb30fdfcc697ab12",
        "96fac3d0c84a424b6eb853af147f6f846e3489ebab41b64c721676bc237798f2",
        5523, 7,
        "8c87a96d6d117f4586b6a78f82ed840f9f06455c6ec5ba7dd86e2a762a21f431",
    ),
}

#: light_spanner(k, ε=0.25, Random(1)) on the ``ring_with_chords``
#: fixture, k -> (edges, ledger, BucketStats with every field, edge
#: count, case-1 bucket indices, insertion-order edges)
RING_GOLDEN = {
    2: (
        "b79f21a0ad35872c419a1ecd228de6aab0c3a3fccc7b6013dadcaca181943721",
        "c169b3cad5aad31984132a0a6f8900bb0c7389d3dcc48b87fe8e5bb865b09718",
        "c7a1f5d4a857147d59d143daaec148b18d891cc5d1cd45baa874bebdad42d8be",
        1038, [6],
        "f23cfdf2a5cc504505e58439403c8635688ac0ff37d8c1644003b1e083dad3b4",
    ),
    3: (
        "f6923d0a2f48fe924101850b0bc0466a57357aa07e36f7217883fd787950d4ec",
        "09f35bb85c61297034a00a40e9e4882008d414a35aa6b7e1c1221e73e5e29ec9",
        "a8a6f9d28187ca6ad25181c917ed4218b6abcee3fb44e40fd817761e371e57fa",
        1037, [6, 7],
        "b198496b78b9c5642d7281dfedd2bd3906fab32e10523872de263495b97854cc",
    ),
}

#: shallow_light_tree(α=5) on ER(400, 0.08, seed=1): (edges, ledger,
#: insertion-order edges)
SLT_GOLDEN = (
    "cb59ab89b9166b33758090844f82384f39f4c62445621f76508fdf808d7f931f",
    "166ada8343a2d28b4939c1b5b71b63b694cc391e386d5d0430b73d48bc2d5544",
    "207e442d85e6df3d08e4f7cd7bc9b1a55bd794ba10def5d97392528cd6dccb2b",
)

#: boruvka_mst on ER(500, 0.02, seed=3): (ledger, phases)
BORUVKA_GOLDEN = (
    "9f8cb8ff89b1bbb419dc7f3a7e4b35d1268ba89169b5943d8a25113bb797d5d8", 4,
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _edge_lines(graph):
    return [f"{u!r} {v!r} {w!r}\n" for u, v, w in graph.edges()]


def _edges_digest(graph) -> str:
    return _sha256("".join(sorted(_edge_lines(graph))))


def _ordered_edges_digest(graph) -> str:
    return _sha256("".join(_edge_lines(graph)))


def _ledger_digest(ledger) -> str:
    return _sha256(json.dumps(ledger.by_phase(), sort_keys=True))


def _light_input(name):
    if name == "serve-mixed":
        return erdos_renyi_graph(1200, 0.006, seed=1200), 1200
    seed = int(name[len("er400-"):])
    return erdos_renyi_graph(400, 0.08, seed=seed), seed


def _assert_light_golden(res, name):
    edges, ledger, buckets, m, num_buckets, ordered = LIGHT_GOLDEN[name]
    assert (res.spanner.m, len(res.buckets)) == (m, num_buckets)
    assert _edges_digest(res.spanner) == edges
    assert _ordered_edges_digest(res.spanner) == ordered
    assert _ledger_digest(res.ledger) == ledger
    assert _sha256(json.dumps(
        [[b.index, b.case, b.num_clusters, b.spanner_edges, b.rounds]
         for b in res.buckets]
    )) == buckets


def _slt_digests(res):
    return (
        _edges_digest(res.tree), _ledger_digest(res.ledger),
        _ordered_edges_digest(res.tree),
    )


@pytest.mark.parametrize("name", sorted(LIGHT_GOLDEN))
def test_light_spanner_matches_golden(name):
    graph, seed = _light_input(name)
    _assert_light_golden(light_spanner(graph, 3, 0.25, random.Random(seed)), name)


@pytest.mark.parametrize("k", sorted(RING_GOLDEN))
def test_light_spanner_with_case1_buckets_matches_golden(ring_with_chords, k):
    edges, ledger, buckets, m, case1, ordered = RING_GOLDEN[k]
    res = light_spanner(ring_with_chords, k, 0.25, random.Random(1))
    assert res.spanner.m == m
    assert [b.index for b in res.buckets if b.case == 1] == case1
    assert _edges_digest(res.spanner) == edges
    assert _ordered_edges_digest(res.spanner) == ordered
    assert _ledger_digest(res.ledger) == ledger
    assert _sha256(json.dumps(
        [[b.index, b.weight_cap.hex(), b.num_edges, b.case, b.num_clusters,
          b.spanner_edges, b.rounds] for b in res.buckets]
    )) == buckets


def test_shallow_light_tree_matches_golden():
    graph = erdos_renyi_graph(400, 0.08, seed=1)
    res = shallow_light_tree(graph, min(graph.vertices(), key=repr), 5.0)
    assert _slt_digests(res) == SLT_GOLDEN


@pytest.mark.parametrize("slt_first", [True, False], ids=["slt-first", "spanner-first"])
def test_both_constructions_on_one_graph_match_fresh_goldens(slt_first):
    """One graph object through both constructions, as perfbench's
    light-er runs them: what the first leaves on the frozen view must not
    change the second's output."""
    graph = erdos_renyi_graph(400, 0.08, seed=1)
    root = min(graph.vertices(), key=repr)
    if slt_first:
        slt = shallow_light_tree(graph, root, 5.0)
        spanner = light_spanner(graph, 3, 0.25, random.Random(1))
    else:
        spanner = light_spanner(graph, 3, 0.25, random.Random(1))
        slt = shallow_light_tree(graph, root, 5.0)
    assert _slt_digests(slt) == SLT_GOLDEN
    _assert_light_golden(spanner, "er400-1")


def test_boruvka_ledger_matches_golden():
    res = boruvka_mst(erdos_renyi_graph(500, 0.02, seed=3))
    assert (_ledger_digest(res.ledger), res.phases) == BORUVKA_GOLDEN
