"""Golden output of the §6 net construction and of the §7 spanner built on it.

``build_net`` deactivates, each iteration, every active vertex whose
path in a (1+δ)-approximate bounded exploration from the new net points
weighs at most (1+δ)·Δ, and reads only which vertices those are.  So
every net point, the iteration count, the per-iteration active counts
and the round ledger must stay as recorded, here and in the
distributed-net doubling spanner, which calls ``build_net`` at every
scale.

The LE lists' permutation is drawn by shuffling the active set in the
graph's vertex order, no longer in the active set's iteration order
(which depends on ``PYTHONHASHSEED`` for string vertices).  That moved
``net-geometric`` at smoke, whose points were ``[3, 5, 14, 18, 19]``.

The values were re-recorded once, on purpose, when the exploration
became a one-label search: Dijkstra over the weights rounded up to
powers of 1+δ, where the earlier search chose paths on rounded weights
but pruned them on true ones.  It runs to (1+δ)²·Δ, where it has settled
every tree path whose true weight is at most (1+δ)·Δ, and such a path
still deactivates its vertex.  The earlier search could route around a
rounded path that was too heavy, so ``net-geometric`` at table1 keeps 6
vertices active for its second iteration where it kept 5 (its points
were ``[35, 41, 55, 58]``); every other net above is as it was.  The §7
spanners below moved with the §7 explorations and the scales anchored
at the lightest weight (``tests/test_doubling_golden.py``), and every
one certifies at most 1 + 30ε.
"""

import hashlib
import json
import random

import pytest

from repro.core import build_net, doubling_spanner
from repro.graphs import random_geometric_graph
from repro.harness.profiles import get_profile

#: (profile, tier) -> (sorted net points, iterations, active vertices at
#: the start of each iteration, ledger.by_phase() sha256 digest)
NET_GOLDEN = {
    ("net-er", "smoke"): (
        [3, 5, 6, 11, 12, 13, 17, 18, 22, 23, 24, 30, 32, 33, 35],
        1, [36],
        "7517d26d10127d11be8cb777ec51e104a04133196b5dd084d31b1d8455bb4641",
    ),
    ("net-er", "table1"): (
        [3, 5, 7, 12, 21, 22, 27, 33, 34, 39, 42, 45, 48, 61, 62, 65, 66, 67, 68],
        1, [70],
        "f334560454d1bc956b2b5afa3f22be69db22ce4e229828c04ad38e1a3452b5de",
    ),
    ("net-er", "stress"): (
        [
            7, 12, 13, 16, 21, 32, 36, 38, 39, 48, 55, 58, 68, 72, 75, 76, 78, 84, 85, 87,
            89, 98, 100, 102, 104, 114, 121, 126, 130, 142, 154, 162, 168, 171, 173, 182,
            189, 191, 193, 196, 199
        ],
        1, [200],
        "a6249c2938bccd3d7bae8bf14ff623e4c1f095925809610f528a6be56387f94d",
    ),
    ("net-geometric", "smoke"): (
        [3, 4, 5, 14, 18],
        2, [40, 2],
        "e9efaf0e90f5159433d2e6d6c82183c1448aa805c1a57580b110f31ba902fa39",
    ),
    ("net-geometric", "table1"): (
        [35, 41, 52, 58],
        2, [100, 6],
        "0921dd82a750924e37aaadf12d68cfe9ae00de22d21e26495e3c431073eedaf9",
    ),
    ("net-geometric", "stress"): (
        [27, 63, 110, 144],
        1, [220],
        "a6249c2938bccd3d7bae8bf14ff623e4c1f095925809610f528a6be56387f94d",
    ),
}

#: (n, seed) -> (sorted edges, edges in insertion order, ledger.by_phase())
#: sha256 digests and the edge count of ``doubling_spanner(net_method=
#: "distributed")`` on ``random_geometric_graph(n, seed)`` with ε = 0.08
DOUBLING_GOLDEN = {
    (30, 1): (
        "9c1dee86a3168f429dff77044c090081ee34eefa73805067f462ae99e21d42bf",
        "cf4a5c97ca13dd0990549469dc95fc3104c26fd60f285884934d0916bc06446f",
        "2d59ddedf6a8120aa41bbd266e46bf2c14c486f66b4ebdaad3e93fd7cf16eb8f",
        214,
    ),
    (30, 2): (
        "3a69964bbac442b577d1ff5dbe8be8bc627b21b6859f068f71a16ded928a941b",
        "9cfc0e5c564bf1632b5709f64478d59c29ddf834c77b0eed40a6e7f12625405c",
        "99517d9b36fdbb9bec14be925be904de48f9fb3fedde485fc5ff497193588cf0",
        217,
    ),
    (30, 3): (
        "a3b15b1f212a55f84c44b9896e3b70997b616f7124fd0800b8610c7d31a11779",
        "0050996746a9c62e87d6ef0303b494df1fa8d2386b8bfd7b6737a8c236dba607",
        "48bdc176fba9e384922393f1850b4386a8e5f231df079bdf1725fb6d76971a73",
        213,
    ),
    (30, 4): (
        "1e78fe8d85244e988f0e9eaab4bda9835d90b52b291338e826c118e311e63147",
        "5e364cc8e31c4fba8f5b5d30508d539f99f5df9c228f30aaa7051422df5f8463",
        "6fc28794117e4e1bc0c1be4b38107c55185a001c179dd688dc4fa6ec64d8fa05",
        234,
    ),
    (30, 5): (
        "7714507465459bb3c9874e3da72533bbe2e2ed67ab5b634d832c41928a51c4bc",
        "3bc40858d652ff22373224e4c792a2872c029bd2a6d21a264ee9a60f82a530d8",
        "47080f587dded13a2f37899186542dfb601bd08873522c69a80c78cd38d2aa18",
        197,
    ),
    (30, 6): (
        "3a532cd3c8445804d1fd1b3cd9b5cec3288a9b456d519abaf0b628e90437f14e",
        "887340d20b6a86a5f049608ec5f1959779bec1f7379e2b447863e96ef78208f8",
        "ecd016c3448464bc3b17ffd89d8ddd85354c380f4cfc498d0142740e5138ef71",
        219,
    ),
    (30, 7): (
        "fd2440997d1432501b06cdf83b000052ca635ff3b06d7997370dfc60d53a96bd",
        "1bfce2d51fd0ccb15db1d296c4fc70e58a2790ae19cb6409ca1f1c93dc3e8034",
        "5a1732e833af72a5f591a69e0fdcb06a91c165c727e74df747a9ee613957c5d7",
        234,
    ),
    (30, 8): (
        "e99569b031ab5e24ff6d1cd932bb30b97956c7611c4ada0bda3fc04b9e544ce5",
        "b4dabb471356b3bc9e244a5e21cff02f8c0ddf05790c64820efb7402a078d335",
        "a2a318e315c0844d00c7d2277ea9bfedfe5d5659c73052c0f8ac065308ba884b",
        211,
    ),
    (45, 1): (
        "f825a0e20dd428f276537a80fc37e9ed0a69497c50f280c0741dc58105d5632f",
        "06d118e233be63b7f4569ce4bc568f85564f8fa656dd9171d068c334b367eb09",
        "1ef78540debe99dc829e17209ce898d29226319f8110db356ced5758dc1cd1a9",
        429,
    ),
    (45, 2): (
        "beda9bd45a5c14ac964e83b4cf6e48554276123d481b8a796f31f745575d703f",
        "a65464082e6a93ecc3bf67059146b7fcdd3b61d7bb84c55f344fa52fb9667b5e",
        "02abca962f2ddafa76822c0ade4f4f7f786e6c058038da66e35e2e9933ce344b",
        427,
    ),
    (45, 3): (
        "3fed24749bcd4c6e4352f8b3d4ea397b94494a67b131fddac36e247d9d7f8d72",
        "c2a8666e2cadf6bbd3c98a5abf197c09cd11c6cfd11c9e0e964058226885605a",
        "3d75825ec0ff9652fc6ba1514857c699155de65067bf602adf966c561e771694",
        355,
    ),
    (45, 4): (
        "53dfc4719467a57f72a075079ae6cee2766ba1d8c62633c6372b7556cf8c7b61",
        "ab0b0247cd250a7872af6f6c2a4db176822bdb3f67abb5a2861e5aeea7997f91",
        "569489cca5f79772b0a2d8c595836d336557beb490379e834cc682eeec0c136b",
        394,
    ),
    (45, 5): (
        "50d85cc034f58b8940edaf0fd209c245eb5817aca150f56dc0d32c77fa352620",
        "9b38b6ab50481a8887cf224695eb97cfe77c6bcd37017e286724d671cf0c6870",
        "018368592e2bbb6f0f829726aa2e30a65da6d65a4ba302d5578aba74ea8a02b1",
        350,
    ),
    (45, 6): (
        "f16907b1bf412e4a864c073a57fb6fa5879a3dbfdf7a47a255ec1d55f418c1fe",
        "45442913a14fc559c3bda6c6e2456d06f184026efb2d677f451829b9f1c52093",
        "d71c97881ee1ea8d81f36cd7d30b2985d8e3f136fa3f26c9c885aa493af819fa",
        402,
    ),
    (45, 7): (
        "74e58b6f532b3ccc6d7c6e4241a7be625e7ca5f6fff92bdad7c97979480ea077",
        "7352a13ae17fea2eac56b0d8fe534450145d8c1e4864ab00567ade30d7958e35",
        "42aa015556e652df47fd1c94bbf10ae64a7c9113392660db4e9a5d945acb9a7e",
        401,
    ),
    (45, 8): (
        "0f89da59718ff76f5f3eef817dc07b2bdb10aea3bc0f5191e54653892e5efc92",
        "9a59eec5d4f61aaad9ab403dc2ba3aa01bffcd89a0e733cda27e937797ab1572",
        "bd20ebd19eab40fa0f7ed45093f4529e7b2384d6d1c00d6141224e2f2d246b10",
        424,
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("profile,tier", sorted(NET_GOLDEN))
def test_build_net_matches_golden(profile, tier):
    points, iterations, history, ledger = NET_GOLDEN[profile, tier]
    prof = get_profile(profile)
    res = build_net(
        prof.build_graph(tier), prof.params["scale"], prof.params["delta"],
        random.Random(prof.seed),
    )
    assert sorted(res.points) == points
    assert (res.iterations, res.active_history) == (iterations, history)
    assert _sha256(json.dumps(res.ledger.by_phase(), sort_keys=True)) == ledger


@pytest.mark.parametrize("n,seed", sorted(DOUBLING_GOLDEN))
def test_distributed_doubling_spanner_matches_golden(n, seed):
    edges, ordered, ledger, m = DOUBLING_GOLDEN[n, seed]
    res = doubling_spanner(
        random_geometric_graph(n, seed=seed), 0.08, random.Random(seed),
        net_method="distributed",
    )
    lines = [f"{u!r} {v!r} {w!r}\n" for u, v, w in res.spanner.edges()]
    assert res.spanner.m == m
    assert _sha256("".join(sorted(lines))) == edges
    assert _sha256("".join(lines)) == ordered
    assert _sha256(json.dumps(res.ledger.by_phase(), sort_keys=True)) == ledger
