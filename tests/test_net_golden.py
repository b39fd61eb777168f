"""Golden output of the §6 net construction and of the §7 spanner built on it.

``build_net`` deactivates, each iteration, every active vertex inside a
(1+δ)-approximate bounded exploration from the new net points, and
reads only the set of vertices that exploration reaches.  The values
below were recorded before that exploration stopped keeping a separate
label-keyed heap loop for ``WeightedGraph`` inputs and began freezing
them to the CSR view instead, which may pick different parents on
equal rounded distances but must reach the same vertices.  So every
net point, the iteration count, the per-iteration active counts and the
round ledger must stay as recorded, here and in the distributed-net
doubling spanner, which calls ``build_net`` at every scale.

The LE lists' permutation is drawn by shuffling the active set in the
graph's vertex order, no longer in the active set's iteration order
(which depends on ``PYTHONHASHSEED`` for string vertices).  That moved
one value below, ``net-geometric`` at smoke: its points were
``[3, 5, 14, 18, 19]`` before, with the same iterations, active counts
and ledger.
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
        [35, 41, 55, 58],
        2, [100, 5],
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
        "3451125f9b67ccd2111709d452c42721286935fbed8dce6822f4edc7f02b4cfd",
        "6f4afff707b23e3177c3a9836872caec7bcf3035139e75a3f49cbcc999fa65c4",
        "547179902564ceba8b6bb2d9bc76568fbbf5d5ad26b5ac7d98a2f55c96489a6f",
        215,
    ),
    (30, 2): (
        "1514bd6e8aa8c6d2bf306101e975ae7fdc79f533f8562945af64692f19354ce7",
        "b969f2cee60433369877b96b2c1c69ac77e9ce06d2f4997cdcbcd8800b2bdec0",
        "5edfb81a0ceae6b713d29c2321b750173bc0028e9a8e3f9fc1872d8a9434534f",
        221,
    ),
    (30, 3): (
        "20c161baf91e6ddffaf58fe99609223528c4a8086d20afada20da1c6952079c9",
        "4f53cbe095ce9cbab661efa9e59b16a227cf245140325787fed377085181550b",
        "266ca2a00c14ed1c6a43bf3eb79b530216d00fd4789bb067b294167147e68c44",
        216,
    ),
    (30, 4): (
        "65a19ec1b09589f7d000e7b9052d6f288330413482ea8caca88e98421b4a47de",
        "e42bb76dfe66dc7321415a1dc5f83142f722d48ee42f7fc72e97efc54ea488b6",
        "6acf27089cc7900feb08e0786bf0cb34c4d12bf30a4dfbe0d335ba85b56a2509",
        236,
    ),
    (30, 5): (
        "184a00f87dbe8251f1978bbf8c9f64251d449ae6111d1ea2d4539d696896ffe4",
        "bb933ccdde2596a7057b5547fcec0a93daf8e525d8fd3087100492164e4f3fda",
        "8b3841e42ddd22224f21429ca08172ee8f3040c4bc328865017a4c2e80bbd14c",
        199,
    ),
    (30, 6): (
        "ad25f3c9f565501d4542e437c2287b7afa48a9f3da3c05f5ebfc046a72991f6b",
        "c997c6100967fba09f89fb5ba3cc8346c270ae53a6c367df0019f040f23a9cbb",
        "c064090d6683ef4b54c60bcb4cad978bf729bfda08c27c14c656eb143ca12bcf",
        226,
    ),
    (30, 7): (
        "b59548ab86cc56eb210b6c1c7102118a96e802b7b3010c03bff9902f7f075563",
        "58db59b02e9039fe0562228a24a2d683ae8695ef1652dee67ed60b22cc47c9b6",
        "42a60260dbfc00b5996f1a3957dceffeb0f95575110febae867772ba55255323",
        240,
    ),
    (30, 8): (
        "92a21a84ac56bf671bfb87731fde803d1f29f0fb3cb623269527586787d53ef7",
        "fc4134a68e1a6bc9e78ff7d39d35db4caefc8c2224a438a1c60996d51031ca7b",
        "a64a2fb7dc60152f281ef5b777d76bd1f024304b51a379649577fc098f375a7f",
        213,
    ),
    (45, 1): (
        "a332158530b52badbd427c67c3d7dc51690c6ae9cc63c0c9162e7b60fe106556",
        "45f8ba053cd7c59bb1663f8ac1789f7cf8a1ebaf00862f2b2463c6f52fcda444",
        "65f3964a82643ffd0c259eeac7a508577f5c86ce2aa3a81ea4744bc4ab6495b9",
        435,
    ),
    (45, 2): (
        "b295229acbe1f218d3be226ca12bfdd7e21a81fb4a68d5aace28d08a5edadacb",
        "0a391202a1924e4882fff12a0280301f9192a824a2a29d43cc7de567ed0c0ad3",
        "265c26b51a55df21076c75af8afe69a4fe2812c14409d189b4891d21a5c7f1e5",
        431,
    ),
    (45, 3): (
        "b853ce1db8cd07a2b0b4f7a7395841a66f17965c5f943ed763df6a27fa7c0927",
        "6290bc669cecfc4b1cab1afb62dcf40e8bc1efd6214bc701dce3c078c4856396",
        "0db43671a6c10445e0711c2b19d9389d1389ce9ca5cbd5ddc50b3cbd41382ec3",
        366,
    ),
    (45, 4): (
        "3531909ee8e21006461cdbf75a1079cba5fb36966392a6962ff884273bbef37f",
        "c078a4fddb97ca54d4e0d9abdd634daf9c63b30d57b6b8f0c449ff71897ecbab",
        "4ee9c20eff1dcb933e569c15cbe0aaf1680ec508ee9bfa72ad52138ede7da3f2",
        405,
    ),
    (45, 5): (
        "29a0e2f9c492bd24f9dd3bb0d5611a3dda3a1dda72868488dae9a6bcff6b5fb6",
        "a09d7bae5fa8a947a3df9fe0509d9a7646aeea7614a219baa017b55c1eb23863",
        "a90ab9822a61a83c16e563c44459c181842e6f119c00393161312841e63d9252",
        362,
    ),
    (45, 6): (
        "ee0c4c910d8e57d1cb274519ce9654467d1f85faca46c2ad44ef73559a5dd05f",
        "61f086a20af562d85d693dea51cc712627af3ad9a06e43a42cb703441e6aa509",
        "74df902e39d4e5bf574ca20e27b228563184f0431292a0ab334164a3bb80cede",
        411,
    ),
    (45, 7): (
        "bfab1ddf03c85e04b45248044f133680c351f953bade15c66b2656b3d3d58891",
        "db80a56b81584dcd28d5747c510df1d971c2dbe8bbf2373e3b522a565499a1f8",
        "6561b6d3b71ccf44f18c156a65d41c115a0cc99a3fa34830660452672ff6b360",
        411,
    ),
    (45, 8): (
        "cdb93b3b7a7b4b61848072eb906378f570869308030393099c906ec6d3fabf30",
        "0aca64b32776a956f2cf60200a13eab9a9f49f5f921fbc6096cdfb5d1c08aa3e",
        "a6655b208c33d3d9e354262a354d7b72414eeb77d371c931787d06446d0c3ade",
        428,
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
