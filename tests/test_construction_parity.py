"""§4/§5 building blocks against verbatim copies of their earlier code.

``kruskal_mst``, ``approx_spt`` and ``elkin_neiman_spanner`` must give
outputs equal with ``==`` and in the same insertion order as the
references below:

* ``_ref_kruskal_mst`` sorts labelled edges by ``edge_sort_key`` and
  merges through a dict-backed union-find;
* ``_ref_approx_spt`` copies the graph with rounded weights
  (``WeightedGraph.reweighted``) and runs ``dijkstra`` on the copy;
* ``_ref_elkin_neiman_spanner`` runs the k rounds over every node.

``light_spanner``'s case-2 clustering and cluster graphs must equal
``_ref_case2_clusters`` (a list of centers and a bisection per vertex)
and ``_ref_cluster_graph`` (a dict of sets, ``edge_sort_key`` on every
repeated pair), key order and representatives included.

The rounded column (also as the LE lists' distances read it) and
``light_spanner``'s bucket sweep must agree bit for bit with ``_ref_round_up_weight`` (one ``math.log(w, 1+ε)`` and one
power per weight) and ``_ref_bucket_sweep`` (``_ref_bucket_index`` per
edge) on exact powers and caps, their ±1 ulp neighbours and weights over
more than 12 orders of magnitude.  ``build_bfs_tree`` keeps τ on the
frozen view; ``TestBFSTreeCache`` states that cache's contract.

The MST and SPT inputs are seeded ER graphs with integer, all-equal and
rescaled (×1e-6, ×1e6) weights, string, mixed int/str and shuffled
vertex labels; the SPTs run at ε ∈ {0, 0.1, 0.5, 1}.  The Elkin–Neiman
inputs are the cluster graphs ``light_spanner`` builds (as the index rows
it hands over and as a Mapping), random adjacencies with isolated nodes
(also as index rows in shuffled order) and an asymmetric adjacency.  String
labels make edge sets iterate in hash order, so every comparison is
made within one process.
"""

from __future__ import annotations

import copy
import importlib
import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

import pytest

import repro.congest.bfs as bfs_module
from repro.congest import SyncNetwork, build_bfs_tree
from repro.congest.ledger import RoundLedger
from repro.core import doubling_spanner, light_spanner
from repro.core.light_spanner import _bucket_sweep, _case2_clusters, _cluster_graph
from repro.determinism import ensure_rng
from repro.graphs import (
    WeightedGraph, dijkstra, erdos_renyi_graph, random_geometric_graph,
)
from repro.graphs.csr import CSRGraph, round_up_weights
from repro.graphs.weighted_graph import canonical_edge
from repro.lelists import compute_le_lists
from repro.mst import decompose_fragments, kruskal_mst
from repro.mst.kruskal import edge_sort_key
from repro.spanners import IndexRows, elkin_neiman_spanner, sample_shifts
from repro.spt import approx_spt
from repro.spt.approx_spt import bkkl_round_cost
from repro.spt.tree import SPTree
from repro.traversal import EulerTour, compute_euler_tour

Vertex = Hashable
Node = Hashable


# ------------------------------------------------------------- references

class _RefUnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Vertex, Vertex] = {}
        self._size: Dict[Vertex, int] = {}

    def add(self, v: Vertex) -> None:
        if v not in self._parent:
            self._parent[v] = v
            self._size[v] = 1

    def find(self, v: Vertex) -> Vertex:
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:  # path compression
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, u: Vertex, v: Vertex) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self._size[ru] < self._size[rv]:
            ru, rv = rv, ru
        self._parent[rv] = ru
        self._size[ru] += self._size[rv]
        return True


def _ref_edge_sort_key(u: Vertex, v: Vertex, w: float) -> Tuple[float, str, str]:
    a, b = canonical_edge(u, v)
    return (w, repr(a), repr(b))


def _ref_kruskal_mst(graph):
    if isinstance(graph, WeightedGraph):
        graph = graph.freeze()
    uf = _RefUnionFind()
    for v in graph.vertices():
        uf.add(v)
    edges: List[Tuple[Vertex, Vertex, float]] = sorted(
        graph.edges(), key=lambda e: _ref_edge_sort_key(*e)
    )
    tree = WeightedGraph(graph.vertices())
    taken = 0
    for u, v, w in edges:
        if uf.union(u, v):
            tree.add_edge(u, v, w)
            taken += 1
            if taken == graph.n - 1:
                break
    if taken != graph.n - 1 and graph.n > 0:
        raise ValueError("graph is disconnected; MST does not exist")
    return tree


def _ref_round_up_weight(w: float, eps: float) -> float:
    """Round ``w`` up to the next integer power of ``1 + eps``."""
    if eps <= 0:
        return w
    base = 1.0 + eps
    exponent = math.ceil(math.log(w, base) - 1e-12)
    return base ** exponent


def _ref_bucket_index(weight: float, big_l: float, eps: float) -> int:
    """The i with ``L/(1+ε)^{i+1} < w <= L/(1+ε)^i`` (float-safe)."""
    base = 1.0 + eps
    i = int(math.floor(math.log(big_l / weight, base)))
    while i > 0 and weight > big_l / base ** i:
        i -= 1
    while weight <= big_l / base ** (i + 1):
        i += 1
    return i


def _ref_bucket_sweep(csr, big_l, n, eps):
    """``light_spanner``'s edge sweep with one ``_ref_bucket_index`` per edge."""
    low_cap = big_l / n
    i_max = math.ceil(math.log(n, 1.0 + eps)) if n > 1 else 0
    low_edges = []
    bucket_edges = {}
    for u, v, w in csr.edges():
        if w <= low_cap:
            low_edges.append((u, v))
        elif w <= big_l:
            i = _ref_bucket_index(w, big_l, eps)
            if 0 <= i <= i_max:
                bucket_edges.setdefault(i, []).append((u, v, w))
    return low_edges, bucket_edges


def _ref_approx_spt(graph, root, eps, bfs_height=None, ledger=None,
                    phase="approx-spt"):
    n = graph.n
    height = bfs_height if bfs_height is not None else (math.isqrt(max(n - 1, 0)) + 1)
    led = ledger if ledger is not None else RoundLedger()
    rounds = led.charge(phase, bkkl_round_cost(n, height, max(eps, 1e-9)))

    if eps > 0:
        rounded = graph.reweighted(lambda u, v, w: _ref_round_up_weight(w, eps))
    else:
        rounded = graph
    _, parent = dijkstra(rounded, root)
    if len(parent) != n:
        raise ValueError(f"graph disconnected: approximate SPT from {root!r} failed")

    dist: Dict[Vertex, float] = {root: 0.0}
    order: List[Vertex] = [root]
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    idx = 0
    while idx < len(order):
        u = order[idx]
        idx += 1
        for c in children[u]:
            dist[c] = dist[u] + graph.weight(u, c)
            order.append(c)

    return SPTree(root=root, parent=parent, dist=dist, rounds=rounds)


@dataclass
class _RefRun:
    edges: Set[FrozenSet[Node]]
    shifts: Dict[Node, float]
    rounds: int
    messages_per_round: List[int] = field(default_factory=list)


def _ref_elkin_neiman_spanner(
    adjacency: Mapping[Node, Set[Node]],
    k: int,
    rng: Optional[random.Random] = None,
    beta: Optional[float] = None,
    shifts: Optional[Dict[Node, float]] = None,
) -> _RefRun:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = ensure_rng(rng)
    nodes = list(adjacency)
    if shifts is None:
        shifts = sample_shifts(nodes, k, rng, beta)

    n_nodes = len(nodes)
    node_index = {x: i for i, x in enumerate(nodes)}
    repr_rank = {i: r for r, i in enumerate(sorted(range(n_nodes), key=lambda i: repr(nodes[i])))}
    indptr: List[int] = [0] * (n_nodes + 1)
    total = 0
    for i, x in enumerate(nodes):
        total += len(adjacency[x])
        indptr[i + 1] = total
    indices: List[int] = [0] * total
    pos = 0
    for x in nodes:
        row = sorted((node_index[nbr] for nbr in adjacency[x]), key=repr_rank.__getitem__)
        for j in row:
            indices[pos] = j
            pos += 1

    m: List[float] = [shifts[x] for x in nodes]
    source: List[int] = list(range(n_nodes))
    best: List[Dict[int, Tuple[float, int]]] = [{} for _ in range(n_nodes)]
    out_src: List[int] = list(range(n_nodes))
    out_val: List[float] = [m[i] - 1 for i in range(n_nodes)]
    messages_per_round: List[int] = []

    for _round in range(k):
        messages_per_round.append(total)
        new_src = list(out_src)
        new_val = list(out_val)
        for x in range(n_nodes):
            bx = best[x]
            mx = m[x]
            sx = source[x]
            for sender in indices[indptr[x]:indptr[x + 1]]:
                src = out_src[sender]
                val = out_val[sender]
                cur = bx.get(src)
                if cur is None or val > cur[0]:
                    bx[src] = (val, sender)
                if val > mx:
                    mx = val
                    sx = src
            m[x] = mx
            source[x] = sx
            new_src[x] = sx
            new_val[x] = mx - 1
        out_src = new_src
        out_val = new_val

    edges: Set[FrozenSet[Node]] = set()
    for x in range(n_nodes):
        mx_cut = m[x] - 1
        for src, (val, sender) in best[x].items():
            if src == x:
                continue
            if val >= mx_cut:
                edges.add(frozenset((nodes[x], nodes[sender])))
    return _RefRun(
        edges=edges, shifts=shifts, rounds=k, messages_per_round=messages_per_round
    )


def _ref_case2_clusters(
    tour: EulerTour, eps_wi: float, index_stride: int
) -> Tuple[Dict[Vertex, int], int]:
    size = tour.size
    centers: List[int] = []
    for j in range(size):
        if j == 0:
            centers.append(j)
            continue
        if index_stride > 0 and j % index_stride == 0:
            centers.append(j)
            continue
        s_min = math.floor(tour.times[j - 1] / eps_wi) + 1
        if s_min * eps_wi <= tour.times[j] * (1.0 + 1e-12):
            centers.append(j)

    cluster_of: Dict[Vertex, int] = {}
    import bisect

    for v, positions in tour.appearances.items():
        j = positions[0]
        idx = bisect.bisect_right(centers, j) - 1
        cluster_of[v] = centers[idx]

    max_interval = 0
    for a, b in zip(centers, centers[1:] + [size]):
        max_interval = max(max_interval, b - a)
    return cluster_of, max_interval


def _ref_cluster_graph(edges_i, cluster_of):
    adjacency: Dict[int, Set[int]] = {}
    representative: Dict[Tuple[int, int], Tuple[Vertex, Vertex, float]] = {}
    for u, v, w in edges_i:
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue
        a, b = (cu, cv) if cu <= cv else (cv, cu)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
        key = (a, b)
        if key not in representative or edge_sort_key(u, v, w) < edge_sort_key(
            *representative[key]
        ):
            representative[key] = (u, v, w)
    for c in sorted(set(cluster_of.values())):
        adjacency.setdefault(c, set())
    return adjacency, representative


# ----------------------------------------------------------------- inputs

def _relabelled(g: WeightedGraph, label) -> WeightedGraph:
    out = WeightedGraph(label(v) for v in g.vertices())
    for u, v, w in g.edges():
        out.add_edge(label(u), label(v), w)
    return out


def _shuffled(g: WeightedGraph, seed: int) -> WeightedGraph:
    order = list(g.vertices())
    random.Random(seed).shuffle(order)
    edges = list(g.edges())
    random.Random(seed + 1).shuffle(edges)
    out = WeightedGraph(order)
    for u, v, w in edges:
        out.add_edge(u, v, w)
    return out


def _graph(name: str) -> WeightedGraph:
    family, seed = name.rsplit("-", 1)
    g = erdos_renyi_graph(40, 0.12, seed=int(seed))
    if family == "er":
        return g
    if family == "int":
        return g.reweighted(lambda u, v, w: float(1 + int(w) % 4))
    if family == "equal":
        return g.reweighted(lambda u, v, w: 1.0)
    if family == "strings":
        return _relabelled(g, lambda v: f"v{v}")
    if family == "mixed":
        return _relabelled(g, lambda v: v if v % 3 else f"s{v}")
    if family == "shuffled":
        return _shuffled(g, int(seed))
    if family == "tiny":
        return g.reweighted(lambda u, v, w: w * 1e-6)
    if family == "huge":
        return g.reweighted(lambda u, v, w: w * 1e6)
    raise ValueError(family)


GRAPHS = [
    f"{family}-{seed}"
    for family in ("er", "int", "equal", "strings", "mixed", "shuffled",
                   "tiny", "huge")
    for seed in (1, 2, 3, 4, 5)
]
EPSILONS = (0.0, 0.1, 0.5, 1.0)


def _tree_snapshot(tree: WeightedGraph):
    return (
        list(tree.edges()),
        [(v, list(tree.neighbor_items(v))) for v in tree.vertices()],
    )


def _spt_snapshot(spt: SPTree):
    return spt.root, list(spt.parent.items()), list(spt.dist.items()), spt.rounds


def _run_snapshot(run, rng: random.Random):
    return list(run.edges), list(run.shifts.items()), run.rounds, rng.getstate()


def _random_adjacency(seed: int) -> Dict[Node, Set[Node]]:
    """A symmetric adjacency over shuffled int and tuple labels, with
    isolated nodes."""
    rng = random.Random(seed)
    size = rng.randint(1, 40)
    nodes: List[Node] = [i if i % 4 else (i, "c") for i in range(size)]
    rng.shuffle(nodes)
    adjacency: Dict[Node, Set[Node]] = {x: set() for x in nodes}
    p = rng.choice((0.0, 0.03, 0.1, 0.3))
    for a in range(size):
        for b in range(a + 1, size):
            if rng.random() < p:
                adjacency[nodes[a]].add(nodes[b])
                adjacency[nodes[b]].add(nodes[a])
    return adjacency


def _as_mapping(graph: IndexRows) -> Dict[Node, Set[Node]]:
    """The index rows as a Mapping: labels in index order, each row a set
    of labels."""
    labels, rows = graph
    return {labels[x]: {labels[y] for y in row} for x, row in enumerate(rows)}


def _shuffled_rows(adjacency: Mapping[Node, Set[Node]], seed: int) -> IndexRows:
    """``adjacency`` as index rows, nodes in key order, each row shuffled."""
    labels = list(adjacency)
    index = {x: i for i, x in enumerate(labels)}
    rows = [[index[y] for y in adjacency[x]] for x in labels]
    rng = random.Random(seed)
    for row in rows:
        rng.shuffle(row)
    return IndexRows(labels, rows)


def _cluster_graphs() -> List[Tuple[IndexRows, int, object]]:
    """Every (cluster graph, k, rng state) ``light_spanner`` hands to
    ``elkin_neiman_spanner`` on three inputs at k = 2 and 3."""
    calls: List[Tuple[IndexRows, int, object]] = []
    # the package re-exports the function under the module's name
    light_module = importlib.import_module("repro.core.light_spanner")
    original = light_module.elkin_neiman_spanner

    def recording(adjacency, k, rng=None, **kwargs):
        calls.append((copy.deepcopy(adjacency), k, rng.getstate()))
        return original(adjacency, k, rng, **kwargs)

    light_module.elkin_neiman_spanner = recording
    try:
        for seed in (1, 2, 3):
            for k in (2, 3):
                g = erdos_renyi_graph(150, 0.08, seed=seed)
                light_spanner(g, k, 0.25, random.Random(seed))
    finally:
        light_module.elkin_neiman_spanner = original
    return calls


# ------------------------------------------------------------------ tests

class TestKruskalParity:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_tree_and_neighbour_order_equal_reference(self, name):
        graph = _graph(name)
        want = _tree_snapshot(_ref_kruskal_mst(graph))
        for _ in range(2):  # the second call reads the cached MST
            assert _tree_snapshot(kruskal_mst(graph)) == want

    @pytest.mark.parametrize("name", ["er-1", "mixed-2", "shuffled-3"])
    def test_csr_input_equals_reference(self, name):
        csr = _graph(name).freeze()
        want = _tree_snapshot(_ref_kruskal_mst(csr))
        for _ in range(2):
            assert _tree_snapshot(kruskal_mst(csr)) == want

    def test_inputs_take_both_edge_orders(self):
        assert _graph("er-1").freeze()._sorted
        for name in ("mixed-1", "shuffled-1"):
            assert not _graph(name).freeze()._sorted


class TestApproxSPTParity:
    @pytest.mark.parametrize("eps", EPSILONS)
    @pytest.mark.parametrize("name", GRAPHS)
    def test_tree_equals_reference(self, name, eps):
        graph = _graph(name)
        verts = list(graph.vertices())
        for root in (verts[0], verts[len(verts) // 2]):
            for height in (None, 7):
                want = _ref_approx_spt(graph, root, eps, height, phase="p")
                got = approx_spt(graph, root, eps, height, phase="p")
                assert _spt_snapshot(got) == _spt_snapshot(want)


def _tour(name: str) -> EulerTour:
    graph = _graph(name)
    root = min(graph.vertices(), key=repr)
    mst = kruskal_mst(graph)
    return compute_euler_tour(mst, root, decompose_fragments(mst, root))


class TestBucketLoopParity:
    @pytest.mark.parametrize("name", ["er-1", "strings-2", "mixed-3", "huge-4"])
    def test_case2_clusters_equal_reference(self, name):
        tour = _tour(name)
        for parts in (0.5, 3, 7, 20, 60, 200):
            for stride in (1, 4, 9, 10 ** 9):
                eps_wi = tour.length / parts
                want = _ref_case2_clusters(tour, eps_wi, stride)
                got = _case2_clusters(tour, eps_wi, stride)
                assert list(got[0].items()) == list(want[0].items())
                assert got[1] == want[1]

    @pytest.mark.parametrize("clusters", [2, 5, 12, 40])
    @pytest.mark.parametrize("name", ["er-1", "int-2", "equal-3", "strings-4", "mixed-5"])
    def test_cluster_graph_equals_reference(self, name, clusters):
        graph = _graph(name)
        rng = random.Random(clusters)
        cluster_of = {v: rng.randrange(3 * clusters) for v in graph.vertices()}
        edges = list(graph.freeze().edges())
        want_adj, want_rep = _ref_cluster_graph(edges, cluster_of)
        got, got_rep = _cluster_graph(edges, cluster_of)
        assert isinstance(got, IndexRows)
        assert list(_as_mapping(got).items()) == list(want_adj.items())
        assert list(got_rep.items()) == list(want_rep.items())


class TestElkinNeimanParity:
    def test_light_spanner_cluster_graphs_equal_reference(self):
        calls = _cluster_graphs()
        assert len(calls) > 20
        assert all(isinstance(graph, IndexRows) for graph, _k, _s in calls)
        isolated = sum(1 for graph, _k, _s in calls for row in graph.rows if not row)
        assert isolated > 0
        for graph, k, state in calls:
            adjacency = _as_mapping(graph)
            rng_ref = random.Random(0)
            rng_ref.setstate(state)
            want = _run_snapshot(
                _ref_elkin_neiman_spanner(adjacency, k, rng_ref), rng_ref)
            for arg in (graph, adjacency):
                rng_new = random.Random(0)
                rng_new.setstate(state)
                got = _run_snapshot(elkin_neiman_spanner(arg, k, rng_new), rng_new)
                assert got == want

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(15))
    def test_random_adjacency_equals_reference(self, seed, k):
        adjacency = _random_adjacency(seed)
        want_rng = random.Random(seed)
        want = _run_snapshot(
            _ref_elkin_neiman_spanner(adjacency, k, want_rng), want_rng)
        for arg in (adjacency, _shuffled_rows(adjacency, seed)):
            got_rng = random.Random(seed)
            got = _run_snapshot(elkin_neiman_spanner(arg, k, got_rng), got_rng)
            assert got == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_asymmetric_adjacency_equals_reference(self, k):
        adjacency: Dict[Node, Set[Node]] = {
            "a": {"b", "c"}, "b": set(), "c": {"a", "d"}, "d": set(),
            "e": {"a", "b", "c", "d"}, "f": set(),
        }
        shifts = {x: 0.1 * (i + 1) for i, x in enumerate("fedcba")}
        for kwargs in ({"shifts": shifts}, {}):
            want_rng, got_rng = random.Random(k), random.Random(k)
            want = _run_snapshot(
                _ref_elkin_neiman_spanner(adjacency, k, want_rng, **kwargs), want_rng)
            got = _run_snapshot(
                elkin_neiman_spanner(adjacency, k, got_rng, **kwargs), got_rng)
            assert got == want


def _star(weights: List[float]) -> WeightedGraph:
    """Vertex 0 joined to leaf j by an edge of weight ``weights[j - 1]``."""
    g = WeightedGraph(range(len(weights) + 1))
    for leaf, w in enumerate(weights, start=1):
        g.add_edge(0, leaf, w)
    return g


def _with_ulps(values: List[float]) -> List[float]:
    """Each value with its neighbours one ulp below and above."""
    return [x for v in values
            for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]


def _rounding_weights(eps: float) -> List[float]:
    """Exact powers of 1+ε across 10^±12 with their ±1 ulp neighbours,
    and log-uniform weights over the same range."""
    base = 1.0 + eps
    top = math.ceil(12 * math.log(10) / math.log(base))
    step = max(1, top // 500)
    powers = [base ** e for e in range(-top, top + 1, step)]
    rng = random.Random(round(1 / eps))
    return _with_ulps(powers) + [10.0 ** rng.uniform(-12, 12) for _ in range(3000)]


class TestRoundingParity:
    @pytest.mark.parametrize("eps", [1.0, 0.25, 0.08, 1e-3])
    def test_rounded_column_equals_reference_bit_for_bit(self, eps):
        weights = _rounding_weights(eps)
        csr = _star(weights).freeze()
        want = array("d", [_ref_round_up_weight(w, eps) for w in csr.weights])
        assert csr.rounded_weights(eps).tobytes() == want.tobytes()
        got = array("d", [round_up_weights([w], eps)[0] for w in csr.weights])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps", [1.0, 0.25, 0.08, 1e-3])
    def test_le_lists_rounded_graph_equals_reference(self, eps):
        # from the centre, each leaf's LE entry is its rounded edge weight
        weights = _rounding_weights(eps)[::7]
        result = compute_le_lists(_star(weights), [0], delta=eps, pi={0: 0})
        got = array("d", [result.lists[leaf][0][1] for leaf in range(1, len(weights) + 1)])
        want = array("d", [_ref_round_up_weight(w, eps) for w in weights])
        assert got.tobytes() == want.tobytes()

    def test_zero_eps_leaves_weights_alone(self):
        csr = _star([0.5, 3.0, 7.25]).freeze()
        assert csr.rounded_weights(0.0) is csr.weights
        assert round_up_weights(csr.weights, 0.0) == list(csr.weights)


#: (L, n, ε) of the sweep parity cases: L across 12 orders of magnitude.
#: In the last case (1+ε)^4 rounds to just below n = 5, so the cap of
#: bucket i_max = 4 lies above L/n and that bucket can hold an edge.
SWEEP_CASES = [
    (2.5e-6, 400, 0.25), (3.0, 10, 0.5), (1000.0, 400, 0.25),
    (7.7e5, 5000, 0.08), (1.0, 1000, 1e-3), (1e6, 2, 0.25),
    (123.456, 1200, 0.1), (1000.0, 5, 5 ** 0.25 - 1.0),
]


def _sweep_weights(big_l: float, n: int, eps: float) -> List[float]:
    """The caps L/(1+ε)^i for i = −1..i_max+2, L/n, each with its ±1
    ulp neighbours, and log-uniform weights from L/(2n) to 2L."""
    base = 1.0 + eps
    i_max = math.ceil(math.log(n, base))
    caps = [big_l / base ** i for i in range(-1, i_max + 3)]
    rng = random.Random(n)
    low, high = math.log(big_l / (2 * n)), math.log(2 * big_l)
    return (_with_ulps(caps + [big_l / n])
            + [math.exp(rng.uniform(low, high)) for _ in range(3000)])


class TestBucketSweepParity:
    @pytest.mark.parametrize("big_l, n, eps", SWEEP_CASES)
    def test_sweep_equals_reference(self, big_l, n, eps):
        weights = _sweep_weights(big_l, n, eps)
        rng = random.Random(len(weights))
        rng.shuffle(weights)
        csr = _star(weights).freeze()
        low_want, buckets_want = _ref_bucket_sweep(csr, big_l, n, eps)
        low_got, buckets_got, caps = _bucket_sweep(csr, big_l, n, eps)
        assert low_got == low_want
        assert list(buckets_got.items()) == list(buckets_want.items())
        assert len(buckets_got) > 1 and low_got
        assert caps == [big_l / (1.0 + eps) ** i for i in range(len(caps))]

    def test_last_bucket_holds_an_edge(self):
        big_l, n, eps = SWEEP_CASES[-1]
        _, buckets, caps = _bucket_sweep(
            _star(_sweep_weights(big_l, n, eps)).freeze(), big_l, n, eps)
        assert max(buckets) == len(caps) - 2 == math.ceil(math.log(n, 1.0 + eps))

    def test_cases_cover_twelve_orders_of_magnitude(self):
        weights = [w for case in SWEEP_CASES for w in _sweep_weights(*case)]
        assert math.log10(max(weights) / min(weights)) > 12
        assert len(weights) > 30000


class TestBFSTreeCache:
    @staticmethod
    def _count_simulations(monkeypatch) -> List[object]:
        calls: List[object] = []
        simulate = bfs_module._simulate

        def counted(graph, root, net):
            calls.append(root)
            return simulate(graph, root, net)

        monkeypatch.setattr(bfs_module, "_simulate", counted)
        return calls

    @staticmethod
    def _snapshot(tree):
        return (list(tree.parent.items()), list(tree.depth.items()), tree.rounds)

    def test_second_call_reads_the_cache(self, monkeypatch):
        g = erdos_renyi_graph(80, 0.08, seed=3)
        calls = self._count_simulations(monkeypatch)
        first = build_bfs_tree(g, 0)
        second = build_bfs_tree(g, 0)
        assert calls == [0]
        assert self._snapshot(second) == self._snapshot(first)
        build_bfs_tree(g, 5)  # keyed by root
        assert calls == [0, 5]

    def test_cached_tree_equals_a_simulation(self):
        g = erdos_renyi_graph(80, 0.08, seed=4)
        for root in (0, 17):
            want = build_bfs_tree(g, root, network=SyncNetwork(g))
            for _ in range(2):
                assert self._snapshot(build_bfs_tree(g, root)) == self._snapshot(want)

    def test_mutation_drops_the_tree(self, monkeypatch):
        g = erdos_renyi_graph(80, 0.08, seed=5)
        before = build_bfs_tree(g, 0)
        far = max(before.depth, key=before.depth.__getitem__)
        calls = self._count_simulations(monkeypatch)
        g.add_edge(0, far, 1.0)
        after = build_bfs_tree(g, 0)
        assert calls == [0]
        assert before.depth[far] > 1 and after.depth[far] == 1

    def test_network_call_still_simulates(self, monkeypatch):
        g = erdos_renyi_graph(80, 0.08, seed=6)
        build_bfs_tree(g, 0)
        calls = self._count_simulations(monkeypatch)
        net = SyncNetwork(g)
        build_bfs_tree(g, 0, network=net)
        sent = net.total_messages_sent
        assert sent > 0
        build_bfs_tree(g, 0, network=net)
        assert net.total_messages_sent == 2 * sent
        assert calls == [0, 0]

    def test_each_caller_owns_its_maps(self):
        g = erdos_renyi_graph(80, 0.08, seed=7)
        first = build_bfs_tree(g, 0)
        want = self._snapshot(first)
        first.parent.clear()
        first.depth[0] = 99
        assert self._snapshot(build_bfs_tree(g, 0)) == want

    def test_disconnected_graph_raises_every_time_and_caches_nothing(self):
        g = WeightedGraph(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="disconnected"):
                build_bfs_tree(g, 0)
        assert g.freeze()._bfs == {}

    def test_distributed_nets_doubling_spanner_unchanged(self, monkeypatch):
        """With Theorem-3 nets, every scale asks for τ; the output and
        the ledger equal a run that simulates it on every call."""
        graph = random_geometric_graph(20, seed=2)

        def run():
            res = doubling_spanner(graph.copy(), 0.1, random.Random(2),
                                   net_method="distributed")
            return list(res.spanner.edges()), res.ledger.by_phase()

        calls = self._count_simulations(monkeypatch)
        cached = run()
        assert len(calls) == 1
        monkeypatch.setattr(CSRGraph, "bfs_tree", lambda self, root, compute: compute())
        simulated = run()
        assert len(calls) > 10
        assert cached == simulated
