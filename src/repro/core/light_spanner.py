"""Light spanners for general graphs in CONGEST — §5 (Theorem 2).

Construction outline, exactly as the paper stages it:

* Compute the MST T, its Euler traversal L (§3), and set
  ``L = 2·w(T)`` (the traversal length).
* **Low-weight bucket** ``E' = {e : w(e) <= L/n}`` — run the Baswana–Sen
  (2k−1)-spanner [BS07] directly: only its *size* is bounded, but each
  edge is so light that lightness follows.
* **Weight buckets** ``E_i = {e : L/(1+ε)^{i+1} < w(e) <= L/(1+ε)^i}``
  for ``i = 0..⌈log_{1+ε} n⌉``.  For each bucket, partition V into
  clusters of weak MST-diameter ``ε·w_i`` using the traversal, form the
  unweighted *cluster graph* G_i (vertices = clusters, edges = E_i pairs),
  simulate the Elkin–Neiman spanner [EN17b] on G_i, and add one
  representative E_i edge per selected cluster edge.
* Two cluster regimes (the paper's main technical contribution):

  - **Case 1** (``i < log_{1+ε}(ε·n^{k/(2k+1)})``, few clusters): cluster
    of v = ``⌈R_x/(ε·w_i)⌉`` for an appearance x ∈ L(v).  Each [EN17b]
    round is simulated by a local phase + convergecast + broadcast of all
    per-cluster maxima over the BFS tree — O(|C_i| + D) rounds each.
  - **Case 2** (many clusters): cluster centers are tour positions that
    cross an ``ε·w_i`` time boundary *or* sit at index multiples of
    ``⌈ε·n/(1+ε)^i⌉``, so every *communication interval* has bounded hop
    length; each [EN17b] round is simulated by pipelined convergecasts
    inside the intervals.

* Final spanner ``H = T ∪ H' ∪ ⋃_i H_i``.

Guarantees: stretch ``(2k−1)(1+4ε)`` per edge (deterministic), expected
size ``O(k·n^{1+1/k})``, expected lightness ``O(k·n^{1/k})``, rounds
``Õ(n^{1/2 + 1/(4k+2)} + D)``.
"""

from __future__ import annotations

import math
import random

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.congest.bfs import build_bfs_tree
from repro.congest.ledger import RoundLedger
from repro.congest.primitives import (
    broadcast_rounds,
    convergecast_rounds,
    local_phase_rounds,
    pipelined_aggregate_rounds,
)
from repro.determinism import ensure_rng
from repro.graphs.csr import CSRGraph
from repro.graphs.weighted_graph import Vertex, WeightedGraph
from repro.mst.fragments import decompose_fragments
from repro.mst.kruskal import edge_sort_key, kruskal_mst, mst_round_cost
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.elkin_neiman import IndexRows, elkin_neiman_spanner
from repro.traversal.euler_tour import EulerTour, compute_euler_tour


@dataclass
class BucketStats:
    """Per-bucket diagnostics reported by the benchmarks."""

    index: int
    weight_cap: float  # w_i = L/(1+ε)^i
    num_edges: int  # |E_i|
    case: int  # 1 or 2 (0 for the E' bucket)
    num_clusters: int
    spanner_edges: int
    rounds: int


@dataclass
class LightSpannerResult:
    """Output of :func:`light_spanner`.

    Attributes
    ----------
    spanner:
        The light spanner H (spans all vertices; contains the MST).
    stretch_bound:
        The deterministic per-edge stretch guarantee (2k−1)(1+4ε).
    buckets:
        Per-bucket statistics (the E′ bucket has index −1).
    ledger:
        Round accounting (Theorem 2 target: Õ(n^{1/2+1/(4k+2)} + D)).
    """

    spanner: WeightedGraph
    k: int
    eps: float
    stretch_bound: float
    buckets: List[BucketStats]
    ledger: RoundLedger = field(default_factory=RoundLedger)

    @property
    def rounds(self) -> int:
        """Total charged CONGEST rounds."""
        return self.ledger.total


def _case1_clusters(
    tour: EulerTour, eps_wi: float
) -> Dict[Vertex, int]:
    """Case-1 clustering: v belongs to cluster ⌈R_x/(ε·w_i)⌉."""
    cluster_of: Dict[Vertex, int] = {}
    for v, positions in tour.appearances.items():
        r = tour.times[positions[0]]
        cluster_of[v] = math.ceil(r / eps_wi) if eps_wi > 0 else 0
    return cluster_of


def _case2_clusters(
    tour: EulerTour, eps_wi: float, index_stride: int
) -> Tuple[Dict[Vertex, int], int]:
    """Case-2 clustering via tour-position centers.

    A position j is a center iff an integer multiple of ``ε·w_i`` lies in
    ``(R_{x_{j-1}}, R_{x_j}]`` (condition 1) or ``j`` is a multiple of
    ``index_stride`` (condition 2); x_0 is always a center.  Every vertex
    joins the cluster of the closest center at or before (one of) its
    appearances.  Returns (cluster_of, max interval hop length).

    One sweep of the tour tracks the latest center: a vertex joins it at
    its first appearance, so ``cluster_of`` lists the vertices in the
    order of ``tour.appearances``.
    """
    cluster_of: Dict[Vertex, int] = {}
    center = max_interval = 0
    prev = 0.0
    for j, (v, t) in enumerate(zip(tour.order, tour.times)):
        # condition 1: some integer s has R_{x_{j-1}} < s·εw_i <= R_{x_j};
        # the smallest candidate is floor(R_{x_{j-1}}/εw_i) + 1.  The slack
        # is relative so that scaling every weight cannot change the test.
        if j and (
            (index_stride > 0 and j % index_stride == 0)
            or (math.floor(prev / eps_wi) + 1) * eps_wi <= t * (1.0 + 1e-12)
        ):
            if j - center > max_interval:
                max_interval = j - center
            center = j
        prev = t
        if v not in cluster_of:
            cluster_of[v] = center
    return cluster_of, max(max_interval, tour.size - center)


def _cluster_graph(
    edges: List[Tuple[Vertex, Vertex, float]], cluster_of: Dict[Vertex, int]
) -> Tuple[IndexRows, Dict[Tuple[int, int], Tuple[Vertex, Vertex, float]]]:
    """The cluster graph over a bucket's edges, built in one pass, and
    the lightest representative of each cluster pair ``(a, b)``, a < b.

    Weights are compared first; ``edge_sort_key`` breaks a tie.  Clusters
    are numbered in the order the pairs first reach them, the smaller id
    of a pair first; the clusters no pair reaches follow in sorted order.
    :func:`elkin_neiman_spanner` draws the shifts in that order, so hash
    order cannot leak into them.
    """
    representative: Dict[Tuple[int, int], Tuple[Vertex, Vertex, float]] = {}
    for edge in edges:
        u, v, w = edge
        cu, cv = cluster_of[u], cluster_of[v]
        if cu == cv:
            continue  # intra-cluster: the MST path inside covers it
        key = (cu, cv) if cu < cv else (cv, cu)
        rep = representative.get(key)
        if rep is None or w < rep[2] or (
            w == rep[2] and edge_sort_key(u, v, w) < edge_sort_key(*rep)
        ):
            representative[key] = edge
    labels = list(dict.fromkeys(chain(
        chain.from_iterable(representative), sorted(set(cluster_of.values()))
    )))
    number = {c: x for x, c in enumerate(labels)}
    rows: List[List[int]] = [[] for _ in labels]
    for a, b in representative:
        x, y = number[a], number[b]
        rows[x].append(y)
        rows[y].append(x)
    return IndexRows(labels, rows), representative


def _bucket_sweep(
    csr: CSRGraph, big_l: float, n: int, eps: float
) -> Tuple[
    List[Tuple[Vertex, Vertex]], Dict[int, List[Tuple[Vertex, Vertex, float]]], List[float]
]:
    """One sweep of the edges into E′ and the weight buckets.

    Returns E′ (the edges at or below L/n), the bucket
    ``E_i = {e : w_{i+1} < w(e) <= w_i}`` of every ``i <= i_max =
    ⌈log_{1+ε} n⌉`` that has an edge, and the caps ``w_i = L/(1+ε)^i``
    for ``i = 0..i_max+1``.  Edges heavier than L are in no bucket: the
    MST covers them.  The caps descend, so an edge's i is the number of
    caps ``w_1..w_{i_max+1}`` at or above its weight: one
    ``bisect_right`` over their negations.
    """
    low_cap = big_l / n
    base = 1.0 + eps
    i_max = math.ceil(math.log(n, base)) if n > 1 else 0
    caps = [big_l / base ** i for i in range(i_max + 2)]
    descending = [-cap for cap in caps[1:]]
    low_edges: List[Tuple[Vertex, Vertex]] = []
    bucket_edges: Dict[int, List[Tuple[Vertex, Vertex, float]]] = {}
    for u, v, w in csr.edges():
        if w <= low_cap:
            low_edges.append((u, v))
        elif w <= big_l:
            i = bisect_right(descending, -w)
            if i <= i_max:
                bucket_edges.setdefault(i, []).append((u, v, w))
    return low_edges, bucket_edges, caps


def light_spanner(
    graph: WeightedGraph,
    k: int,
    eps: float,
    rng: Optional[random.Random] = None,
    root: Optional[Vertex] = None,
) -> LightSpannerResult:
    """Build the (2k−1)(1+4ε)-spanner of Theorem 2.

    Parameters
    ----------
    k:
        Stretch parameter (an integer >= 1).
    eps:
        Bucket granularity, in (0, 1/2].
    rng:
        Random source for [BS07] and the [EN17b] shifts.
    root:
        The vertex acting as rt (default: smallest by repr).

    Raises
    ------
    ValueError
        On invalid parameters (``k`` not an integer >= 1, ``eps`` outside
        (0, 1/2]), an empty or disconnected graph, or a ``root`` that is
        not a vertex.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not 0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    n = graph.n
    if n == 0:
        raise ValueError("light_spanner needs a graph with at least one vertex")
    rng = ensure_rng(rng)
    if root is None:
        root = min(graph.vertices(), key=repr)

    ledger = RoundLedger()
    bfs = build_bfs_tree(graph, root)
    ledger.charge("bfs-tree", bfs.rounds)
    height = bfs.height

    mst = kruskal_mst(graph)
    ledger.charge("mst-construction", mst_round_cost(n, height))
    decomp = decompose_fragments(mst, root)
    tour = compute_euler_tour(mst, root, decomp, height)
    ledger.merge(tour.ledger, prefix="tour:")

    big_l = 2.0 * mst.total_weight()
    spanner = mst.copy()
    buckets: List[BucketStats] = []

    # one sweep of the frozen CSR view splits the edges: E' at or below
    # L/n, the buckets E_i up to L, and the heavier edges, which the MST
    # covers
    low_cap = big_l / n
    low_edges, bucket_edges, caps = _bucket_sweep(graph.freeze(), big_l, n, eps)

    # ---------------- low-weight bucket E' ----------------
    low_graph = graph.edge_subgraph(low_edges)
    bs_ledger = RoundLedger()
    h_prime = baswana_sen_spanner(low_graph, k, rng, bs_ledger)
    ledger.merge(bs_ledger, prefix="E':")
    for u, v, w in h_prime.edges():
        if not spanner.has_edge(u, v):
            spanner.add_edge(u, v, w)
    buckets.append(
        BucketStats(
            index=-1,
            weight_cap=low_cap,
            num_edges=len(low_edges),
            case=0,
            num_clusters=n,
            spanner_edges=h_prime.m,
            rounds=bs_ledger.total,
        )
    )

    # ---------------- weight buckets E_i ----------------
    case_threshold = (
        math.log(eps * n ** (k / (2.0 * k + 1.0)), 1.0 + eps) if n > 1 else 0.0
    )

    for i in sorted(bucket_edges):
        edges_i = bucket_edges[i]
        wi = caps[i]
        eps_wi = eps * wi
        bucket_ledger = RoundLedger()
        case = 1 if i < case_threshold else 2

        if case == 1:
            cluster_of = _case1_clusters(tour, eps_wi)
            max_interval = 0
        else:
            stride = max(1, math.ceil(eps * n / (1.0 + eps) ** i))
            cluster_of, max_interval = _case2_clusters(tour, eps_wi, stride)
            # centers declare themselves along their interval (§5 case 2)
            bucket_ledger.charge(f"bucket{i}:center-declaration", max_interval)

        # the cluster graph G_i, with one E_i edge per cluster pair
        graph_i, representative = _cluster_graph(edges_i, cluster_of)
        num_clusters = len(graph_i.labels)
        run = elkin_neiman_spanner(graph_i, k, rng)

        # add each selected pair's representative, counting the spanner
        # edges at every cluster for case 2's edge collection
        at_cluster: Dict[int, int] = {}
        for edge in run.edges:
            a, b = edge
            if a > b:
                a, b = b, a
            u, v, w = representative[a, b]
            if not spanner.has_edge(u, v):
                spanner.add_edge(u, v, w)
            at_cluster[a] = at_cluster.get(a, 0) + 1
            at_cluster[b] = at_cluster.get(b, 0) + 1
        added = len(run.edges)
        per_cluster = max(at_cluster.values(), default=0)

        # --- round accounting for the k-round simulation ---
        if case == 1:
            # broadcast of the centrally-sampled shifts r_A
            bucket_ledger.charge(
                f"bucket{i}:shift-broadcast", broadcast_rounds(num_clusters, height)
            )
            for r in range(run.rounds):
                bucket_ledger.charge(f"bucket{i}:round{r}:local", 1)
                bucket_ledger.charge(
                    f"bucket{i}:round{r}:convergecast",
                    pipelined_aggregate_rounds(num_clusters, height),
                )
                bucket_ledger.charge(
                    f"bucket{i}:round{r}:broadcast",
                    broadcast_rounds(num_clusters, height),
                )
            bucket_ledger.charge(
                f"bucket{i}:edge-collection",
                convergecast_rounds(added, height) + broadcast_rounds(added, height),
            )
        else:
            for r in range(run.rounds):
                bucket_ledger.charge(
                    f"bucket{i}:round{r}:interval-convergecast",
                    local_phase_rounds(max_interval),
                )
            # w.h.p. O(n^{1/k} log n) spanner edges per cluster (§5 case 2)
            bucket_ledger.charge(
                f"bucket{i}:edge-collection",
                local_phase_rounds(max_interval) + per_cluster,
            )

        ledger.merge(bucket_ledger)
        buckets.append(
            BucketStats(
                index=i,
                weight_cap=wi,
                num_edges=len(edges_i),
                case=case,
                num_clusters=num_clusters,
                spanner_edges=added,
                rounds=bucket_ledger.total,
            )
        )

    return LightSpannerResult(
        spanner=spanner,
        k=k,
        eps=eps,
        stretch_bound=(2 * k - 1) * (1.0 + 4.0 * eps),
        buckets=buckets,
        ledger=ledger,
    )
