"""Elkin–Neiman unweighted (2k−1)-spanner [EN17b] (§5 of the paper).

The algorithm as the paper describes it: every vertex ``x`` samples
``r(x)`` from an exponential distribution (conditioned on ``r(x) < k`` —
footnote 10: the stretch analysis assumes it, and it "can be verified
locally"; we resample until it holds).  For ``k`` synchronous rounds each
vertex propagates ``(s(x), m(x) − 1)``, where ``m(x)`` is the largest
shifted value ``r(y) − d_hop(y, x)`` seen so far and ``s(x)`` its source.
Afterwards ``x`` adds, for every source ``y`` whose message reached it with
value at least ``m(x) − 1``, one edge to a neighbour that delivered that
message.  Stretch 2k−1 is guaranteed (given the conditioning); the edge
count is O(n^{1+1/k}) in expectation with rate ``β = ln(n)/k``.

§5 *simulates* this algorithm on cluster graphs whose vertices are MST
clusters; to support that, the implementation here is a pure synchronous
function over an abstract adjacency structure, independent of the CONGEST
simulator, and it reports the per-round message traffic the §5 driver
needs for its convergecast/broadcast round accounting.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple,
)

from repro.determinism import ensure_rng

Node = Hashable


def sample_shifts(
    nodes: Iterable[Node], k: int, rng: random.Random,
    beta: Optional[float] = None,
) -> Dict[Node, float]:
    """Sample ``r(x) ~ Exp(β)`` conditioned on ``r(x) < k`` for every node.

    ``β`` defaults to ``ln(n)/k`` (n = number of nodes), the rate that
    balances O(n^{1/k}) expected edges per vertex against the conditioning.
    """
    nodes = list(nodes)
    n = max(len(nodes), 2)
    rate = beta if beta is not None else math.log(n) / k
    shifts: Dict[Node, float] = {}
    for x in nodes:
        r = rng.expovariate(rate)
        while r >= k:  # footnote 10: condition on r(x) < k
            r = rng.expovariate(rate)
        shifts[x] = r
    return shifts


@dataclass
class ElkinNeimanRun:
    """Result of one Elkin–Neiman run.

    Attributes
    ----------
    edges:
        The spanner edges, each a frozenset pair of nodes.
    shifts:
        The sampled exponential shifts ``r(x)``.
    rounds:
        Number of synchronous propagation rounds (= k).
    messages_per_round:
        Messages exchanged in each round — the §5 cluster-graph driver
        charges its convergecast/broadcast phases from these counts.
    """

    edges: Set[FrozenSet[Node]]
    shifts: Dict[Node, float]
    rounds: int
    messages_per_round: List[int] = field(default_factory=list)


def elkin_neiman_spanner(
    adjacency: Mapping[Node, Set[Node]],
    k: int,
    rng: Optional[random.Random] = None,
    beta: Optional[float] = None,
    shifts: Optional[Dict[Node, float]] = None,
) -> ElkinNeimanRun:
    """Run the [EN17b] spanner on an unweighted graph.

    Parameters
    ----------
    adjacency:
        Node → set of neighbours (symmetric).
    k:
        Stretch parameter; the result is a (2k−1)-spanner.
    rng:
        Random source (fresh one if omitted); ignored when ``shifts`` given.
    shifts:
        Pre-sampled shifts (the §5 case-1 driver samples them centrally at
        the root and broadcasts, so they arrive from outside).

    Returns
    -------
    ElkinNeimanRun
        Spanner edges and instrumentation.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = ensure_rng(rng)
    nodes = list(adjacency)
    if shifts is None:
        shifts = sample_shifts(nodes, k, rng, beta)

    # --- indexed CSR fast path: relabel nodes to 0..n-1 once and run the
    # k propagation rounds over flat arrays.  Every node sends its current
    # (source, value) to every neighbour each round, so a node's inbox is
    # exactly its neighbours' previous outputs — no inbox materialisation.
    # The old dict implementation sorted each inbox by ``repr(sender)``
    # to break value ties; sorting each neighbour row once by that same
    # key preserves the tie-break (first strict maximum wins) while
    # moving the per-round scans to integer-indexed lists.
    n_nodes = len(nodes)
    node_index = {x: i for i, x in enumerate(nodes)}
    reprs = [repr(x) for x in nodes]
    repr_rank: List[int] = [0] * n_nodes
    for r, i in enumerate(sorted(range(n_nodes), key=reprs.__getitem__)):
        repr_rank[i] = r
    indptr: List[int] = [0] * (n_nodes + 1)
    indices: List[int] = []
    for i, x in enumerate(nodes):
        row = [node_index[nbr] for nbr in adjacency[x]]
        if len(row) > 1:
            row.sort(key=repr_rank.__getitem__)
        indices += row
        indptr[i + 1] = len(indices)
    total = len(indices)
    # a node with an empty row receives nothing: its m, source and best
    # never change and its output stays the round-0 message, so the
    # rounds and the edge selection visit only the linked nodes
    linked = [x for x in range(n_nodes) if indptr[x] < indptr[x + 1]]

    # m[x]: best shifted value seen; best[x][y] = (value, delivering neighbour)
    m: List[float] = [shifts[x] for x in nodes]
    source: List[int] = list(range(n_nodes))
    best: List[Dict[int, Tuple[float, int]]] = [{} for _ in range(n_nodes)]
    # round-0 messages: (s(x), m(x) - 1) to every neighbour
    out_src: List[int] = list(range(n_nodes))
    out_val: List[float] = [m[i] - 1 for i in range(n_nodes)]
    messages_per_round: List[int] = []

    for _round in range(k):
        messages_per_round.append(total)
        new_src = list(out_src)
        new_val = list(out_val)
        for x in linked:
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
    for x in linked:
        mx_cut = m[x] - 1
        for src, (val, sender) in best[x].items():
            if src == x:
                continue
            if val >= mx_cut:
                edges.add(frozenset((nodes[x], nodes[sender])))
    return ElkinNeimanRun(
        edges=edges, shifts=shifts, rounds=k, messages_per_round=messages_per_round
    )
