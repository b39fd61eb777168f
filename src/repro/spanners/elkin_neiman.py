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
simulator.  The §5 driver charges each simulated round by the number of
clusters, not by the messages a round carries, so no traffic is counted
here.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Hashable, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple, Union,
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
    """

    edges: Set[FrozenSet[Node]]
    shifts: Dict[Node, float]
    rounds: int


class IndexRows(NamedTuple):
    """An undirected graph as index rows: node ``i`` is ``labels[i]`` and
    ``rows[i]`` lists the indices of its neighbours, each once, in any
    order, so ``j`` is in ``rows[i]`` exactly when ``i`` is in
    ``rows[j]``."""

    labels: Sequence[Node]
    rows: Sequence[Sequence[int]]


def _index_rows(adjacency: Mapping[Node, Iterable[Node]]) -> IndexRows:
    """``adjacency`` as index rows, nodes numbered in key order.

    Row ``j`` lists the nodes whose sets hold node ``j``: its neighbours
    when the adjacency is symmetric, and otherwise the nodes that hear
    from it, so node ``x`` still hears from exactly the nodes in its own
    set.
    """
    labels = list(adjacency)
    index = {x: i for i, x in enumerate(labels)}
    rows: List[List[int]] = [[] for _ in labels]
    for i, x in enumerate(labels):
        for y in adjacency[x]:
            rows[index[y]].append(i)
    return IndexRows(labels, rows)


def elkin_neiman_spanner(
    adjacency: Union[Mapping[Node, Set[Node]], IndexRows],
    k: int,
    rng: Optional[random.Random] = None,
    shifts: Optional[Dict[Node, float]] = None,
) -> ElkinNeimanRun:
    """Run the [EN17b] spanner on an unweighted graph.

    Parameters
    ----------
    adjacency:
        Node → set of neighbours (symmetric), or the graph as
        :class:`IndexRows`; a ``Mapping``'s nodes are numbered in key
        order.
    k:
        Stretch parameter (an integer >= 1); the result is a
        (2k−1)-spanner.
    rng:
        Random source (fresh one if omitted); ignored when ``shifts`` given.
    shifts:
        Pre-sampled shifts (the §5 case-1 driver samples them centrally at
        the root and broadcasts, so they arrive from outside).

    Returns
    -------
    ElkinNeimanRun
        Spanner edges, shifts and rounds.

    Raises
    ------
    ValueError
        If ``k`` is not an integer >= 1.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    rng = ensure_rng(rng)
    labels, rows = (
        adjacency if isinstance(adjacency, IndexRows) else _index_rows(adjacency)
    )
    if shifts is None:
        shifts = sample_shifts(labels, k, rng)

    # The k propagation rounds run over integer-indexed lists.  Every node
    # sends its current (source, value) to every neighbour each round;
    # row y lists the nodes that hear y.  Value ties go to the first
    # sender in the order of the senders' label reprs (the first strict
    # maximum wins), so the senders deliver in that order.  A message
    # that did not change since the last round changes nothing: every
    # node that hears it already holds its value, in best and in m, and
    # both only grow.  So after round 0 only the senders whose m rose
    # deliver, and a node no one hears never does.
    n_nodes = len(labels)
    reprs = list(map(repr, labels))
    senders = [y for y in sorted(range(n_nodes), key=reprs.__getitem__) if rows[y]]

    # m[x]: best shifted value seen; best[x][y] = (value, delivering neighbour)
    m: List[float] = [shifts[x] for x in labels]
    source: List[int] = list(range(n_nodes))
    best: List[Dict[int, Tuple[float, int]]] = [{} for _ in range(n_nodes)]
    # round-0 messages: (s(x), m(x) - 1) to every neighbour
    out_src: List[int] = list(range(n_nodes))
    out_val: List[float] = [mx - 1 for mx in m]

    changed = senders
    for _round in range(k):
        before = m[:]
        for y in changed:
            src = out_src[y]
            val = out_val[y]
            for x in rows[y]:
                bx = best[x]
                cur = bx.get(src)
                if cur is None or val > cur[0]:
                    bx[src] = (val, y)
                if val > m[x]:
                    m[x] = val
                    source[x] = src
        changed = [y for y in senders if m[y] != before[y]]
        for y in changed:
            out_src[y] = source[y]
            out_val[y] = m[y] - 1

    edges: Set[FrozenSet[Node]] = set()
    for x, bx in enumerate(best):
        if bx:
            cut = m[x] - 1
            label = labels[x]
            for src, (val, sender) in bx.items():
                if src != x and val >= cut:
                    edges.add(frozenset((label, labels[sender])))
    return ElkinNeimanRun(edges=edges, shifts=shifts, rounds=k)
