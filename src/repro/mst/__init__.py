"""Minimum-spanning-tree substrate ([KP98, Elk17b] stand-in).

The paper uses two artifacts of the distributed MST algorithm of
Kutten–Peleg / Elkin: the MST itself, and the partition of the MST into
O(√n) *base fragments* of hop-diameter O(√n) produced by its first phase
(§3.1).  This package provides both:

* :func:`~repro.mst.kruskal.kruskal_mst` — sequential ground truth (with a
  deterministic tie-break, so the MST is unique and all algorithms agree);
* :func:`~repro.mst.boruvka.boruvka_mst` — Borůvka-phase distributed-style
  construction with measured round accounting, validated against Kruskal;
* :func:`~repro.mst.fragments.decompose_fragments` — the base-fragment
  decomposition with the fragment tree T′ (§3.1).
"""

from repro.mst.kruskal import kruskal_mst, UnionFind
from repro.mst.boruvka import boruvka_mst, BoruvkaResult
from repro.mst.fragments import (
    Fragment, FragmentDecomposition, FragmentInvariantError, decompose_fragments,
)

__all__ = [
    "kruskal_mst",
    "UnionFind",
    "boruvka_mst",
    "BoruvkaResult",
    "Fragment",
    "FragmentDecomposition",
    "FragmentInvariantError",
    "decompose_fragments",
]
