"""Approximate-distance serving layer (preprocess once, query many).

* :mod:`repro.oracle.landmarks` — seeded landmark selection (far-point
  sampling / degree) over a frozen CSR structure;
* :mod:`repro.oracle.oracle` — :class:`DistanceOracle`: exact-on-structure
  distance queries via bidirectional ALT-pruned Dijkstra, batched over
  version-stamped scratch arrays, behind an LRU result cache, and
  picklable so preprocessing and serving can live in different
  processes.

Entry points: :func:`build_oracle` / :meth:`DistanceOracle.build`, the
``repro oracle build`` / ``repro oracle query`` CLI, and the harness's
query-workload suite (``python -m repro bench --suite queries``).
"""

from repro.oracle.landmarks import STRATEGIES
from repro.oracle.oracle import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_LANDMARKS,
    DistanceOracle,
    build_oracle,
)

__all__ = [
    "STRATEGIES",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_LANDMARKS",
    "DistanceOracle",
    "build_oracle",
]
