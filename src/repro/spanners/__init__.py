"""Spanner substrate algorithms.

* :func:`~repro.spanners.greedy.greedy_spanner` — the [ADD+93] greedy
  (2k−1)-spanner; the paper's quality yardstick (existentially optimal
  [FS16]) and the sequential baseline the benchmarks compare against.
* :func:`~repro.spanners.baswana_sen.baswana_sen_spanner` — the [BS07]
  randomized (2k−1)-spanner used verbatim for the low-weight bucket E′ of
  the §5 construction (O(k) rounds).
* :func:`~repro.spanners.elkin_neiman.elkin_neiman_spanner` — the [EN17b]
  unweighted spanner (exponential shifts, k max-propagation rounds) that
  §5 simulates over its cluster graphs, given as a ``Mapping`` or as
  :class:`~repro.spanners.elkin_neiman.IndexRows`.
"""

from repro.spanners.greedy import greedy_spanner
from repro.spanners.baswana_sen import baswana_sen_spanner
from repro.spanners.elkin_neiman import (
    ElkinNeimanRun,
    IndexRows,
    elkin_neiman_spanner,
    sample_shifts,
)

__all__ = [
    "greedy_spanner",
    "baswana_sen_spanner",
    "elkin_neiman_spanner",
    "ElkinNeimanRun",
    "IndexRows",
    "sample_shifts",
]
