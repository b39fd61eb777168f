"""``repro.lint`` — the repo-specific determinism & contract analyzer.

Every correctness claim this repository ships — seeded profiles,
bit-identical CONGEST parity with the reference loop, tolerance-gated
benchmark compares, 1e-9 certifier agreement — rests on invariants no
generic tool checks.  This package is the AST-based static analyzer that
machine-enforces them:

* **RNG discipline** (``REP101``–``REP103``) — no module-level global
  randomness, no unseeded generators, randomness threaded through
  ``rng``/``seed`` parameters.
* **Iteration-order leakage** (``REP201``–``REP202``) — no iteration
  over hash-ordered collections (or directory listings) where the
  order can reach ordered output, RNG consumption or mail delivery.
* **CSR freeze discipline** (``REP301``–``REP302``) — arrays of a
  frozen :class:`~repro.graphs.csr.CSRGraph` are never written;
  scratch state goes through the version-stamp pattern.
* **CONGEST contract** (``REP401``, ``REP403``) — node programs touch
  the network only through the :class:`~repro.congest.algorithm.NodeView`
  API and never build a view themselves.
* **Typing gate** (``REP601``) — the ``mypy --strict`` packages stay
  fully annotated, enforced locally without mypy installed.
* **Output discipline** (``REP701``) — no bare ``print(...)`` in
  library code; stdout belongs to the CLI front-ends, library layers
  report through :mod:`repro.obs` or return values.

``repro lint --program`` adds the whole-program passes over the
combined tree (see :mod:`repro.lint.program`):

* **Import-graph contract** (``REP901``–``REP904``) — the declared
  layering (no upward imports), top-level cycle detection, external
  containment (numpy only in :mod:`repro.kernels`), and no undeclared
  packages.
* **Seed-taint** (``REP1001``–``REP1002``) — no call chain may seal
  the rng/seed determinism chain at silent defaults.
* **Pool-safety** (``REP1011``–``REP1013``) — nothing reachable from
  the entry point of a worker process (``Process(target=...)``, how
  :mod:`repro.serve`'s daemon starts each worker of its pool) writes
  module state, mutates frozen CSR arrays, or touches the
  process-global obs registry.

DESIGN.md's rule catalog names, for every code, the construct of the
tree it guards.

Violations are suppressed line-by-line with a *documented* waiver::

    risky_call()  # repro: allow[REP101] -- why this one is safe

The justification text after ``--`` is mandatory; an undocumented
``allow`` suppresses nothing and is itself a finding (``REP001``).

Run it as ``repro lint [paths] [--format json]``; exit code 0 means
clean, 1 means findings, 2 means usage error.
"""

from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import iter_python_files, lint_file, lint_paths
from repro.lint.registry import Rule, all_codes, rule_catalog

__all__ = [
    "Diagnostic",
    "Rule",
    "all_codes",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "rule_catalog",
]
