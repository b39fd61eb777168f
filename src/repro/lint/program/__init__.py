"""Whole-program analysis for ``repro lint --program``.

The per-file rules see one AST at a time; this subpackage sees the
project.  It builds an import graph checked against the declared
layering contract (:mod:`~repro.lint.program.contract`), resolves a
conservative call graph from intraprocedural summaries
(:mod:`~repro.lint.program.facts`, :mod:`~repro.lint.program.callgraph`),
and runs two dataflow passes over it
(:mod:`~repro.lint.program.dataflow`): seed-taint (``REP1001``/
``REP1002``) and the pool-safety race detector (``REP1011``–
``REP1013``), rooted at the ``Process(target=...)`` entry points of
worker processes.  Findings are ordinary :class:`~repro.lint.diagnostics.
Diagnostic` values and honour line-level ``allow[...]`` waivers.
"""

from repro.lint.program.analyzer import analyze_program
from repro.lint.program.callgraph import ProgramIndex
from repro.lint.program.codes import PROGRAM_CODES
from repro.lint.program.contract import (
    EXTERNAL_CONTRACT,
    LAYERS,
    allowed_import,
    layer_of,
    package_of,
    render_contract,
)
from repro.lint.program.facts import FileFacts, extract_facts

__all__ = [
    "EXTERNAL_CONTRACT",
    "FileFacts",
    "LAYERS",
    "PROGRAM_CODES",
    "ProgramIndex",
    "allowed_import",
    "analyze_program",
    "extract_facts",
    "layer_of",
    "package_of",
    "render_contract",
]
