"""Analyzer driver: file discovery, rule execution, suppression filtering.

:func:`lint_paths` is the library entry point the CLI wraps.  The
report is deterministic for a fixed tree: files are visited in sorted
order and diagnostics sort by (path, line, col, code) — the analyzer
obeys its own iteration-order rules.

Analysis is split in two so the whole-program passes can share the
suppression pipeline:

* :func:`analyze_file` does everything local to one file — decode,
  parse, suppression table, per-file rules, facts extraction — and
  returns a :class:`FileAnalysis`.  It never raises on bad input: a
  syntax error, undecodable bytes, or NUL bytes become a ``REP000``
  diagnostic for that file.
* :func:`finalize` merges per-file findings with any program-level
  findings, applies line-level ``allow[...]`` waivers to both, and
  emits stale-waiver (``REP003``) hygiene last — so a waiver justified
  by an import-graph finding goes stale the moment the edge disappears.

:class:`FileAnalysis` is picklable on purpose: ``--program`` runs cache
it per file, keyed by content hash (see :mod:`repro.lint.cache`), which
is what makes warm whole-program runs incremental.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import repro.lint.rules  # noqa: F401  (imported for the registration side effect)
from repro.lint.cache import AnalysisCache
from repro.lint.context import FileContext, module_name_for
from repro.lint.diagnostics import Diagnostic
from repro.lint.program.analyzer import analyze_program
from repro.lint.program.codes import PROGRAM_CODES
from repro.lint.program.facts import FileFacts, extract_facts
from repro.lint.registry import ENGINE_CODES, RULES, rule_catalog
from repro.lint.suppress import Suppression, parse_suppressions


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files.

    Raises ``FileNotFoundError`` for a path that does not exist (the
    CLI maps this to the usage-error exit code).
    """
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(str(path))
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


@dataclass
class FileAnalysis:
    """Everything one file contributes, before suppression filtering.

    ``hygiene`` diagnostics (REP000–REP002) are never suppressible;
    ``findings`` are raw rule output still subject to ``allow[...]``
    waivers; ``facts`` feed the whole-program passes (a file that did
    not parse keeps its module name alone, so imports of it resolve to
    it, not to its package).
    """

    path: str
    facts: FileFacts
    hygiene: List[Diagnostic] = field(default_factory=list)
    findings: List[Diagnostic] = field(default_factory=list)
    suppressions: Dict[int, Suppression] = field(default_factory=dict)


def analyze_file(path: Path, content: Optional[bytes] = None) -> FileAnalysis:
    """Run every applicable per-file rule over one file.

    Never raises on bad input: undecodable bytes, NUL bytes, and syntax
    errors all come back as a ``REP000`` diagnostic so one broken file
    cannot take down a whole-tree run.
    """
    unparsed = extract_facts(str(path), module_name_for(path), ast.Module([], []))
    analysis = FileAnalysis(path=str(path), facts=unparsed)
    if content is None:
        content = path.read_bytes()
    try:
        source = content.decode("utf-8")
    except UnicodeDecodeError as exc:
        analysis.hygiene.append(Diagnostic(
            path=str(path), line=1, col=0, code="REP000",
            message=(
                f"file is not valid UTF-8 "
                f"(byte offset {exc.start}: {exc.reason})"
            ),
        ))
        return analysis
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        analysis.hygiene.append(Diagnostic(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            code="REP000",
            message=f"file does not parse: {exc.msg}",
        ))
        return analysis
    except ValueError as exc:  # NUL bytes and friends
        analysis.hygiene.append(Diagnostic(
            path=str(path), line=1, col=0, code="REP000",
            message=f"file does not parse: {exc}",
        ))
        return analysis

    ctx = FileContext(path, source, tree)
    analysis.suppressions, malformed = parse_suppressions(str(path), source)
    analysis.hygiene.extend(malformed)

    known_codes = set(rule_catalog())
    for suppression in analysis.suppressions.values():
        for code in suppression.codes:
            if code not in known_codes:
                analysis.hygiene.append(Diagnostic(
                    path=str(path),
                    line=suppression.line,
                    col=0,
                    code="REP002",
                    message=f"allow[{code}] names an unknown rule code",
                ))

    for rule_cls in RULES:
        if not rule_cls.applies(ctx):
            continue
        analysis.findings.extend(rule_cls(ctx).run())

    analysis.facts = extract_facts(str(path), ctx.module, tree)
    return analysis


def finalize(
    analyses: Sequence[FileAnalysis],
    program_diagnostics: Sequence[Diagnostic] = (),
    *,
    program_ran: bool = False,
) -> List[Diagnostic]:
    """Apply waivers across per-file and program findings; add hygiene.

    A waiver naming only program codes is *not* reported stale when the
    program passes did not run — a plain ``repro lint`` must not nag
    about waivers that ``repro lint --program`` justifies.
    """
    by_line: Dict[Tuple[str, int], Suppression] = {}
    for analysis in analyses:
        for suppression in analysis.suppressions.values():
            suppression.used = False
            by_line[(analysis.path, suppression.line)] = suppression

    results: List[Diagnostic] = []
    for analysis in analyses:
        results.extend(analysis.hygiene)

    flat: List[Diagnostic] = []
    for analysis in analyses:
        flat.extend(analysis.findings)
    flat.extend(program_diagnostics)
    for diag in flat:
        suppression = by_line.get((diag.path, diag.line))
        if (
            suppression is not None
            and diag.code in suppression.codes
            and diag.code not in ENGINE_CODES
        ):
            suppression.used = True
        else:
            results.append(diag)

    for analysis in analyses:
        for suppression in analysis.suppressions.values():
            if suppression.used:
                continue
            if not program_ran and any(
                code in PROGRAM_CODES for code in suppression.codes
            ):
                continue  # only --program can vouch for these
            codes = ", ".join(suppression.codes)
            results.append(Diagnostic(
                path=analysis.path,
                line=suppression.line,
                col=0,
                code="REP003",
                message=f"allow[{codes}] suppresses nothing on this line; "
                "remove the stale waiver",
            ))
    return sorted(results)


def lint_file(path: Path) -> List[Diagnostic]:
    """Run every applicable per-file rule over one file and filter."""
    return finalize([analyze_file(path)])


def lint_paths(
    paths: Iterable[Path],
    *,
    program: bool = False,
    cache: Optional[AnalysisCache] = None,
) -> List[Diagnostic]:
    """Lint every ``.py`` file under ``paths``; deterministic order.

    With ``program=True`` the whole-program passes (import graph,
    seed-taint, pool-safety) run over the combined facts.  With a
    ``cache``, per-file analyses are reused when file content is
    unchanged (keyed by sha256), making warm runs incremental.
    """
    analyses: List[FileAnalysis] = []
    for path in iter_python_files(paths):
        if cache is not None:
            content = path.read_bytes()
            key, cached = cache.load(path, content)
            if isinstance(cached, FileAnalysis):
                analyses.append(cached)
                continue
            analysis = analyze_file(path, content)
            cache.store(key, analysis)
        else:
            analysis = analyze_file(path)
        analyses.append(analysis)

    program_diagnostics: List[Diagnostic] = []
    if program:
        program_diagnostics = analyze_program(a.facts for a in analyses)
    return finalize(analyses, program_diagnostics, program_ran=program)
