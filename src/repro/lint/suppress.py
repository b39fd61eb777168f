"""Documented line-level suppressions.

Syntax, on the same physical line as the diagnostic::

    risky_call()  # repro: allow[REP101] -- seeded upstream by the CLI

* The bracket list may name several codes: ``allow[REP101, REP201]``.
* The ``-- justification`` clause is **mandatory**: a waiver without a
  written reason is itself a finding (``REP001``) and suppresses
  nothing, so undocumented suppressions cannot accumulate.
* Unknown codes are findings (``REP002``); a documented waiver that
  matches no diagnostic on its line is dead and flagged (``REP003``).

Comments are recognised via :mod:`tokenize`, not substring search, so
string literals that *contain* suppression-shaped text (e.g. the
analyzer's own test fixtures) are never treated as waivers.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.lint.diagnostics import Diagnostic

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[^\]]*)\]"
    r"(?:\s*--\s*(?P<why>.*?))?\s*$"
)
_MARKER_RE = re.compile(r"#\s*repro\s*:")


@dataclass
class Suppression:
    """One ``# repro: allow[...]`` waiver on one physical line."""

    line: int
    codes: Tuple[str, ...]
    used: bool = field(default=False)


def parse_suppressions(
    path: str, source: str
) -> Tuple[Dict[int, Suppression], List[Diagnostic]]:
    """Extract waivers from ``source``.

    Returns ``(line -> suppression, diagnostics)`` where the
    diagnostics cover malformed waivers (``REP001``): a ``# repro:``
    marker comment that does not parse, an empty code list, or a
    missing/empty justification.  Undocumented waivers are *not*
    entered into the suppression map — they must not suppress.
    """
    suppressions: Dict[int, Suppression] = {}
    diagnostics: List[Diagnostic] = []

    def bad(line: int, col: int, message: str) -> None:
        diagnostics.append(
            Diagnostic(path=path, line=line, col=col, code="REP001", message=message)
        )

    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}, []  # the engine reports the parse failure as REP000

    for tok in tokens:
        if tok.type != tokenize.COMMENT or not _MARKER_RE.search(tok.string):
            continue
        line, col = tok.start
        match = _ALLOW_RE.search(tok.string)
        if match is None:
            bad(line, col, "'# repro:' comment is not a valid allow[...] waiver")
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",") if code.strip()
        )
        justification = (match.group("why") or "").strip()
        if not codes:
            bad(line, col, "allow[] names no rule codes")
            continue
        if not justification:
            bad(
                line,
                col,
                f"allow[{', '.join(codes)}] lacks the mandatory "
                "'-- justification' clause",
            )
            continue
        suppressions[line] = Suppression(line=line, codes=codes)
    return suppressions, diagnostics
