"""Per-file analysis context shared by every rule.

One :class:`FileContext` is built per linted file: the parsed AST, a
parent map (rules frequently need "who consumes this node"), the
dotted module name when the file lives under a ``src`` root, and the
raw source lines for precise reporting.  The AST name helpers that
both the per-file rules and the whole-program fact extractor read are
defined here too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def leaf_name(node: ast.expr) -> str:
    """The last name of a Name/Attribute chain (``b`` of ``a.b``), else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for ``path``, or None outside a ``src`` root.

    ``src/repro/core/slt.py`` maps to ``repro.core.slt``;
    ``src/repro/lint/__init__.py`` maps to ``repro.lint``.  Test and
    script files (no ``src`` ancestor) have no module identity — rules
    scoped to the installed package skip them.
    """
    parts = path.resolve().parts
    try:
        src_idx = len(parts) - 1 - parts[::-1].index("src")
    except ValueError:
        return None
    rel = parts[src_idx + 1 :]
    if not rel or not rel[-1].endswith(".py"):
        return None
    names = list(rel[:-1])
    stem = rel[-1][: -len(".py")]
    if stem != "__init__":
        names.append(stem)
    return ".".join(names) if names else None


class FileContext:
    """Everything a rule needs to analyze one file."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        self.module: Optional[str] = module_name_for(path)
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (None for the module root)."""
        return self._parents.get(id(node))

    def in_repro_package(self) -> bool:
        """True when the file is part of the installed ``repro`` package."""
        return self.module is not None and (
            self.module == "repro" or self.module.startswith("repro.")
        )
