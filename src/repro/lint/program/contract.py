"""The declared architecture: layering contract and external containment.

This module is the **single source of truth** for which package may
import which.  The whole-program import pass (``REP901``–``REP904``)
enforces it, DESIGN.md embeds :func:`render_contract`'s output verbatim
(asserted in sync by a test), and new packages must be added here
before the analyzer will accept them at all.

Semantics
---------
:data:`LAYERS` lists layers bottom-up.  A module may import

* any module of its **own package** (intra-package imports are free),
* any package in a **strictly lower** layer,
* any package in its **own layer** (sibling packages at one level are
  peers — e.g. ``repro.graphs`` and ``repro.kernels`` hand CSR columns
  back and forth; the module-granularity cycle check ``REP902`` keeps
  genuine import cycles out of such peer groups).

Imports *upward* are ``REP901`` — that is the arrow the contract
exists to forbid: the foundation must never know about the layers
built on top of it.  Function-scoped (lazy) imports are held to the
same direction discipline; laziness only changes *when* an import
runs, not which way the architecture points.

:data:`EXTERNAL_CONTRACT` maps optional third-party imports to the
repro packages allowed to import them; the program-level ``REP903``
enforces every row, numpy's included.  Plain ``repro lint`` without
``--program`` therefore does not check numpy containment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Bottom-up layering: (layer name, packages in the layer).  A package
#: is the first two dotted components (``repro.graphs``); the bare
#: ``repro`` facade and single-module packages (``repro.cli``,
#: ``repro.io``, ...) name themselves.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("foundation", ("repro.determinism", "repro.obs")),
    ("data", ("repro.graphs", "repro.kernels", "repro.io")),
    ("model", ("repro.congest",)),
    ("structures", ("repro.mst", "repro.spt", "repro.spanners",
                    "repro.lelists", "repro.traversal")),
    ("algorithms", ("repro.core", "repro.baselines")),
    ("serving", ("repro.oracle", "repro.serve")),
    ("analysis", ("repro.analysis",)),
    ("harness", ("repro.harness",)),
    ("tooling", ("repro.lint",)),
    ("frontend", ("repro", "repro.cli", "repro.__main__")),
)

#: Optional third-party imports and the packages allowed to use them.
#: An empty tuple would mean "no library package may import this at
#: all".  REP903 enforces every row.  networkx is confined to the lazy
#: interop helpers on :class:`repro.graphs.weighted_graph.WeightedGraph`.
EXTERNAL_CONTRACT: Dict[str, Tuple[str, ...]] = {
    "numpy": ("repro.kernels",),
    "networkx": ("repro.graphs",),
}

_LAYER_INDEX: Dict[str, int] = {
    pkg: i for i, (_, pkgs) in enumerate(LAYERS) for pkg in pkgs
}


def package_of(module: str) -> str:
    """The contract-granularity package a dotted module belongs to.

    ``repro.graphs.csr`` -> ``repro.graphs``; the facade module
    ``repro`` and top-level modules (``repro.cli``) name themselves.
    """
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module


def layer_of(module: str) -> Optional[int]:
    """Layer index of ``module`` (0 = foundation), None if undeclared."""
    return _LAYER_INDEX.get(package_of(module))


def layer_name(index: int) -> str:
    """Human-readable name of layer ``index``."""
    return LAYERS[index][0]


def allowed_import(importer: str, imported: str) -> bool:
    """Whether the contract permits ``importer`` to import ``imported``.

    Both are dotted module names inside the ``repro`` tree; modules
    outside any declared layer are handled by the caller (``REP904``).
    """
    src_pkg, dst_pkg = package_of(importer), package_of(imported)
    if src_pkg == dst_pkg:
        return True
    src_layer, dst_layer = _LAYER_INDEX.get(src_pkg), _LAYER_INDEX.get(dst_pkg)
    if src_layer is None or dst_layer is None:
        return True  # undeclared packages are REP904, not REP901
    return dst_layer <= src_layer


def render_contract() -> str:
    """The layering diagram DESIGN.md embeds (asserted in sync by test).

    Rendered top-down — the frontend at the top may import everything
    below it; the foundation at the bottom imports nothing.
    """
    rows: List[str] = [
        "```",
        "may import everything below; nothing may import upward",
    ]
    for i in range(len(LAYERS) - 1, -1, -1):
        name, pkgs = LAYERS[i]
        rows.append(f"  [{i}] {name:<10}  " + "  ".join(pkgs))
    rows.append("")
    rows.append("externals: " + "  ".join(
        f"{ext} -> {'{' + ', '.join(allowed) + '}' if allowed else '(tests only)'}"
        for ext, allowed in sorted(EXTERNAL_CONTRACT.items())
    ))
    rows.append("```")
    return "\n".join(rows)
