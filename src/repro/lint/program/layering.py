"""Import-graph pass: layering contract, cycles, external containment.

* ``REP901`` — an import that points *upward* in the declared layering
  (:data:`repro.lint.program.contract.LAYERS`).
* ``REP902`` — a top-level import cycle at module granularity.  Lazy
  (function-scoped / ``TYPE_CHECKING``) imports are exempt here — they
  are the sanctioned way to break a load-time cycle — but NOT exempt
  from REP901: laziness changes when an import runs, not which way the
  architecture points.
* ``REP903`` — a contracted external dependency imported from a package
  outside its allowlist, numpy included (eagerly or inside a function).
* ``REP904`` — a project module whose package appears in no declared
  layer: the contract must be extended before the analyzer accepts it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.program import contract
from repro.lint.program.callgraph import ProgramIndex


def layering_pass(index: ProgramIndex) -> List[Diagnostic]:
    """Run the REP901–REP904 import-graph checks."""
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_undeclared_modules(index))
    diagnostics.extend(_layer_violations(index))
    diagnostics.extend(_external_violations(index))
    diagnostics.extend(_cycles(index))
    return diagnostics


def _undeclared_modules(index: ProgramIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module, ff in sorted(index.modules.items()):
        if module != "repro" and not module.startswith("repro."):
            continue  # a src root may host non-repro helpers; not ours
        if contract.layer_of(module) is None:
            pkg = contract.package_of(module)
            out.append(Diagnostic(
                path=ff.path, line=1, col=0, code="REP904",
                message=(
                    f"module '{module}' belongs to package '{pkg}' which "
                    f"appears in no declared layer; add it to "
                    f"repro.lint.program.contract.LAYERS"
                ),
            ))
    return out


def _layer_violations(index: ProgramIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    edges = index.module_import_edges()
    for module in sorted(edges):
        ff = index.modules[module]
        for imported, line, col, _lazy in edges[module]:
            if contract.allowed_import(module, imported):
                continue
            src_layer = contract.layer_of(module)
            dst_layer = contract.layer_of(imported)
            assert src_layer is not None and dst_layer is not None
            out.append(Diagnostic(
                path=ff.path, line=line, col=col, code="REP901",
                message=(
                    f"'{module}' (layer {contract.layer_name(src_layer)}) "
                    f"may not import '{imported}' (layer "
                    f"{contract.layer_name(dst_layer)}): imports must "
                    f"point at the same layer or below"
                ),
            ))
    return out


def _external_violations(index: ProgramIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module, ff in sorted(index.modules.items()):
        if module != "repro" and not module.startswith("repro."):
            continue
        pkg = contract.package_of(module)
        for imp in ff.imports:
            top = imp.target.split(".")[0]
            allowed = contract.EXTERNAL_CONTRACT.get(top)
            if allowed is None or pkg in allowed:
                continue
            where = (
                "packages {" + ", ".join(allowed) + "}"
                if allowed else "no library package (tests only)"
            )
            out.append(Diagnostic(
                path=ff.path, line=imp.lineno, col=imp.col, code="REP903",
                message=(
                    f"external dependency '{top}' is contracted to "
                    f"{where}; '{module}' may not import it"
                ),
            ))
    return out


def _cycles(index: ProgramIndex) -> List[Diagnostic]:
    """Tarjan SCCs over the *eager* (top-level) import graph."""
    edges = index.module_import_edges()
    eager: Dict[str, List[Tuple[str, int, int]]] = {
        module: [
            (imported, line, col)
            for imported, line, col, lazy in targets
            if not lazy and imported in edges
        ]
        for module, targets in edges.items()
    }
    sccs = _tarjan(eager)
    out: List[Diagnostic] = []
    for component in sccs:
        if len(component) < 2:
            continue
        cyclic: Set[str] = set(component)
        members = " <-> ".join(sorted(cyclic))
        for module in sorted(cyclic):
            ff = index.modules[module]
            for imported, line, col in eager[module]:
                if imported in cyclic:
                    out.append(Diagnostic(
                        path=ff.path, line=line, col=col, code="REP902",
                        message=(
                            f"top-level import of '{imported}' closes an "
                            f"import cycle ({members}); break it with a "
                            f"lazy import or by moving the shared code down"
                        ),
                    ))
    return out


def _tarjan(
    graph: Dict[str, List[Tuple[str, int, int]]]
) -> List[List[str]]:
    """Iterative Tarjan strongly-connected components."""
    indices: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in indices:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                indices[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = graph.get(node, ())
            for i in range(edge_index, len(successors)):
                succ = successors[i][0]
                if succ not in indices:
                    work[-1] = (node, i + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == indices[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs
