"""No public name or record field of the library is reached from the
tests alone.

An AST scan: every public function and class of ``src/repro`` outside
``repro.lint``, and every public method of a public class, must be
referenced somewhere outside ``tests/``: in ``src/`` itself,
``benchmarks/``, ``perfbench/`` or ``examples/``.  A reference is an
attribute read, or a component of the attribute path of a
``("repro...", "attribute.path", ...)`` wrap target in ``perfbench/``
or ``benchmarks/`` (the functions their tracers and counters wrap);
for a module-level function or class, a bare name is one too.
Imports and ``__all__`` entries are not references, and a name matches
by its last component alone, so a method counts as used wherever an
attribute of that name is read, but not where a local variable, a
parameter or a builtin happens to share its name.

Every public field and property of a public dataclass or ``NamedTuple``,
``repro.lint``'s included, must likewise be read there as an attribute
(``x.field``); a keyword that fills it, or a bare name that happens to
match, does not count.  A result field that only tests read is work the
constructions do for nobody.  The names in :data:`ALLOWED` stay for the
reason given with each.

The name scan leaves ``repro.lint`` out: its rule classes and their
``visit_*`` methods are reached through registration and
``ast.NodeVisitor`` dispatch, which a scan of names cannot see.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "repro"
#: directories whose code counts as a use of the library
USERS = ("src", "benchmarks", "perfbench", "examples")
#: directories whose wrap targets count as references
WRAPPERS = ("benchmarks", "perfbench")

#: public names only tests reach, each with the reason it stays
ALLOWED: Dict[str, str] = {
    # fixtures and references
    "complete_graph": "generator: a test fixture",
    "cycle_graph": "generator: a test fixture",
    "random_regular_graph": "generator: a test fixture",
    "random_tree": "generator: a test fixture",
    "WeightedGraph.remove_edge": "fixture: tests cut edges out of graphs",
    "WeightedGraph.to_networkx": "reference: networkx cross-checks distances",
    "hop_distances": "reference: tests check BFS depths against it",
    "pack_arrays": "fixture: the packed-format tests write their files with it",
    "RoundLedger.entries": (
        "reference: the §7 parity tests compare whole charge logs, in order"
    ),
    "WeightedGraph.subgraph": (
        "fixture, and the reference for the fragment-diameter tests"
    ),
    "NodeView.edge_weight": (
        "node-program interface: a node's incident weight, which the "
        "reference Bellman-Ford program in the tests reads"
    ),
    "NodeView.round": (
        "node-program interface: the current round, which the tests' "
        "node programs read"
    ),
    "ServeClient.shutdown": "client side of the daemon's shutdown op",
    "ServeClient.info": "client side of the daemon's info op",
    "ServeClient.crash_worker": (
        "client side of the daemon's crash_worker op, the crash-isolation "
        "tests' endpoint"
    ),
    "Comparison.improvements": (
        "the counterpart of regressions: tests check what the gate counts "
        "as faster or smaller"
    ),
    # §5 diagnostics: the light goldens pin them and the case tests read
    # them; ROADMAP item 6 wants the case in the harness records
    "BucketStats.num_edges": "§5 diagnostic: |E_i|, pinned by the light goldens",
    "BucketStats.case": (
        "§5 diagnostic: which case ran, pinned by the light goldens and read "
        "by the case tests"
    ),
    "BucketStats.num_clusters": (
        "§5 diagnostic: the cluster count, pinned by the light goldens"
    ),
    # paper quantities the tests check guarantees with
    "WeightedGraph.aspect_ratio": "paper quantity: the aspect ratio Λ",
    "packing_number": "paper quantity: Lemma 6's packing bound",
    "LEListResult.max_list_length": "paper quantity: the LE-list length",
    "SPTree.stretch_to_root": "paper quantity: an SPT's root stretch",
    "EulerTour.length": "paper quantity: the tour's length L = 2·w(T)",
}


def _public_definitions() -> List[Tuple[str, str, str]]:
    """``(module path, qualified name, last component)`` of every public
    function, class and method of a public class outside ``repro.lint``."""
    found = []
    for path in sorted(LIBRARY.rglob("*.py")):
        rel = path.relative_to(LIBRARY)
        if rel.parts[0] == "lint":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found.append((str(rel), node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found.append(
                            (str(rel), f"{node.name}.{item.name}", item.name)
                        )
    return found


def _last_name(node: ast.expr) -> str:
    """``x`` of ``x`` or ``a.b.x``; empty for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` (with or without arguments) or a ``NamedTuple``."""
    decorators = (d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list)
    return (any(_last_name(d) == "dataclass" for d in decorators)
            or any(_last_name(b) == "NamedTuple" for b in node.bases))


def _record_fields() -> List[Tuple[str, str, str]]:
    """``(module path, qualified name, field name)`` of every public field
    and property of a public dataclass or ``NamedTuple``."""
    found = []
    for path in sorted(LIBRARY.rglob("*.py")):
        rel = path.relative_to(LIBRARY)
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, ast.ClassDef) or node.name.startswith("_")
                    or not _is_record(node)):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    name = item.target.id
                elif (isinstance(item, ast.FunctionDef)
                        and any(_last_name(d) == "property"
                                for d in item.decorator_list)):
                    name = item.name
                else:
                    continue
                if not name.startswith("_"):
                    found.append((str(rel), f"{node.name}.{name}", name))
    return found


def _wrap_target(node: ast.Tuple) -> Iterable[str]:
    """The attribute path of a ``("repro...", "a.b", ...)`` tuple, split."""
    head = [e.value for e in node.elts[:2] if isinstance(e, ast.Constant)]
    if len(head) == 2 and all(isinstance(v, str) for v in head):
        module, path = head
        if module.startswith("repro"):
            return path.split(".")
    return ()


def _references(
    directories: Iterable[str], wrappers: Iterable[str]
) -> Tuple[Set[str], Set[str]]:
    """``(names, attributes)`` referenced in ``directories``: every bare
    name, and every attribute read or wrap-target component."""
    names: Set[str] = set()
    attributes: Set[str] = set()
    wrapping = set(wrappers)
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                elif directory in wrapping and isinstance(node, ast.Tuple):
                    attributes.update(_wrap_target(node))
    return names, attributes


def _referenced(qual: str, last: str, names: Set[str], attributes: Set[str]) -> bool:
    """A method by an attribute of its name; a module-level name also
    by a bare name."""
    return last in attributes or ("." not in qual and last in names)


def _test_only() -> Dict[str, str]:
    """Qualified name -> module of every public name no user references."""
    names, attributes = _references(USERS, WRAPPERS)
    return {qual: rel for rel, qual, last in _public_definitions()
            if not _referenced(qual, last, names, attributes)}


def _unread_fields() -> Dict[str, str]:
    """Qualified name -> module of every record field no user reads."""
    read = _references(USERS, ())[1]
    return {qual: rel for rel, qual, last in _record_fields() if last not in read}


def test_no_public_name_is_reached_from_tests_alone():
    unused = {qual: rel for qual, rel in _test_only().items()
              if qual not in ALLOWED}
    assert not unused, (
        "library code that only tests call (delete it, or add it to "
        "ALLOWED with a reason): "
        + ", ".join(f"{rel}: {qual}" for qual, rel in sorted(unused.items()))
    )


def test_no_record_field_is_read_by_tests_alone():
    unread = {qual: rel for qual, rel in _unread_fields().items()
              if qual not in ALLOWED}
    assert not unread, (
        "record fields that only tests read (delete them with the work "
        "that fills them, or add them to ALLOWED with a reason): "
        + ", ".join(f"{rel}: {qual}" for qual, rel in sorted(unread.items()))
    )


def test_every_allowed_name_is_defined_and_still_test_only():
    test_only = {**_test_only(), **_unread_fields()}
    stale = sorted(set(ALLOWED) - set(test_only))
    assert not stale, f"ALLOWED entries used outside the tests or gone: {stale}"
    names, attributes = _references(["tests"], [])
    untested = sorted(q for q in ALLOWED
                      if not _referenced(q, q.rsplit(".", 1)[-1], names, attributes))
    assert not untested, f"ALLOWED entries no test reaches: {untested}"
    assert all(reason.strip() for reason in ALLOWED.values())
