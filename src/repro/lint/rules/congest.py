"""CONGEST activity-contract conformance (``REP401``, ``REP403``).

Node programs (subclasses of
:class:`~repro.congest.algorithm.CongestAlgorithm`) see the world
through the :class:`~repro.congest.algorithm.NodeView` public API.
The round engine's correctness — and the parity suite against the
scan-everything reference loop — depends on programs not reaching
around it:

* ``REP401`` — touching a private attribute of the node view
  (``node._network``, ``node._wake``, ``node._incident``) or naming
  ``SyncNetwork`` inside a node program: that is the engine's side of
  the boundary, and going around ``NodeView`` breaks the activity
  accounting.
* ``REP403`` — constructing ``NodeView(...)`` directly: views are
  created by the engine only (the module docstring's explicit rule);
  a hand-built view has no network wiring and silently reads round 0.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, List, Set, Union

from repro.lint.context import FileContext
from repro.lint.registry import Rule, register

#: NodeView method hooks whose second positional parameter is the view.
_HOOKS: Set[str] = {"setup", "step", "is_done", "finish"}

#: Modules allowed to construct NodeView / touch its internals: the
#: engine itself and the contract definition.
_ENGINE_MODULES: Set[str] = {"repro.congest.simulator", "repro.congest.algorithm"}


def _base_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


@register
class CongestContract(Rule):
    """Node programs stay on their side of the NodeView boundary."""

    name = "congest-contract"
    codes: ClassVar[Dict[str, str]] = {
        "REP401": "node program reaches around the NodeView API",
        "REP403": "NodeView constructed outside the engine",
    }

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.module not in _ENGINE_MODULES

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._in_program = 0
        self._node_params: List[Set[str]] = []

    # -- program detection ---------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if "CongestAlgorithm" not in _base_names(node):
            self.generic_visit(node)
            return
        self._in_program += 1
        self.generic_visit(node)
        self._in_program -= 1

    def _visit_method(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        params: Set[str] = set()
        if self._in_program:
            args = [a.arg for a in node.args.posonlyargs + node.args.args]
            if node.name in _HOOKS and len(args) >= 2:
                params.add(args[1])
            params.update(a for a in args[1:] if a == "node")
        self._node_params.append(params)
        self.generic_visit(node)
        self._node_params.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_method(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_method(node)

    def _is_node_name(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and any(
            node.id in params for params in self._node_params
        )

    # -- REP401 / REP403 -----------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._in_program
            and node.attr.startswith("_")
            and self._is_node_name(node.value)
        ):
            assert isinstance(node.value, ast.Name)
            self.report(
                node,
                "REP401",
                f"{node.value.id}.{node.attr} is engine-private state; node "
                "programs use the public NodeView API only",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._in_program and node.id == "SyncNetwork":
            self.report(
                node,
                "REP401",
                "node programs must not touch SyncNetwork; all network "
                "access goes through the NodeView the engine hands in",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "NodeView":
            self.report(
                node,
                "REP403",
                "NodeView instances are created by SyncNetwork only; "
                "hand-built views have no round counter or wake wiring",
            )
        self.generic_visit(node)
