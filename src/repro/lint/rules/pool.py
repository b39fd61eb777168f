"""Pool-boundary safety (``REP501``–``REP503``).

Everything crossing a :mod:`multiprocessing` pool boundary is pickled
(under the ``spawn`` start method — macOS/Windows default — *always*).
Lambdas and functions defined inside another function do not pickle;
code shipping them works on fork-start Linux and dies everywhere
else, which is exactly the class of latent bug CI on one platform
never catches.  The safe pattern is: module-level worker functions,
state shipped once through a module-level ``initializer``.

* ``REP501`` — a ``lambda`` passed to a pool constructor or a
  dispatch method (``map``/``imap``/``imap_unordered``/``starmap``/
  ``apply_async``/``submit``/...).
* ``REP502`` — a function *defined inside the enclosing function*
  passed to a pool dispatch point: it closes over local (possibly
  mutable) state and is unpicklable under spawn.
* ``REP503`` — a pool ``initializer=`` that is not a plain
  module-level callable reference (``Name`` or dotted ``Attribute``).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, List, Optional, Set, Union

from repro.lint.context import DISPATCH_METHODS, POOL_CONSTRUCTORS, FileContext, leaf_name
from repro.lint.registry import Rule, register


@register
class PoolBoundary(Rule):
    """Only module-level, picklable callables cross pool boundaries."""

    name = "pool-boundary"
    codes: ClassVar[Dict[str, str]] = {
        "REP501": "lambda shipped into a multiprocessing pool",
        "REP502": "locally-defined function shipped into a pool",
        "REP503": "pool initializer is not a module-level callable reference",
    }

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        # names bound to pool objects, per scope
        self._pool_names: List[Set[str]] = [set()]
        # names of functions defined locally (inside a function), per scope
        self._local_defs: List[Set[str]] = [set()]
        self._depth = 0

    # -- scope tracking ------------------------------------------------
    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        if self._depth > 0:
            self._local_defs[-1].add(node.name)
        self._depth += 1
        self._pool_names.append(set())
        self._local_defs.append(set())
        self.generic_visit(node)
        self._pool_names.pop()
        self._local_defs.pop()
        self._depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _is_pool_constructor(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Call) and (
            leaf_name(node.func) in POOL_CONSTRUCTORS
        )

    def _track_binding(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if self._is_pool_constructor(value):
                self._pool_names[-1].add(target.id)
            else:
                self._pool_names[-1].discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_binding(target, node.value)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._track_binding(item.optional_vars, item.context_expr)
        self.generic_visit(node)

    def _is_pool_name(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._pool_names
        )

    def _is_local_def(self, name: str) -> bool:
        return any(name in scope for scope in self._local_defs)

    # -- dispatch points -----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._is_pool_constructor(node):
            self._check_dispatch(node, constructor=True)
        elif isinstance(node.func, ast.Attribute) and (
            node.func.attr in DISPATCH_METHODS
            and self._is_pool_name(node.func.value)
        ):
            self._check_dispatch(node, constructor=False)
        self.generic_visit(node)

    def _check_dispatch(self, node: ast.Call, constructor: bool) -> None:
        shipped: List[ast.expr] = list(node.args)
        initializer: Optional[ast.expr] = None
        for kw in node.keywords:
            if kw.arg == "initializer":
                initializer = kw.value
            shipped.append(kw.value)
        for arg in shipped:
            if isinstance(arg, ast.Lambda):
                self.report(
                    arg,
                    "REP501",
                    "lambdas do not pickle under the spawn start method; "
                    "ship a module-level function",
                )
            elif isinstance(arg, ast.Name) and self._is_local_def(arg.id):
                self.report(
                    arg,
                    "REP502",
                    f"{arg.id!r} is defined inside the enclosing function; "
                    "it closes over local state and does not pickle under "
                    "spawn — move it to module level",
                )
        if initializer is not None and not isinstance(
            initializer, (ast.Name, ast.Attribute)
        ):
            self.report(
                initializer,
                "REP503",
                "pool initializer must be a module-level callable reference "
                "(the spawn start method re-imports it by name)",
            )
