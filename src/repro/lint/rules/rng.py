"""RNG discipline (``REP101``–``REP103``).

Seeded determinism is threaded end-to-end in this repo: profiles carry
seeds, constructions take an ``rng``, and two identically-seeded runs
must produce identical structures.  Three things break that chain:

* ``REP101`` — drawing from the *module-level* global generator
  (``random.random()``, ``random.shuffle(...)``,
  ``np.random.rand(...)``) or from ``random.SystemRandom``: global
  state another call site can perturb, or OS entropy no seed controls.
* ``REP102`` — constructing an *unseeded* generator
  (``random.Random()`` / ``default_rng()`` with no arguments): fresh
  OS entropy per call, unreproducible by definition.
* ``REP103`` — a function that constructs its own generator from a
  value none of its parameters influence (``random.Random(42)`` deep
  inside a helper): the seed is real but unreachable, so callers
  cannot thread determinism through.  Randomness-drawing functions
  accept ``rng`` or ``seed`` (see :func:`repro.determinism.ensure_rng`).

``REP101``/``REP102`` apply everywhere (a nondeterministic *test* is
as flaky as nondeterministic source); ``REP103`` is an API-design rule
and applies only inside the ``repro`` package.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, List, Set

from repro.lint.context import FileContext, dotted_name
from repro.lint.registry import Rule, register

#: random-module callables that draw from (or reseed) the global generator.
_GLOBAL_DRAWS: Set[str] = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}


@register
class RngDiscipline(Rule):
    """No global randomness, no unseeded generators, seeds threaded."""

    name = "rng-discipline"
    codes: ClassVar[Dict[str, str]] = {
        "REP101": "module-level global RNG call (random.*/np.random.*/SystemRandom)",
        "REP102": "unseeded generator: random.Random()/default_rng() without a seed",
        "REP103": "generator seeded by a value no function parameter influences",
    }

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        # names bound by `from random import shuffle, ...`
        self._from_random: Set[str] = set()
        # stack of parameter-name sets for enclosing function defs
        self._params: List[Set[str]] = []

    # -- imports -------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_DRAWS or alias.name == "SystemRandom":
                    self._from_random.add(alias.asname or alias.name)
                    self.report(
                        node,
                        "REP101",
                        f"from-import of random.{alias.name} binds the global "
                        "generator; import random and thread a seeded "
                        "random.Random instead",
                    )
        self.generic_visit(node)

    # -- function scopes ----------------------------------------------
    def _visit_function(self, node: ast.FunctionDef) -> None:
        args = node.args
        names = {
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        self._params.append(names)
        self.generic_visit(node)
        self._params.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)  # type: ignore[arg-type]

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted in {f"random.{draw}" for draw in _GLOBAL_DRAWS}:
            self.report(
                node,
                "REP101",
                f"call to the global generator ({dotted}); construct a seeded "
                "random.Random and thread it instead",
            )
        elif dotted in {"random.SystemRandom", "SystemRandom"} and (
            dotted != "SystemRandom" or "SystemRandom" in self._from_random
        ):
            self.report(
                node,
                "REP101",
                "SystemRandom draws OS entropy; no seed can reproduce it",
            )
        elif isinstance(node.func, ast.Name) and node.func.id in self._from_random:
            self.report(
                node,
                "REP101",
                f"call to the global generator (random.{node.func.id}); "
                "construct a seeded random.Random and thread it instead",
            )
        elif dotted.startswith("np.random.") or dotted.startswith("numpy.random."):
            leaf = dotted.rsplit(".", 1)[1]
            if leaf == "default_rng":
                if not node.args and not node.keywords:
                    self.report(
                        node,
                        "REP102",
                        "default_rng() without a seed is fresh entropy per call",
                    )
            else:
                self.report(
                    node,
                    "REP101",
                    f"call to numpy's global generator ({dotted}); use a "
                    "seeded Generator from default_rng(seed)",
                )
        elif dotted == "random.Random":
            if not node.args and not node.keywords:
                self.report(
                    node,
                    "REP102",
                    "random.Random() without a seed is fresh entropy per "
                    "call; take rng/seed and use repro.determinism.ensure_rng",
                )
            else:
                self._check_threading(node)
        self.generic_visit(node)

    def _check_threading(self, node: ast.Call) -> None:
        """REP103: the seed expression must depend on a parameter."""
        if not self.ctx.in_repro_package() or not self._params:
            return
        reachable: Set[str] = set()
        for scope in self._params:
            reachable |= scope
        seed_exprs: List[ast.expr] = list(node.args) + [
            kw.value for kw in node.keywords
        ]
        for expr in seed_exprs:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name) and sub.id in reachable:
                    return
        self.report(
            node,
            "REP103",
            "generator seeded by a value no enclosing-function parameter "
            "influences; accept rng/seed so callers control determinism",
        )
