"""Per-file facts for the whole-program passes.

One AST walk per file distils everything the cross-file passes need —
import edges, module-scope name bindings, conservative per-function
summaries (calls with argument shapes, global writes, CSR-array
mutations), class layouts, and the entry points of worker processes
(``Process(target=...)``).  The result (:class:`FileFacts`) is a
frozen, picklable value: it is what the content-hash cache stores, so
a warm ``--program`` run never re-parses an unchanged file.

Summaries are *intraprocedural* and syntactic on purpose: a call is
recorded as the dotted expression written at the call site plus which
argument slots were filled (and which of them reference an ``rng`` /
``seed`` parameter of the enclosing function).  All resolution —
aliases, class-scoped method lookup, ``functools.partial`` unwrapping —
happens later in :mod:`repro.lint.program.callgraph`, where every
file's facts are on hand.

Nested functions fold into their nearest module-level enclosing
function (or method): the analyzer over-approximates by assuming a
locally-defined function is called by its definer, which is the
conservative direction for both dataflow passes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.context import dotted_name, leaf_name

#: qualname used for statements executed at module import time.
MODULE_SCOPE = "<module>"

#: parameter names that carry the determinism chain.
_SEEDISH_EXACT = {"rng", "seed"}
_SEEDISH_SUFFIXES = ("_rng", "_seed")

#: callables that spawn one worker process around a ``target=`` entry
#: point (``multiprocessing.Process`` / a spawn context's ``Process``).
_PROCESS_CONSTRUCTORS = {"Process"}

#: methods that mutate their receiver in place (list/dict/set/array).
_MUTATOR_METHODS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "reverse", "setdefault", "sort", "update",
}

#: attributes of a frozen CSR view that must never be written.
_CSR_ARRAYS = {"indptr", "indices", "weights", "verts"}


def seedish(name: str) -> bool:
    """Whether a parameter name carries the rng/seed determinism chain."""
    return name in _SEEDISH_EXACT or name.endswith(_SEEDISH_SUFFIXES)


@dataclass(frozen=True)
class ImportFact:
    """One import statement edge out of this file."""

    lineno: int
    col: int
    target: str  # dotted module as imported ("repro.graphs.csr", "numpy")
    lazy: bool  # function-scoped or under `if TYPE_CHECKING:`


@dataclass(frozen=True)
class ParamFact:
    """One parameter of a summarised function."""

    name: str
    seedish: bool
    has_default: bool


@dataclass(frozen=True)
class CallFact:
    """One call site, summarised syntactically."""

    lineno: int
    col: int
    callee: str  # dotted expression as written ("f", "mod.f", "self.m")
    n_pos: int
    seeded_pos: Tuple[int, ...]  # positional slots referencing a seedish param
    keywords: Tuple[str, ...]
    seeded_kw: Tuple[str, ...]  # keyword slots referencing a seedish param
    has_star: bool  # *args / **kwargs present (slot mapping unknown)


@dataclass(frozen=True)
class WriteFact:
    """One state mutation inside a function body."""

    lineno: int
    col: int
    name: str  # the written module-global / the CSR attribute expression
    detail: str  # "assign" | "subscript" | "attribute" | "mutator:<meth>"


@dataclass(frozen=True)
class FunctionFacts:
    """Conservative intraprocedural summary of one function or method."""

    qualname: str  # "f", "Class.meth", or MODULE_SCOPE
    lineno: int
    params: Tuple[ParamFact, ...]  # positional (incl. posonly) then kwonly
    n_positional: int  # how many leading entries of params are positional
    is_method: bool  # first positional is self/cls (already dropped)
    calls: Tuple[CallFact, ...]
    global_writes: Tuple[WriteFact, ...]
    csr_writes: Tuple[WriteFact, ...]

    def seed_params(self) -> Tuple[ParamFact, ...]:
        """The parameters that carry the determinism chain."""
        return tuple(p for p in self.params if p.seedish)


@dataclass(frozen=True)
class ClassFacts:
    """Class layout for class-scoped name resolution."""

    name: str
    bases: Tuple[str, ...]  # dotted base expressions as written
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class FileFacts:
    """Everything the whole-program passes need from one file."""

    path: str
    module: Optional[str]  # dotted name under a src root, else None
    imports: Tuple[ImportFact, ...]
    aliases: Tuple[Tuple[str, str], ...]  # local name -> dotted target
    functions: Tuple[FunctionFacts, ...]
    classes: Tuple[ClassFacts, ...]
    #: worker entry points: the ``target=`` of each ``Process(...)`` call,
    #: as written (how the serve daemon starts each worker of its pool)
    worker_entries: Tuple[str, ...]

    def alias_map(self) -> Dict[str, str]:
        return dict(self.aliases)


def _unwrap_partial(node: ast.expr) -> ast.expr:
    """``functools.partial(f, ...)`` -> ``f`` (one level)."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("partial", "functools.partial") and node.args:
            return node.args[0]
    return node


@dataclass
class _FunctionAccumulator:
    """Mutable build state for one FunctionFacts."""

    qualname: str
    lineno: int
    params: Tuple[ParamFact, ...]
    n_positional: int
    is_method: bool
    seed_names: Set[str]
    locals: Set[str] = field(default_factory=set)
    globals_declared: Set[str] = field(default_factory=set)
    calls: List[CallFact] = field(default_factory=list)
    global_writes: List[WriteFact] = field(default_factory=list)
    csr_writes: List[WriteFact] = field(default_factory=list)

    def finish(self) -> FunctionFacts:
        return FunctionFacts(
            qualname=self.qualname,
            lineno=self.lineno,
            params=self.params,
            n_positional=self.n_positional,
            is_method=self.is_method,
            calls=tuple(self.calls),
            global_writes=tuple(self.global_writes),
            csr_writes=tuple(self.csr_writes),
        )


def _binding_names(target: ast.expr) -> Iterator[str]:
    """Names a bare assignment target binds.

    ``x = ...`` and ``x, (y, *z) = ...`` bind; ``x[k] = ...`` and
    ``x.attr = ...`` *store into* an existing object without binding,
    so they must not shadow a module global of the same name.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names the function body binds locally (shadowing module globals)."""
    bound: Set[str] = set()
    for node in ast.walk(fn):
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = (node.target,)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = (node.optional_vars,)
        elif isinstance(node, ast.NamedExpr):
            targets = (node.target,)
        for target in targets:
            bound.update(_binding_names(target))
    return bound


class _Extractor:
    """Single-pass facts extraction over one parsed file."""

    def __init__(
        self, path: str, module: Optional[str], tree: ast.Module
    ) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.imports: List[ImportFact] = []
        self.aliases: Dict[str, str] = {}
        self.functions: List[FunctionFacts] = []
        self.classes: List[ClassFacts] = []
        self.worker_entries: List[str] = []
        self.module_globals: Set[str] = set()
        # stack state
        self._fn_stack: List[_FunctionAccumulator] = []
        self._class_stack: List[str] = []
        self._module_acc = _FunctionAccumulator(
            qualname=MODULE_SCOPE, lineno=1, params=(), n_positional=0,
            is_method=False, seed_names=set(),
        )

    # -- entry ---------------------------------------------------------
    def run(self) -> FileFacts:
        for name in self._collect_module_globals():
            self.module_globals.add(name)
        self._walk_body(self.tree.body, lazy=False)
        functions = [*self.functions, self._module_acc.finish()]
        return FileFacts(
            path=self.path,
            module=self.module,
            imports=tuple(self.imports),
            aliases=tuple(sorted(self.aliases.items())),
            functions=tuple(functions),
            classes=tuple(self.classes),
            worker_entries=tuple(self.worker_entries),
        )

    def _collect_module_globals(self) -> Set[str]:
        names: Set[str] = set()
        for node in self.tree.body:
            targets: Sequence[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = (node.target,)
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        return names

    # -- scope helpers -------------------------------------------------
    def _acc(self) -> _FunctionAccumulator:
        return self._fn_stack[-1] if self._fn_stack else self._module_acc

    def _in_nested_function(self) -> bool:
        return len(self._fn_stack) > 0

    # -- the walk ------------------------------------------------------
    def _walk_body(self, body: Sequence[ast.stmt], lazy: bool) -> None:
        for stmt in body:
            self._walk_stmt(stmt, lazy)

    def _walk_stmt(self, node: ast.stmt, lazy: bool) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._handle_import(node, lazy)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._handle_function(node, lazy)
        elif isinstance(node, ast.ClassDef):
            self._handle_class(node, lazy)
        elif isinstance(node, ast.Global):
            self._acc().globals_declared.update(node.names)
            self._acc().locals.difference_update(node.names)
        elif isinstance(node, ast.If) and self._is_type_checking(node.test):
            self._walk_body(node.body, lazy=True)
            self._walk_body(node.orelse, lazy)
        else:
            self._handle_statement(node, lazy)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._walk_stmt(child, lazy)
                elif isinstance(child, ast.expr):
                    self._walk_expr(child)
                elif isinstance(child, (ast.excepthandler, ast.withitem,
                                        ast.match_case)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.stmt):
                            self._walk_stmt(sub, lazy)
                        elif isinstance(sub, ast.expr):
                            self._walk_expr(sub)

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    # -- imports -------------------------------------------------------
    def _handle_import(self, node: ast.stmt, lazy: bool) -> None:
        lazy = lazy or self._in_nested_function()
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.imports.append(ImportFact(
                    lineno=node.lineno, col=node.col_offset,
                    target=alias.name, lazy=lazy,
                ))
                local = alias.asname or alias.name.split(".")[0]
                self.aliases.setdefault(
                    local, alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_from_base(node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    self.imports.append(ImportFact(
                        lineno=node.lineno, col=node.col_offset,
                        target=base, lazy=lazy,
                    ))
                    continue
                self.imports.append(ImportFact(
                    lineno=node.lineno, col=node.col_offset,
                    target=f"{base}.{alias.name}", lazy=lazy,
                ))
                self.aliases.setdefault(
                    alias.asname or alias.name, f"{base}.{alias.name}"
                )

    def _resolve_from_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        if self.module is None:
            return None
        parts = self.module.split(".")
        # a package __init__ is its own package; a plain module's package
        # is its parent — level 1 refers to that package either way
        if not self._is_init():
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            parts = parts[:-drop] if drop < len(parts) else []
        if node.module:
            parts = [*parts, node.module]
        return ".".join(parts) if parts else None

    def _is_init(self) -> bool:
        return self.path.endswith("__init__.py")

    # -- functions and classes -----------------------------------------
    def _handle_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef", lazy: bool
    ) -> None:
        nested = self._in_nested_function()
        if nested:
            # fold the nested body into the enclosing function's summary
            self._acc().locals.add(node.name)
            self._walk_body(node.body, lazy=True)
            return
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        is_method = bool(self._class_stack) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list
        )
        if is_method and positional:
            positional = positional[1:]
        pos_defaults = len(args.defaults)
        params: List[ParamFact] = []
        for i, a in enumerate(positional):
            # defaults align to the tail of the *full* positional list
            full_index = i + (1 if is_method and (args.posonlyargs or args.args) else 0)
            total = len(args.posonlyargs) + len(args.args)
            has_default = full_index >= total - pos_defaults
            params.append(ParamFact(a.arg, seedish(a.arg), has_default))
        n_positional = len(params)
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            params.append(ParamFact(a.arg, seedish(a.arg), d is not None))
        qualname = (
            f"{'.'.join(self._class_stack)}.{node.name}"
            if self._class_stack else node.name
        )
        acc = _FunctionAccumulator(
            qualname=qualname,
            lineno=node.lineno,
            params=tuple(params),
            n_positional=n_positional,
            is_method=is_method,
            seed_names={p.name for p in params if p.seedish},
        )
        acc.locals = _local_bindings(node) | {
            a.arg for a in positional + list(args.kwonlyargs)
        }
        if args.vararg:
            acc.locals.add(args.vararg.arg)
        if args.kwarg:
            acc.locals.add(args.kwarg.arg)
        self._fn_stack.append(acc)
        self._walk_body(node.body, lazy=True)
        self._fn_stack.pop()
        self.functions.append(acc.finish())

    def _handle_class(self, node: ast.ClassDef, lazy: bool) -> None:
        if self._in_nested_function():
            self._walk_body(node.body, lazy=True)
            return
        methods = tuple(
            stmt.name for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        bases = tuple(b for b in (dotted_name(base) for base in node.bases) if b)
        self.classes.append(ClassFacts(node.name, bases, methods))
        self._class_stack.append(node.name)
        self._walk_body(node.body, lazy)
        self._class_stack.pop()

    # -- statements ----------------------------------------------------
    def _handle_statement(self, node: ast.stmt, lazy: bool) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_store(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if getattr(node, "value", None) is not None or isinstance(
                node, ast.AugAssign
            ):
                self._record_store(node.target)

    # -- stores (global writes / CSR mutations) ------------------------
    def _record_store(self, target: ast.expr) -> None:
        acc = self._acc()
        in_module_scope = acc is self._module_acc
        # CSR array stores: <expr>.weights[i] = v / <expr>.indptr = v
        chain = target
        if isinstance(chain, ast.Subscript):
            chain = chain.value
        if isinstance(chain, ast.Attribute) and chain.attr in _CSR_ARRAYS:
            # a constructor initializing its own attributes
            # (self.indptr = ... inside __init__) is construction, not
            # mutation of an existing shared CSR view
            constructor_self = (
                isinstance(chain.value, ast.Name)
                and chain.value.id == "self"
                and acc.qualname.endswith("__init__")
            )
            if not constructor_self:
                kind = (
                    "subscript" if isinstance(target, ast.Subscript)
                    else "attribute"
                )
                acc.csr_writes.append(WriteFact(
                    target.lineno, target.col_offset,
                    f"{dotted_name(chain) or chain.attr}", kind,
                ))
        if in_module_scope:
            return  # module-level assignments *define* globals
        # module-global stores: X = / X[...] = / X.attr =
        if isinstance(target, ast.Name):
            name = target.id
            if name in acc.globals_declared:
                acc.global_writes.append(WriteFact(
                    target.lineno, target.col_offset, name, "assign",
                ))
            return
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name):
            name = base.id
            if (
                name in self.module_globals or name in acc.globals_declared
            ) and name not in acc.locals:
                detail = (
                    "subscript" if isinstance(target, ast.Subscript) else "attribute"
                )
                acc.global_writes.append(WriteFact(
                    target.lineno, target.col_offset, name, detail,
                ))

    # -- expressions ---------------------------------------------------
    def _walk_expr(self, node: ast.expr) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._handle_call(sub)
            elif isinstance(sub, ast.Lambda):
                pass  # lambdas fold into the enclosing summary via walk

    def _references_seed(self, expr: ast.expr) -> bool:
        seed_names = self._acc().seed_names
        if not seed_names:
            return False
        return any(
            isinstance(sub, ast.Name) and sub.id in seed_names
            for sub in ast.walk(expr)
        )

    def _handle_call(self, node: ast.Call) -> None:
        acc = self._acc()
        callee = dotted_name(node.func)
        # mutator method on a module global: STATE.update(...)
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _MUTATOR_METHODS
        ):
            base = node.func.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                if isinstance(base, ast.Attribute) and base.attr in _CSR_ARRAYS:
                    acc.csr_writes.append(WriteFact(
                        node.lineno, node.col_offset,
                        dotted_name(base) or base.attr,
                        f"mutator:{node.func.attr}",
                    ))
                base = base.value
            if (
                isinstance(base, ast.Name)
                and acc is not self._module_acc
                and (
                    base.id in self.module_globals
                    or base.id in acc.globals_declared
                )
                and base.id not in acc.locals
            ):
                acc.global_writes.append(WriteFact(
                    node.lineno, node.col_offset, base.id,
                    f"mutator:{node.func.attr}",
                ))
        # Process(target=...): everything reachable from the target runs
        # in a child process
        if leaf_name(node.func) in _PROCESS_CONSTRUCTORS:
            for kw in node.keywords:
                if kw.arg == "target":
                    target = dotted_name(_unwrap_partial(kw.value))
                    if target:
                        self.worker_entries.append(target)
        if not callee:
            return
        seeded_pos = tuple(
            i for i, arg in enumerate(node.args)
            if not isinstance(arg, ast.Starred) and self._references_seed(arg)
        )
        keywords = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
        seeded_kw = tuple(
            kw.arg for kw in node.keywords
            if kw.arg is not None and self._references_seed(kw.value)
        )
        has_star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        acc.calls.append(CallFact(
            lineno=node.lineno, col=node.col_offset, callee=callee,
            n_pos=sum(1 for a in node.args if not isinstance(a, ast.Starred)),
            seeded_pos=seeded_pos, keywords=keywords, seeded_kw=seeded_kw,
            has_star=has_star,
        ))


def extract_facts(path: str, module: Optional[str], tree: ast.Module) -> FileFacts:
    """Extract :class:`FileFacts` from one parsed file."""
    return _Extractor(path, module, tree).run()
