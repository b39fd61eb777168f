"""Symbol resolution and call-graph construction over extracted facts.

:class:`ProgramIndex` glues the per-file :class:`~repro.lint.program.facts.FileFacts`
into a whole-program view:

* ``module -> facts`` for every file that lives under a src root,
* ``"module:qualname" -> function summary`` for every module-level
  function, method, and the per-module ``<module>`` pseudo-function,
* dotted-name resolution through import aliases (following re-exports a
  few hops, so ``from repro.obs import merge`` resolves to the def in
  ``repro.obs.metrics``), class-scoped ``self.meth`` lookup with base
  classes, and ``ClassName(...)`` to ``ClassName.__init__``.

Resolution is *conservative*: anything it cannot pin to a project
definition (attribute calls on locals, externals, builtins) resolves to
``None`` and contributes no call edge.  The dataflow passes are
designed so that a missing edge can only suppress a finding, never
invent one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.program.facts import (
    CallFact,
    ClassFacts,
    FileFacts,
    FunctionFacts,
    PoolEntryFact,
)

_MAX_ALIAS_HOPS = 4


def fqn(module: str, qualname: str) -> str:
    """The program-wide key for a function: ``module:qualname``."""
    return f"{module}:{qualname}"


class ProgramIndex:
    """Whole-program symbol table and call graph."""

    def __init__(self, facts: Iterable[FileFacts]) -> None:
        #: module name -> facts, for files under a src root
        self.modules: Dict[str, FileFacts] = {}
        #: every scanned file (pool entries in tests still count)
        self.files: Tuple[FileFacts, ...] = tuple(facts)
        #: "module:qualname" -> (owning file, summary)
        self.functions: Dict[str, Tuple[FileFacts, FunctionFacts]] = {}
        #: "module:ClassName" -> class layout
        self.classes: Dict[str, ClassFacts] = {}
        for ff in self.files:
            if ff.module is None:
                continue
            self.modules[ff.module] = ff
            for fn in ff.functions:
                self.functions[fqn(ff.module, fn.qualname)] = (ff, fn)
            for cls in ff.classes:
                self.classes[f"{ff.module}:{cls.name}"] = cls
        self._edges: Optional[Dict[str, List[Tuple[str, CallFact]]]] = None

    # -- symbol resolution ---------------------------------------------
    def resolve_dotted(self, ff: FileFacts, dotted: str) -> Optional[str]:
        """Resolve a dotted expression written in ``ff`` to a function fqn."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        aliases = ff.alias_map()
        if head in aliases:
            absolute = aliases[head] + (f".{rest}" if rest else "")
        elif ff.module is not None and self._defines(ff, head):
            absolute = f"{ff.module}.{dotted}"
        else:
            return None
        return self._resolve_absolute(absolute)

    def resolve_call(
        self, ff: FileFacts, caller: FunctionFacts, call: CallFact
    ) -> Optional[str]:
        """Resolve one call site to a project function fqn, or None."""
        if ff.module is None:
            return None
        callee = call.callee
        if callee.startswith("self.") and "." in caller.qualname:
            cls_name = caller.qualname.split(".", 1)[0]
            meth = callee.split(".", 1)[1]
            if "." in meth:
                return None  # self.attr.meth(...) — not resolvable
            return self._resolve_method(ff.module, cls_name, meth)
        return self.resolve_dotted(ff, callee)

    def resolve_class(self, ff: FileFacts, dotted: str) -> Optional[str]:
        """Resolve a dotted expression to a ``module:ClassName`` key."""
        if ff.module is None:
            return None
        head, _, rest = dotted.partition(".")
        aliases = ff.alias_map()
        if head in aliases:
            absolute = aliases[head] + (f".{rest}" if rest else "")
        elif any(c.name == head for c in ff.classes):
            absolute = f"{ff.module}.{dotted}"
        else:
            return None
        return self._resolve_absolute_class(absolute)

    def _defines(self, ff: FileFacts, name: str) -> bool:
        return any(f.qualname == name for f in ff.functions) or any(
            c.name == name for c in ff.classes
        )

    def _resolve_absolute(self, dotted: str, hops: int = 0) -> Optional[str]:
        if hops > _MAX_ALIAS_HOPS:
            return None
        module, symbol = self._split_module(dotted)
        if module is None:
            return None
        ff = self.modules[module]
        if len(symbol) == 1:
            name = symbol[0]
            key = fqn(module, name)
            if key in self.functions:
                return key
            if f"{module}:{name}" in self.classes:
                return self._class_init(module, name)
            alias = ff.alias_map().get(name)
            if alias is not None:
                return self._resolve_absolute(alias, hops + 1)
        elif len(symbol) == 2:
            cls_or_mod, name = symbol
            key = fqn(module, f"{cls_or_mod}.{name}")
            if key in self.functions:  # ClassName.meth referenced directly
                return key
            alias = ff.alias_map().get(cls_or_mod)
            if alias is not None:
                return self._resolve_absolute(f"{alias}.{name}", hops + 1)
        return None

    def _resolve_absolute_class(
        self, dotted: str, hops: int = 0
    ) -> Optional[str]:
        if hops > _MAX_ALIAS_HOPS:
            return None
        module, symbol = self._split_module(dotted)
        if module is None or len(symbol) != 1:
            return None
        name = symbol[0]
        if f"{module}:{name}" in self.classes:
            return f"{module}:{name}"
        alias = self.modules[module].alias_map().get(name)
        if alias is not None:
            return self._resolve_absolute_class(alias, hops + 1)
        return None

    def _split_module(
        self, dotted: str
    ) -> Tuple[Optional[str], Tuple[str, ...]]:
        """Longest project-module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for k in range(len(parts), 0, -1):
            module = ".".join(parts[:k])
            if module in self.modules:
                return module, tuple(parts[k:])
        return None, ()

    def _class_init(self, module: str, cls_name: str) -> Optional[str]:
        """``Cls(...)`` resolves to ``Cls.__init__`` (walking bases)."""
        return self._resolve_method(module, cls_name, "__init__")

    def _resolve_method(
        self, module: str, cls_name: str, meth: str, depth: int = 0
    ) -> Optional[str]:
        if depth > 4:
            return None
        cls = self.classes.get(f"{module}:{cls_name}")
        if cls is None:
            return None
        if meth in cls.methods:
            return fqn(module, f"{cls_name}.{meth}")
        for base in cls.bases:
            base_key = self.resolve_class(self.modules[module], base)
            if base_key is None:
                continue
            base_module, base_name = base_key.split(":", 1)
            found = self._resolve_method(base_module, base_name, meth, depth + 1)
            if found is not None:
                return found
        return None

    # -- graph views ---------------------------------------------------
    def edges(self) -> Dict[str, List[Tuple[str, CallFact]]]:
        """Adjacency: caller fqn -> [(callee fqn, call site)]."""
        if self._edges is None:
            adjacency: Dict[str, List[Tuple[str, CallFact]]] = {}
            for key, (ff, fn) in self.functions.items():
                out: List[Tuple[str, CallFact]] = []
                for call in fn.calls:
                    callee = self.resolve_call(ff, fn, call)
                    if callee is not None:
                        out.append((callee, call))
                adjacency[key] = out
            self._edges = adjacency
        return self._edges

    def pool_entries(self) -> List[Tuple[FileFacts, PoolEntryFact, str]]:
        """Every pool entry resolved to a project function fqn."""
        resolved: List[Tuple[FileFacts, PoolEntryFact, str]] = []
        for ff in self.files:
            for entry in ff.pool_entries:
                target = self.resolve_dotted(ff, entry.target)
                if target is not None:
                    resolved.append((ff, entry, target))
        return resolved

    def module_import_edges(self) -> Dict[str, List[Tuple[str, int, int, bool]]]:
        """Module-granularity import graph.

        Returns ``module -> [(imported module, line, col, lazy)]`` with
        import targets snapped to the longest project-module prefix
        (``from repro.graphs.csr import CSRGraph`` -> ``repro.graphs.csr``).
        External imports are excluded — they are REP903 business.
        """
        graph: Dict[str, List[Tuple[str, int, int, bool]]] = {}
        for module, ff in self.modules.items():
            out: List[Tuple[str, int, int, bool]] = []
            for imp in ff.imports:
                target_module, _ = self._split_module(imp.target)
                if target_module is not None and target_module != module:
                    out.append((target_module, imp.lineno, imp.col, imp.lazy))
            graph[module] = out
        return graph
