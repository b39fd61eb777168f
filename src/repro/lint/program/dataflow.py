"""Dataflow passes over the call graph: seed-taint and pool-safety.

Seed-taint (``REP1001``/``REP1002``)
------------------------------------
The interprocedural closure of the per-file REP1xx family.  A function
*needs a seed* when it constructs or drives randomness that its own
``rng``/``seed`` parameters are supposed to control:

* **base case** — it calls ``random.Random(...)`` /
  ``numpy.random.default_rng(...)`` / ``ensure_rng(...)`` with one of
  its seedish parameters in the arguments, or invokes a method on a
  seedish parameter (``rng.shuffle(...)``);
* **inductive case** — it threads one of its seedish parameters into a
  seed slot of a callee that itself needs a seed.

A call site *seals* the chain when it invokes a needs-seed callee and
fills **none** of its seedish parameters — every one of them silently
falls back to its default.  That is ``REP1002`` when the caller has a
seedish parameter it failed to thread, and ``REP1001`` when the caller
has none (the chain cannot be re-opened from above without an API
change).  Passing *any* explicit value (even a literal) into a seed
slot is a deliberate choice and is never flagged.

Pool-safety (``REP1011``–``REP1013``)
-------------------------------------
Functions transitively reachable from a worker process's entry point
(the ``target=`` of a ``Process(...)`` call, ``functools.partial``
unwrapped; the serve daemon starts each worker of its pool this way)
run in a child process where writes never come home and races corrupt
shared views:

* ``REP1011`` — writing module-level mutable state.
* ``REP1012`` — mutating frozen CSR arrays (``indptr``/``indices``/
  ``weights``/``verts``) that may be mmap-backed and shared.
* ``REP1013`` — touching :mod:`repro.obs`'s process-global metrics
  registry instead of the snapshot/merge protocol (local
  ``MetricsRegistry``, picklable snapshot shipped back, parent merges).

Every finding names the witness chain from the entry point so the fix
site is obvious.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic
from repro.lint.program.callgraph import ProgramIndex
from repro.lint.program.facts import (
    MODULE_SCOPE,
    CallFact,
    FileFacts,
    FunctionFacts,
)

#: external RNG constructors whose first argument / ``seed=`` keyword
#: is the seed.
_RNG_CONSTRUCTORS = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
}

#: the project's canonical seeded-RNG helper.
_ENSURE_RNG = "repro.determinism:ensure_rng"

#: module-level convenience functions that touch the process-global
#: obs registry.  ``repro.obs``'s re-exports resolve to these through
#: alias following, so one set covers both spellings.
_OBS_GLOBAL_FUNCTIONS = {
    f"repro.obs.metrics:{name}"
    for name in (
        "counter", "gauge", "histogram", "merge", "registry",
        "reset", "scalars", "snapshot",
    )
}


# -- seed-taint ---------------------------------------------------------
def seed_taint_pass(index: ProgramIndex) -> List[Diagnostic]:
    """Run the REP1001/REP1002 interprocedural seed-chain check."""
    needs_seed = _needs_seed_fixpoint(index)
    out: List[Diagnostic] = []
    for key in sorted(index.functions):
        ff, fn = index.functions[key]
        if not _in_library(ff):
            continue
        for call in fn.calls:
            callee_key = index.resolve_call(ff, fn, call)
            if callee_key is None or callee_key not in needs_seed:
                continue
            _, callee = index.functions[callee_key]
            finding = _check_seal(ff, fn, call, callee_key, callee)
            if finding is not None:
                out.append(finding)
    return out


def _in_library(ff: FileFacts) -> bool:
    return ff.module is not None and (
        ff.module == "repro" or ff.module.startswith("repro.")
    )


def _needs_seed_fixpoint(index: ProgramIndex) -> Set[str]:
    needs: Set[str] = set()
    for key, (ff, fn) in index.functions.items():
        if _seeds_directly(index, ff, fn):
            needs.add(key)
    if _ENSURE_RNG in index.functions:
        needs.add(_ENSURE_RNG)
    changed = True
    while changed:
        changed = False
        for key, (ff, fn) in index.functions.items():
            if key in needs or not fn.seed_params():
                continue
            for call in fn.calls:
                callee_key = index.resolve_call(ff, fn, call)
                if callee_key is None or callee_key not in needs:
                    continue
                _, callee = index.functions[callee_key]
                if _fills_seed_slot_seeded(call, callee):
                    needs.add(key)
                    changed = True
                    break
    return needs


def _seeds_directly(
    index: ProgramIndex, ff: FileFacts, fn: FunctionFacts
) -> bool:
    seed_names = {p.name for p in fn.seed_params()}
    if not seed_names:
        return False
    aliases = ff.alias_map()
    for call in fn.calls:
        head, _, rest = call.callee.partition(".")
        if head in seed_names and rest:
            return True  # method call on a seedish parameter
        absolute = (
            aliases[head] + (f".{rest}" if rest else "")
            if head in aliases else call.callee
        )
        if absolute in _RNG_CONSTRUCTORS and (
            call.seeded_pos or call.seeded_kw
        ):
            return True
    return False


def _map_filled_params(
    call: CallFact, callee: FunctionFacts
) -> Tuple[Set[str], Set[str]]:
    """(seedish params of callee that are filled, of those the seeded ones)."""
    filled: Set[str] = set()
    seeded: Set[str] = set()
    for i in range(min(call.n_pos, callee.n_positional)):
        param = callee.params[i]
        if param.seedish:
            filled.add(param.name)
            if i in call.seeded_pos:
                seeded.add(param.name)
    by_name = {p.name: p for p in callee.params}
    for kw in call.keywords:
        param = by_name.get(kw)
        if param is not None and param.seedish:
            filled.add(param.name)
            if kw in call.seeded_kw:
                seeded.add(param.name)
    return filled, seeded


def _fills_seed_slot_seeded(call: CallFact, callee: FunctionFacts) -> bool:
    _, seeded = _map_filled_params(call, callee)
    return bool(seeded)


def _check_seal(
    ff: FileFacts,
    fn: FunctionFacts,
    call: CallFact,
    callee_key: str,
    callee: FunctionFacts,
) -> Optional[Diagnostic]:
    seed_params = callee.seed_params()
    if not seed_params:
        return None
    if call.has_star:
        return None  # *args/**kwargs may carry the seed — stay quiet
    filled, _ = _map_filled_params(call, callee)
    if filled:
        return None  # some seed slot got an explicit value
    if any(not p.has_default for p in seed_params):
        return None  # a required seed slot is unfilled: runtime's business
    slots = ", ".join(p.name for p in seed_params)
    callee_name = callee_key.split(":", 1)[1]
    if fn.seed_params():
        own = ", ".join(p.name for p in fn.seed_params())
        return Diagnostic(
            path=ff.path, line=call.lineno, col=call.col, code="REP1002",
            message=(
                f"call to '{callee_name}' leaves its seed parameter(s) "
                f"[{slots}] at their defaults although the caller has "
                f"[{own}]; thread the caller's seed through"
            ),
        )
    where = (
        "module import time" if fn.qualname == MODULE_SCOPE
        else f"'{fn.qualname}'"
    )
    return Diagnostic(
        path=ff.path, line=call.lineno, col=call.col, code="REP1001",
        message=(
            f"call to '{callee_name}' at {where} leaves its seed "
            f"parameter(s) [{slots}] at their defaults and the caller "
            f"has no rng/seed parameter: the seed chain is sealed here; "
            f"accept and thread a seed, or pass one explicitly"
        ),
    )


# -- pool-safety --------------------------------------------------------
def pool_safety_pass(index: ProgramIndex) -> List[Diagnostic]:
    """Run the REP1011–REP1013 worker-reachability race checks."""
    roots = index.worker_roots()
    parents: Dict[str, Optional[str]] = {root: None for root in sorted(roots)}
    order: List[str] = []
    queue = deque(sorted(roots))
    edges = index.edges()
    while queue:
        node = queue.popleft()
        order.append(node)
        for callee_key, _ in edges.get(node, ()):
            if callee_key not in parents:
                parents[callee_key] = node
                queue.append(callee_key)
    out: List[Diagnostic] = []
    for key in order:
        ff, fn = index.functions[key]
        chain = _witness_chain(parents, key)
        for write in fn.global_writes:
            out.append(Diagnostic(
                path=ff.path, line=write.lineno, col=write.col,
                code="REP1011",
                message=(
                    f"'{fn.qualname}' writes module-level state "
                    f"'{write.name}' ({write.detail}) but runs in a "
                    f"pool worker ({chain}); worker writes never "
                    f"reach the parent — return results instead"
                ),
            ))
        for write in fn.csr_writes:
            out.append(Diagnostic(
                path=ff.path, line=write.lineno, col=write.col,
                code="REP1012",
                message=(
                    f"'{fn.qualname}' mutates frozen CSR array "
                    f"'{write.name}' ({write.detail}) while reachable "
                    f"from a pool worker ({chain}); CSR views may be "
                    f"mmap-backed and shared — copy before mutating"
                ),
            ))
        for callee_key, call in edges.get(key, ()):
            if callee_key in _OBS_GLOBAL_FUNCTIONS:
                callee_name = callee_key.split(":", 1)[1]
                out.append(Diagnostic(
                    path=ff.path, line=call.lineno, col=call.col,
                    code="REP1013",
                    message=(
                        f"'{fn.qualname}' touches the process-global obs "
                        f"registry via '{callee_name}' while reachable "
                        f"from a pool worker ({chain}); use a local "
                        f"MetricsRegistry and ship its snapshot back for "
                        f"the parent to merge"
                    ),
                ))
    return out


def _witness_chain(parents: Dict[str, Optional[str]], key: str) -> str:
    chain: List[str] = []
    cursor: Optional[str] = key
    while cursor is not None:
        chain.append(cursor.split(":", 1)[1])
        cursor = parents.get(cursor)
    chain.reverse()
    if len(chain) == 1:
        return f"entry '{chain[0]}'"
    return "entry '" + chain[0] + "' via " + " -> ".join(chain[1:])
