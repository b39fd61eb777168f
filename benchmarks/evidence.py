"""Shared plumbing of the ``bench_*.py --run/--check`` evidence scripts.

A speedup script measures two sides with the same code: the baseline
side runs the script's ``measure()`` in a child process whose
``PYTHONPATH`` points at a ``git archive`` export of the baseline
commit's ``src``, the change side does the same against this checkout's
``src``.  The helpers here are that plumbing: the child launch, the
export, the machine description, and the temporary function wrapping
with the per-phase timers built on it.  A script whose baseline side
runs something other than ``measure()``, such as a daemon launch, takes
the export itself from :func:`exported_src`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: what the child process runs: ``module.measure()`` against the
#: ``repro`` its ``PYTHONPATH`` names
CHILD = "import sys; sys.path.append({here!r}); import {module}; " \
        "sys.exit({module}.measure())"

Wrapper = Callable[[Callable[..., Any], str], Callable[..., Any]]


@contextlib.contextmanager
def wrapped(targets: List[Tuple[str, str, str]], make: Wrapper) -> Iterator[None]:
    """Replace each present ``(module, attribute path, key)`` target by
    ``make(original, key)``; restore them after."""
    saved = []
    try:
        for module, path, key in targets:
            owner: Any = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if attr in owner.__dict__:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original, key))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def timed_phases(
    targets: List[Tuple[str, str, str]], spent: Dict[str, float]
) -> Iterator[None]:
    """:func:`wrapped` with timers: each call of a target adds its wall
    seconds to ``spent[key]``."""

    def timer(fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0
        return timed

    with wrapped(targets, timer):
        yield


def measure_side(module: str, src: Path) -> Dict[str, Any]:
    """Run ``module.measure()`` in a child process importing ``repro``
    from ``src``; return the ``cases`` of the JSON line it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(here=str(HERE), module=module)],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0"),
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["source"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"measured {out['source']}, not the sources in {src}")
    return out["cases"]


@contextlib.contextmanager
def exported_src(commit: str) -> Iterator[Path]:
    """The ``src`` of a ``git archive`` export of ``commit``, in a
    temporary directory removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tmp:
        tar = subprocess.run(
            ["git", "-C", str(ROOT), "archive", commit, "src"],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        yield Path(tmp) / "src"


def measure_baseline(module: str, commit: str) -> Dict[str, Any]:
    """:func:`measure_side` on a ``git archive`` export of ``commit``."""
    with exported_src(commit) as src:
        return measure_side(module, src)


def machine() -> Dict[str, Any]:
    """CPU model, core count and Python version of this host."""
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version()}
