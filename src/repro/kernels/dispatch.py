"""Kernel selection: which backend executes an SSSP call.

Two backends exist: ``"python"`` (:mod:`repro.kernels.pykern`, always
available, stdlib-only) and ``"numpy"`` (:mod:`repro.kernels.npkern`,
present only when the ``fast`` extra is installed).  ``"auto"``
resolves to numpy when importable and falls back to python otherwise —
it never fails.  Asking for ``"numpy"`` explicitly on a machine
without numpy raises, so CI's no-numpy leg exercises the fallback
rather than silently downgrading an explicit request.

numpy is imported *here and only here* (``repro lint --program``'s
REP903 keeps any ``import numpy`` outside :mod:`repro.kernels` out of
the library), lazily and guarded, so merely importing
:mod:`repro.kernels` costs nothing on a stdlib-only machine.
"""

from __future__ import annotations

from types import ModuleType
from typing import Optional, Tuple

#: executable kernel names; ``"auto"`` additionally resolves to one of these
KERNELS: Tuple[str, ...] = ("python", "numpy")

_NUMPY: Optional[ModuleType] = None
_NUMPY_CHECKED = False


def numpy_or_none() -> Optional[ModuleType]:
    """The numpy module, or ``None`` when it is not installed (cached)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        try:
            import numpy  # noqa: PLC0415  (lazy: optional dependency)
        except ImportError:
            _NUMPY = None
        else:
            _NUMPY = numpy
    return _NUMPY


def has_numpy() -> bool:
    """True when the numpy backend can be used."""
    return numpy_or_none() is not None


def resolve_kernel(kernel: str) -> str:
    """Resolve a requested kernel name to an executable backend.

    ``"auto"`` prefers numpy and silently falls back to python;
    ``"numpy"`` raises :class:`RuntimeError` when numpy is missing;
    anything outside :data:`KERNELS` + ``"auto"`` raises
    :class:`ValueError`.
    """
    if kernel == "auto":
        return "numpy" if has_numpy() else "python"
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS + ('auto',)}"
        )
    if kernel == "numpy" and not has_numpy():
        raise RuntimeError(
            "kernel 'numpy' requested but numpy is not installed; "
            "pip install -e .[fast] or use kernel='python'/'auto'"
        )
    return kernel
