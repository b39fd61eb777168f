"""Rule modules; importing this package populates the registry."""

from repro.lint.rules import (
    congest,
    csr,
    iteration,
    pool,
    prints,
    rng,
    typing_gate,
)

__all__ = [
    "congest",
    "csr",
    "iteration",
    "pool",
    "prints",
    "rng",
    "typing_gate",
]
