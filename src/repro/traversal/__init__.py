"""Euler tour / DFS traversal of the MST (§3 of the paper)."""

from repro.traversal.euler_tour import EulerTour, compute_euler_tour

__all__ = ["EulerTour", "compute_euler_tour"]
