"""Shared helpers for the test suite."""

import os

import numpy as np

from expbench.counting import CostTable, OpCounter, use_counter
from expbench.linalg import Linearization, gershgorin_bounds


class DenseLinearProblem:
    """Minimal problem wrapper around a fixed dense matrix: u' = M u.

    ``bounds_computed`` counts the evaluations of the linearization's
    bounds thunk.
    """

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        self.n = self.M.shape[0]
        self.bounds_computed = 0

    @property
    def dimension(self):
        return self.n

    def rhs(self, u):
        return self.M @ np.asarray(u, dtype=float)

    def linearize(self, u=None) -> Linearization:
        def bounds():
            self.bounds_computed += 1
            return dense_gershgorin(self.M)

        return Linearization(lambda w: self.M @ np.asarray(w, dtype=float), bounds)

    def cost_table(self) -> CostTable:
        return CostTable(self.n, {"matvec": 2})


def fresh_counter(n=10) -> OpCounter:
    """A counter on the advection-diffusion table with state length n."""
    return OpCounter(CostTable(n, {"matvec": 2}))


def dense_gershgorin(M):
    """Gershgorin box of a square dense matrix: centres on the diagonal,
    radii the off-diagonal absolute row sums."""
    M = np.asarray(M, dtype=float)
    d = np.diag(M).copy()
    return gershgorin_bounds(d, np.abs(M).sum(axis=1) - np.abs(d))


def use_cpus(monkeypatch, count):
    """Make run_experiment see ``count`` available CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def dense_from_action(action, dim):
    """Densify a linear operator by applying it to the unit vectors."""
    M = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        M[:, j] = action(e)
    return M


__all__ = [
    "DenseLinearProblem",
    "dense_from_action",
    "dense_gershgorin",
    "fresh_counter",
    "use_cpus",
    "use_counter",
]
