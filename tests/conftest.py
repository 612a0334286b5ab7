"""Shared helpers for the test suite."""

import numpy as np

from expbench.counting import ADVDIFF_1D, CostTable, OpCounter, use_counter
from expbench.linalg import SpectralBounds, gershgorin_bounds


class DenseLinearProblem:
    """Minimal problem wrapper around a fixed dense matrix: u' = M u."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        self.n = self.M.shape[0]

    @property
    def dimension(self):
        return self.n

    def rhs(self, u):
        return self.M @ np.asarray(u, dtype=float)

    def linearize(self, u=None):
        return lambda w: self.M @ np.asarray(w, dtype=float)

    def jac_action(self, u, w):
        return self.linearize(u)(w)

    def spectral_bounds(self, u=None) -> SpectralBounds:
        return gershgorin_bounds(self.M)

    def cost_table(self) -> CostTable:
        return CostTable(ADVDIFF_1D, self.n)


def fresh_counter(table_id=ADVDIFF_1D, n=10, zeta=1.0) -> OpCounter:
    return OpCounter(CostTable(table_id, n), zeta=zeta)


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
    "fresh_counter",
    "use_counter",
]
