"""Shared helpers for the test suite."""

import os

import numpy as np
import scipy.linalg

from expbench.counting import OpCounter, record, use_counter
from expbench.linalg import Linearization, gershgorin_bounds


class DenseLinearProblem:
    """Minimal problem wrapper around a fixed dense matrix: u' = M u.

    ``bounds_computed`` counts the evaluations of the linearization's
    bounds thunk.
    """

    operator_costs = {"matvec": 2}

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


def fresh_counter(n=10) -> OpCounter:
    """A counter on the advection-diffusion costs with state length n."""
    return OpCounter(n, {"matvec": 2})


def dense_gershgorin(M):
    """Gershgorin box of a square dense matrix: centres on the diagonal,
    radii the off-diagonal absolute row sums."""
    M = np.asarray(M, dtype=float)
    d = np.diag(M).copy()
    return gershgorin_bounds(d, np.abs(M).sum(axis=1) - np.abs(d))


def dot(u, v) -> float:
    """Counted inner product, in the float order of Arnoldi's inline ones."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    record("dot")
    return float(np.dot(u, v))


def dense_phi(M, p: int) -> np.ndarray:
    """phi_p(M) for p in {0, 1, 2, 3} via the augmented matrix exponential:
    the dense oracle for the iterative evaluators.

    exp of the (p+1)-block companion matrix with M in the top-left corner
    and identity blocks on the superdiagonal carries phi_k(M) in its
    (0, k) block.
    """
    if p not in (0, 1, 2, 3):
        raise ValueError(f"unsupported phi index {p}")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("dense_phi requires a square matrix")
    if M.shape[0] > 512:
        raise ValueError(f"matrix dimension {M.shape[0]} exceeds cap 512")
    if p == 0:
        return scipy.linalg.expm(M)
    n = M.shape[0]
    aug = np.zeros(((p + 1) * n, (p + 1) * n))
    aug[:n, :n] = M
    eye = np.eye(n)
    for k in range(p):
        aug[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = eye
    E = scipy.linalg.expm(aug)
    return E[:n, p * n : (p + 1) * n]


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
    "dense_phi",
    "dot",
    "fresh_counter",
    "use_cpus",
    "use_counter",
]
