"""Shared helpers for the test suite."""

import ctypes
import glob
import itertools
import math
import os

import numpy as np
import scipy.linalg

from expbench.counting import OpCounter, record, use_counter
from expbench.harness import error_norm
from expbench.integrators import rk4_step
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


def serial_reference(problem, t_end, tau_hint):
    """The Navier-Stokes reference as RK4 step-halving passes: the test
    oracle for ``compute_reference``'s extrapolation solver.

    Pass k integrates from u0 to t_end with uncounted RK4 steps of about
    (tau_hint / 16) / 2^k; the first pass within 1e-10 in relative l2 of
    the pass before is returned.  RK4's error falls about 16-fold per pass,
    so the result is accurate to about 1e-11 or better, down to the
    round-off floor of its step count.
    """
    u0 = problem.initial_state()
    tau = tau_hint / 16.0
    prev = None
    with use_counter(None):
        for _k in itertools.count():
            steps = max(1, math.ceil(t_end / tau))
            dt = t_end / steps
            u = u0.copy()
            for _step in range(steps):
                u = rk4_step(problem, u, dt)
            if prev is not None and error_norm(u, prev) < 1e-10:
                return u
            prev = u
            tau /= 2.0


def openblas_corename() -> str:
    """The kernel family (such as "SkylakeX") that the OpenBLAS bundled
    with numpy picked for this CPU when it loaded, or "unknown".

    The library is found with the glob that ``expbench.linalg`` uses to pin
    its thread count.  The golden digests were recorded under SkylakeX;
    another kernel rounds the dense products differently,
    so a golden test names the kernel it ran under when it fails.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, np.__name__ + ".libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return "unknown"


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
    "openblas_corename",
    "serial_reference",
    "use_cpus",
    "use_counter",
]
