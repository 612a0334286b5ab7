"""Counted vector primitives, finite-difference stencils and dense matrix
functions.

State vectors are plain 1D numpy arrays.  The functions ``dot``, ``norm2``,
``scale``, ``lincomb`` and ``copy_vector`` record their memory cost on the
active :class:`~expbench.counting.OpCounter`; all algorithms in this package
route state-vector-sized arithmetic through them, except the inner loops of
Arnoldi and of the Leja Newton series in ``matfunc``, which run the same
arithmetic inline and record the same events in bulk.

The dense matrix exponential evaluates the small Hessenberg and divided-
difference matrices inside the evaluators; the dense phi functions act as
an independent oracle for the iterative evaluators in the tests.

``dense_expm`` is the only caller of ``scipy.linalg.expm`` in the package,
and it always runs on one BLAS thread.  At the sizes used here (up to a
few hundred rows) a second thread only adds synchronization, and the
thread count changes the rounding of the result.  So the results do not
depend on ``OPENBLAS_NUM_THREADS``.  ``dense_expm`` sets the thread count
of both OpenBLAS builds that take part (numpy's, which runs the squarings,
and scipy's, which runs the Pade step) to 1 and restores the previous
counts afterwards.  Their ``openblas_set_num_threads_local`` setters are
process-wide despite the name, so a lock keeps concurrent calls from
restoring each other's setting.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .counting import record

DEFAULT_DENSE_CAP = 512


# ---------------------------------------------------------------------------
# counted vector primitives


def dot(u, v) -> float:
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    record("dot")
    return float(np.dot(u, v))


def norm2(u) -> float:
    """Euclidean norm, counted as one inner product."""
    record("dot")
    return float(np.linalg.norm(np.asarray(u)))


def scale(alpha: float, u) -> np.ndarray:
    record("scale")
    return alpha * np.asarray(u)


def lincomb(coeffs, vecs) -> np.ndarray:
    """sum_i coeffs[i] * vecs[i], counted as one Lk with k = len(vecs)."""
    if len(vecs) == 0:
        raise ValueError("lincomb requires at least one vector")
    if len(coeffs) != len(vecs):
        raise ValueError("coefficient / vector count mismatch")
    n = np.asarray(vecs[0]).shape
    for v in vecs[1:]:
        if np.asarray(v).shape != n:
            raise ValueError("length mismatch in lincomb")
    record("lincomb", k=len(vecs))
    out = coeffs[0] * np.asarray(vecs[0], dtype=float)
    for c, v in zip(coeffs[1:], vecs[1:]):
        out += c * np.asarray(v)
    return out


def copy_vector(u) -> np.ndarray:
    record("fetch")
    record("store")
    return np.array(u, dtype=float, copy=True)


# ---------------------------------------------------------------------------
# finite-difference stencil operator


@dataclass(frozen=True)
class SpectralBounds:
    """Bounding box of the Gershgorin discs of an operator."""

    real_min: float
    real_max: float
    imag_halfwidth: float

    def __post_init__(self):
        if self.real_min > self.real_max:
            raise ValueError("real_min > real_max")
        if self.imag_halfwidth < 0:
            raise ValueError("negative imag_halfwidth")


@dataclass(frozen=True)
class StencilOperator1D:
    """Tridiagonal operator L = -(A_h + B_h) on n interior Dirichlet points.

    sub/diag/sup hold the per-row stencil coefficients; sub[0] and sup[-1]
    are never referenced (boundary values vanish).
    """

    n: int
    h: float
    kappa: np.ndarray
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def to_dense(self) -> np.ndarray:
        M = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        M[idx + 1, idx] = self.sub[1:]
        M[idx, idx + 1] = self.sup[:-1]
        return M

    def gershgorin_rows(self):
        r = np.zeros(self.n)
        r[:-1] += np.abs(self.sup[:-1])
        r[1:] += np.abs(self.sub[1:])
        return self.diag.copy(), r


def build_advdiff_operator(n: int, kappa_fn) -> StencilOperator1D:
    """Discretize -(A_h + B_h) for u' = kappa u_xx - u_x, Dirichlet, n points.

    Interior row i of the operator: sub-diagonal kappa_i/h^2 + 1/(2h),
    diagonal -2 kappa_i/h^2, super-diagonal kappa_i/h^2 - 1/(2h).
    """
    if n < 1:
        raise ValueError("need at least one interior grid point")
    h = 1.0 / (n + 1)
    x = (np.arange(n) + 1) * h
    kappa = np.asarray([float(kappa_fn(xi)) for xi in x])
    if np.any(kappa <= 0.0):
        raise ValueError("diffusion coefficient must be positive on the grid")
    c = kappa / h**2
    a = 1.0 / (2.0 * h)
    return StencilOperator1D(
        n=n,
        h=h,
        kappa=kappa,
        sub=c + a,
        diag=-2.0 * c,
        sup=c - a,
    )


def apply_operator(L: StencilOperator1D, u) -> np.ndarray:
    """Counted stencil matrix-vector product L u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (L.n,):
        raise ValueError(f"expected vector of length {L.n}, got {u.shape}")
    record("matvec")
    y = L.diag * u
    y[1:] += L.sub[1:] * u[:-1]
    y[:-1] += L.sup[:-1] * u[1:]
    return y


def gershgorin_bounds(op) -> SpectralBounds:
    """Bounding box of all Gershgorin discs of ``op``.

    Accepts anything with a ``gershgorin_rows() -> (diag, radius)`` method,
    or a square dense matrix.
    """
    if hasattr(op, "gershgorin_rows"):
        d, r = op.gershgorin_rows()
    else:
        M = np.asarray(op, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a square matrix or a stencil operator")
        d = np.diag(M).copy()
        r = np.abs(M).sum(axis=1) - np.abs(d)
    return SpectralBounds(
        real_min=float(np.min(d - r)),
        real_max=float(np.max(d + r)),
        imag_halfwidth=float(np.max(r)),
    )


# ---------------------------------------------------------------------------
# dense matrix functions


def _blas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with numpy
    and of the one bundled with scipy; each sets the thread count and
    returns the previous one."""
    setters = []
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            setter = getattr(ctypes.CDLL(lib), "openblas_set_num_threads_local", None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = ctypes.c_int
                setters.append(setter)
    return tuple(setters)


_BLAS_THREAD_SETTERS = _blas_thread_setters()
_BLAS_THREAD_LOCK = threading.Lock()


def dense_expm(M, max_dim: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring (Pade approximant), on
    one BLAS thread."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("dense_expm requires a square matrix")
    if M.shape[0] > max_dim:
        raise ValueError(f"matrix dimension {M.shape[0]} exceeds cap {max_dim}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    with _BLAS_THREAD_LOCK:
        saved = [setter(1) for setter in _BLAS_THREAD_SETTERS]
        try:
            return scipy.linalg.expm(M)
        finally:
            for setter, n in zip(_BLAS_THREAD_SETTERS, saved):
                setter(n)


def dense_phi(M, p: int, max_dim: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """phi_p(M) for p in {0, 1, 2, 3} via the augmented matrix exponential.

    exp of the (p+1)-block companion matrix with M in the top-left corner
    and identity blocks on the superdiagonal carries phi_k(M) in its
    (0, k) block.
    """
    if p not in (0, 1, 2, 3):
        raise ValueError(f"unsupported phi index {p}")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("dense_phi requires a square matrix")
    if M.shape[0] > max_dim:
        raise ValueError(f"matrix dimension {M.shape[0]} exceeds cap {max_dim}")
    if p == 0:
        return dense_expm(M, max_dim=max_dim)
    n = M.shape[0]
    aug = np.zeros(((p + 1) * n, (p + 1) * n))
    aug[:n, :n] = M
    eye = np.eye(n)
    for k in range(p):
        aug[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = eye
    E = dense_expm(aug, max_dim=(p + 1) * max_dim)
    return E[:n, p * n : (p + 1) * n]
