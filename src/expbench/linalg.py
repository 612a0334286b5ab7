"""Counted vector primitives, the counted tridiagonal product, Gershgorin
bounds and dense matrix functions.

State vectors are plain 1D numpy arrays.  The functions ``dot``, ``norm2``,
``scale``, ``lincomb`` and ``copy_vector`` record their memory cost on the
active :class:`~expbench.counting.OpCounter`; all algorithms in this package
route state-vector-sized arithmetic through them, except the inner loops of
Arnoldi and of the Leja Newton series in ``matfunc``, which run the same
arithmetic inline and record the same events in bulk.

The dense matrix exponential evaluates the small Hessenberg and divided-
difference matrices inside the evaluators; the dense phi functions act as
an independent oracle for the iterative evaluators in the tests.

OpenBLAS's thread count changes the rounding of its products (``np.dot``
of 20000 entries, the squarings of ``scipy.linalg.expm``).  So importing
this module sets the OpenBLAS builds bundled with numpy and scipy to one
thread for the life of the process, and results do not depend on
``OPENBLAS_NUM_THREADS``.  The setting is process-wide: every thread and
every forked sweep worker runs on one BLAS thread.  A caller that changes
the count after importing expbench gives that up.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from functools import cached_property

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
# operators and their spectral bounds


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


class Linearization:
    """A linear operator with lazily computed spectral bounds.

    ``J(w)`` applies it; ``J.bounds`` is its ``SpectralBounds``, computed by
    the ``bounds`` thunk on first access and kept, so a caller that never
    reads them never pays for them.  A problem's ``linearize(u)`` returns
    the Jacobian frozen at ``u`` as one; ``matfunc`` builds its augmented
    operator as another.
    """

    def __init__(self, apply, bounds):
        self._apply = apply
        self._bounds = bounds

    def __call__(self, w) -> np.ndarray:
        return self._apply(w)

    @cached_property
    def bounds(self) -> SpectralBounds:
        return self._bounds()


def apply_operator(sub, diag, sup, u) -> np.ndarray:
    """Counted tridiagonal matrix-vector product; row i of the matrix is
    (sub[i], diag[i], sup[i]), and sub[0] and sup[-1] are never referenced."""
    u = np.asarray(u, dtype=float)
    if u.shape != diag.shape:
        raise ValueError(f"expected vector of length {diag.size}, got {u.shape}")
    record("matvec")
    y = diag * u
    y[1:] += sub[1:] * u[:-1]
    y[:-1] += sup[:-1] * u[1:]
    return y


def gershgorin_bounds(d, r) -> SpectralBounds:
    """Bounding box of the Gershgorin discs with centres ``d`` and radii ``r``."""
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
for _setter in _BLAS_THREAD_SETTERS:
    _setter(1)


def dense_expm(M) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring (Pade approximant)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("dense_expm requires a square matrix")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    return scipy.linalg.expm(M)


def dense_phi(M, p: int) -> np.ndarray:
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
    if M.shape[0] > DEFAULT_DENSE_CAP:
        raise ValueError(f"matrix dimension {M.shape[0]} exceeds cap {DEFAULT_DENSE_CAP}")
    if p == 0:
        return dense_expm(M)
    n = M.shape[0]
    aug = np.zeros(((p + 1) * n, (p + 1) * n))
    aug[:n, :n] = M
    eye = np.eye(n)
    for k in range(p):
        aug[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = eye
    E = dense_expm(aug)
    return E[:n, p * n : (p + 1) * n]
