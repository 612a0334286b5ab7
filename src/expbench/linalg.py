"""Counted vector primitives, the counted tridiagonal product and Gershgorin
bounds.

State vectors are plain 1D numpy arrays.  The functions ``norm2``,
``scale``, ``lincomb`` and ``copy_vector`` record their memory cost on the
active :class:`~expbench.counting.OpCounter`; all algorithms in this package
route state-vector-sized arithmetic through them, except three places in
``matfunc`` that run the same arithmetic inline and record the same events
in bulk: the inner products and updates of Arnoldi, the Newton series of
Leja, and the ``lincomb`` of the augmented operator's apply.

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
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .counting import record

# ---------------------------------------------------------------------------
# counted vector primitives


def norm2(u) -> float:
    """Euclidean norm, counted as one inner product: sqrt(u . u), the formula
    of ``np.linalg.norm`` for a real vector, without its dispatch."""
    record("dot")
    u = np.asarray(u, dtype=float).ravel(order="K")
    return math.sqrt(u.dot(u))


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


def apply_operator(lower, diag, upper, u) -> np.ndarray:
    """Counted tridiagonal matrix-vector product; the matrix has ``diag`` on
    its diagonal and the n - 1 entries of ``lower`` and ``upper`` below and
    above it."""
    u = np.asarray(u, dtype=float)
    if u.shape != diag.shape:
        raise ValueError(f"expected vector of length {diag.size}, got {u.shape}")
    record("matvec")
    y = diag * u
    y[1:] += lower * u[:-1]
    y[:-1] += upper * u[1:]
    return y


def gershgorin_bounds(d, r) -> SpectralBounds:
    """Bounding box of the Gershgorin discs with centres ``d`` and radii ``r``."""
    return SpectralBounds(
        real_min=float(np.min(d - r)),
        real_max=float(np.max(d + r)),
        imag_halfwidth=float(np.max(r)),
    )


# ---------------------------------------------------------------------------
# one BLAS thread


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
