"""Counted vector primitives, the counted tridiagonal product and Gershgorin
bounds.

State vectors are plain 1D numpy arrays.  The functions ``norm2``,
``scale``, ``lincomb`` and ``copy_vector`` record their memory cost on the
active :class:`~expbench.counting.OpCounter`; all algorithms in this package
route state-vector-sized arithmetic through them, except three places in
``matfunc`` that run the same arithmetic elsewhere and record the same events
in bulk: the Newton series of Leja and the ``lincomb`` of the augmented
operator's apply run inline in numpy, and the inner products and updates of
Arnoldi's two Gram-Schmidt passes run in C, in ``mgs2``.

OpenBLAS's thread count changes the rounding of its products (``np.dot``
of 20000 entries, the squarings of ``scipy.linalg.expm``).  So importing
this module sets the OpenBLAS builds bundled with numpy and scipy to one
thread for the life of the process, and results do not depend on
``OPENBLAS_NUM_THREADS``.  The setting is process-wide: every thread and
every forked sweep worker runs on one BLAS thread.  A caller that changes
the count after importing expbench gives that up.

``mgs2`` runs in a C function compiled once, on the first import, with the
compiler Python was built with (``sysconfig``'s ``CC``), and cached as
``__pycache__/mgs-<hash>.so`` beside this module.  Its inner products call
the ``cblas_ddot`` of the OpenBLAS bundled with numpy, the function
``ndarray.dot`` calls, and its updates are compiled without contracting a
multiply and an add into one FMA, so every float is numpy's, bit for bit.
Import fails with an ImportError when there is no compiler or no such
OpenBLAS.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
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
    """Real extent of the Gershgorin discs of an operator."""

    real_min: float
    real_max: float

    def __post_init__(self):
        if self.real_min > self.real_max:
            raise ValueError("real_min > real_max")


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
    """Real extent of the Gershgorin discs with centres ``d`` and radii ``r``."""
    return SpectralBounds(real_min=float(np.min(d - r)), real_max=float(np.max(d + r)))


# ---------------------------------------------------------------------------
# one BLAS thread


def _openblas_libraries(pkg) -> list:
    """The OpenBLAS builds bundled with ``pkg`` (numpy or scipy), opened."""
    libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
    return [ctypes.CDLL(lib) for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*")))]


def _blas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with numpy
    and of the one bundled with scipy; each sets the thread count and
    returns the previous one."""
    setters = []
    for pkg in (np, scipy):
        for lib in _openblas_libraries(pkg):
            setter = getattr(lib, "openblas_set_num_threads_local", None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = ctypes.c_int
                setters.append(setter)
    return tuple(setters)


_BLAS_THREAD_SETTERS = _blas_thread_setters()
for _setter in _BLAS_THREAD_SETTERS:
    _setter(1)


# ---------------------------------------------------------------------------
# both Gram-Schmidt passes of Arnoldi, in C

# h starts from 0.0 and adds the ddot, as numpy's dot does (this turns a
# -0.0 into 0.0); the update rounds the product and then the sum, as
# np.multiply into a scratch vector and an in-place add do
_MGS_SOURCE = """
#include <stdint.h>

typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);

void mgs2(ddot_fn ddot, int64_t n, int64_t k, const double *restrict V,
          double *restrict w, double *restrict hs)
{
    for (int64_t pass = 0; pass < 2; pass++) {
        for (int64_t i = 0; i < k; i++) {
            const double *v = V + i * n;
            double h = 0.0;
            h += ddot(n, w, 1, v, 1);
            hs[pass * k + i] = h;
            for (int64_t t = 0; t < n; t++)
                w[t] = w[t] + (-h) * v[t];
        }
    }
}
"""
_MGS_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _compile_mgs(out: str) -> None:
    cc = sysconfig.get_config_var("CC")
    argv = shlex.split(cc or "")
    if not argv or shutil.which(argv[0]) is None:
        raise ImportError(
            f"expbench builds its Gram-Schmidt kernel with a C compiler on first "
            f"import, and the compiler {cc!r} (sysconfig's CC) was not found"
        )
    proc = subprocess.run([*argv, *_MGS_FLAGS, "-x", "c", "-", "-o", out],
                          input=_MGS_SOURCE, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ImportError(
            f"the C compiler {cc!r} failed on the Gram-Schmidt kernel:\n{proc.stderr}"
        )


def _mgs_library() -> ctypes.CDLL:
    """The compiled kernel: loaded from ``__pycache__``, or built there
    first.  The build goes to a temporary file that ``os.replace`` moves into
    place, so imports that build at once each load a whole file.  Where the
    package directory is read-only, it is built in a private temporary
    directory for this process alone."""
    digest = hashlib.sha256("\0".join((_MGS_SOURCE, *_MGS_FLAGS)).encode()).hexdigest()
    name = f"mgs-{digest[:16]}.so"
    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    path = os.path.join(cache, name)
    if os.path.exists(path):
        return ctypes.CDLL(path)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=cache)
    except OSError:
        with tempfile.TemporaryDirectory() as private:
            path = os.path.join(private, name)
            _compile_mgs(path)
            return ctypes.CDLL(path)
    os.close(fd)
    try:
        _compile_mgs(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return ctypes.CDLL(path)


def _numpy_ddot() -> int:
    """Address of ``cblas_ddot`` in the OpenBLAS bundled with numpy."""
    for lib in _openblas_libraries(np):
        ddot = getattr(lib, "scipy_cblas_ddot64_", None)
        if ddot is not None:
            return ctypes.cast(ddot, ctypes.c_void_p).value
    raise ImportError(
        "expbench needs the scipy-openblas that numpy bundles: "
        "no OpenBLAS in numpy.libs exports scipy_cblas_ddot64_"
    )


_DDOT = _numpy_ddot()
_MGS2 = _mgs_library().mgs2
_MGS2.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                  ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
_MGS2.restype = None


def _address(a) -> int:
    # cheaper than a.ctypes.data; needs a writable C-contiguous array
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def mgs2(V, k: int, w, hs) -> None:
    """Both passes of modified Gram-Schmidt of ``w`` against rows 0..k-1
    of ``V``, in place: for each pass and each row i, h = w . V[i] as
    ``w.dot(V[i])`` computes it, then w = w + (-h) V[i], with h stored in
    ``hs[pass * k + i]``.  Nothing is counted.

    The kernel reads and writes raw memory, and this function checks
    nothing: ``V`` must be a writable C-contiguous 2-D float64 array with
    at least k rows of ``w.size`` entries, and ``w`` and ``hs`` C-contiguous
    float64 vectors of ``V.shape[1]`` and 2k entries.
    """
    _MGS2(_DDOT, w.size, k, _address(V), _address(w), _address(hs))
