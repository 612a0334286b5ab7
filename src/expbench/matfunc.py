"""Action of exponential and phi functions on vectors.

Two evaluators of phi_p(t A) x are provided: a Krylov subspace method
(Arnoldi with modified Gram-Schmidt and one full reorthogonalization pass;
the result coefficients and the residual estimate come from one expm of the
column-augmented Hessenberg matrix) and Leja interpolation (real Leja points
on [-2, 2], scaled and shifted to the Gershgorin interval of the operator,
Newton form with divided differences computed via the matrix method on a
bidiagonal node matrix, phi_p through p leading zero nodes, for a leading
block of points that doubles only when the evaluation runs past it).  Both
take (applyA, x, t, tol_abs, p) and are listed in EVALUATORS by backend
name; the Leja one reads the operator's SpectralBounds from
``applyA.bounds``, which a problem's Linearization computes on first
access.  Each evaluation returns its result, the number of operator
applications and its last error estimate, or raises NotConverged with the
applications spent.

The three entry points take plain arguments:

    krylov_phi_action(applyA, p, tau, v, tol)
    leja_phi_action(applyA, p, tau, v, tol)
    phi_linear_combination(applyJ, tau, terms, tol, backend)

with ``tol`` an absolute 2-norm accuracy.  All three check their
arguments before any counted work and run one substep chain, which
evaluates exp(tau Op) x0 as s equal substeps and doubles s, up to a cap of
1024, when an evaluation does not converge within its budget (Krylov
dimension DEFAULT_M_MAX, the DEFAULT_LEJA_COUNT points of
default_leja_sequence()).  A phi_0 action is the chain of A from s = 1.  A
phi_p action with p >= 1 is first tried as one evaluation on A, then as
the chain from s = 2 of the augmented operator

    [[A, W], [0, K]]

whose top block, applied to a padded start vector, yields
sum_p tau^p phi_p(tau A) w_p.  The phi-linear-combination needed by the
fourth-order integrator is the chain of that operator from s = 1.  The
augmented operator is a ``Linearization``, like a problem's Jacobian, with
bounds derived lazily from those of A.  The iteration count of a result
sums the applications of every evaluation, failed ones included; when the
chain fails at the cap, the action raises NotConverged with that sum.

The Leja points are generated once per process (functools.cache), and the
shifted divided differences of the last 64 distinct (nodes, interval, t, p)
keys are kept in a functools.lru_cache.  An entry depends only on its key,
so the cache changes wall time, never results, and both caches are safe to
share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .counting import record
from .linalg import Linearization, SpectralBounds, lincomb, mgs2, norm2, scale

DEFAULT_M_MAX = 100
DEFAULT_LEJA_COUNT = 128
SUBSTEP_CAP = 1024
_BREAKDOWN_FACTOR = 1e-14
_DIVERGENCE_FACTOR = 1e8


class NotConverged(Exception):
    """An evaluation, or a whole action, ran out of budget after ``applies``
    operator calls."""

    def __init__(self, applies: int):
        super().__init__(applies)
        self.applies = applies


@dataclass
class PhiActionResult:
    y: np.ndarray
    iterations: int
    substeps: int
    final_estimate: float


# ---------------------------------------------------------------------------
# Arnoldi / Krylov


def arnoldi_extend(applyA, V, H, j: int, beta: float) -> bool:
    """Append basis row j + 1 of ``V`` and Hessenberg column j of ``H``.

    Uses modified Gram-Schmidt with one unconditional reorthogonalization
    pass.  Returns False on breakdown (new vector norm below 1e-14 * beta,
    with beta the norm of the start vector): the subspace is invariant and
    no row is appended.

    Both passes run in ``linalg.mgs2``, with the arithmetic of ``dot`` and
    ``lincomb([1.0, -h_ij], [w, v_i])`` in the same float order, on one copy
    of the operator's result; each pass's j + 1 inner products are added to
    column j of ``H`` at once.  The 2(j + 1) inner products and 2(j + 1)
    two-term linear combinations of both passes are recorded in bulk.
    ``V`` must be a writable C-contiguous 2-D float64 array with a row
    j + 1, and the operator's result must have ``V.shape[1]`` entries; a
    ValueError reports either before anything is recorded.
    """
    if not (isinstance(V, np.ndarray) and V.ndim == 2 and V.dtype == np.float64
            and V.flags.c_contiguous and V.flags.writeable):
        raise ValueError("V must be a writable C-contiguous 2-D float64 array")
    if not 0 <= j < V.shape[0] - 1:
        raise ValueError(f"no basis row {j + 1} in V of shape {V.shape}")
    # the copy keeps the in-place updates off an array the operator returned
    # as is (its own input, a row of the basis, for the identity)
    w = np.array(applyA(V[j]), dtype=float)
    if w.shape != V[j].shape:
        raise ValueError(f"length mismatch: {V[j].shape} vs {w.shape}")
    k = j + 1
    hs = np.empty(2 * k)
    mgs2(V, k, w, hs)
    H[:k, j] += hs[:k]
    H[:k, j] += hs[k:]
    record("dot", times=2 * k)
    record("lincomb", k=2, times=2 * k)
    hnext = norm2(w)
    H[j + 1, j] = hnext
    if hnext <= _BREAKDOWN_FACTOR * beta:
        return False
    V[j + 1] = scale(1.0 / hnext, w)
    return True


def hessenberg_phi_e1(Hm, q: int) -> np.ndarray:
    """Columns exp(Hm) e_1, phi_1(Hm) e_1, ..., phi_q(Hm) e_1 (q >= 1) from one
    expm of [[Hm, e_1, 0], [0, 0, I_{q-1}], [0, 0, 0]] (Saad 1992; Sidje 1998):
    column 0 of its top block is exp(Hm) e_1, column m+k-1 is phi_k(Hm) e_1.

    The entry e_1 lies above the diagonal, so when Hm has a nonzero
    subdiagonal, as the Hessenberg matrix of every Arnoldi step short of
    breakdown has, the augmented matrix is neither diagonal nor triangular:
    the generic case of ``scipy.linalg.expm``.  Such a matrix goes straight
    to the kernels expm runs for that case (Pade order and scaling after
    Al-Mohy & Higham 2009, the Pade evaluation, then the squarings), which
    gives expm's result bit for bit without its per-call checks.  Any other
    Hm goes to ``scipy.linalg.expm`` itself.
    """
    m = Hm.shape[0]
    n = m + q
    work = np.zeros((5, n, n))  # the augmented matrix, then scipy's scratch
    aug = work[0]
    aug[:m, :m] = Hm
    aug[0, m] = 1.0
    for k in range(m, n - 1):
        aug[k, k + 1] = 1.0
    cols = [0, *range(m, n)]
    if not Hm.diagonal(-1).any():
        return scipy.linalg.expm(aug)[:m, cols]
    order, squarings = pick_pade_structure(work)
    if order < 0 or pade_UV_calc(work, order) != 0:
        raise RuntimeError(f"scipy's Pade kernels failed on a {n} x {n} matrix")
    expA = work[0]
    for _ in range(squarings):
        expA = expA @ expA
    return expA[:m, cols]


def _krylov_arnoldi(applyA, x, t, tol_abs, p):
    """One Arnoldi evaluation of phi_p(t A) x (p = 0 gives exp) with the
    stopping rule of krylov_phi_action.

    Returns (y, applies, last_estimate); raises NotConverged at the
    dimension cap DEFAULT_M_MAX.
    """
    beta = float(np.linalg.norm(x))
    if beta == 0.0:
        return x.copy(), 0, 0.0
    record("dot")  # beta is the counted norm2(x)
    V = np.empty((DEFAULT_M_MAX + 1, x.size))
    V[0] = scale(1.0 / beta, x)
    H = np.zeros((DEFAULT_M_MAX + 1, DEFAULT_M_MAX))
    q = max(p, 1)
    for j in range(DEFAULT_M_MAX):
        extended = arnoldi_extend(applyA, V, H, j, beta)
        m = j + 1
        cols = hessenberg_phi_e1(t * H[:m, :m], q)
        err = beta * t * abs(H[m, j]) * abs(cols[j, q]) if extended else 0.0
        if err <= tol_abs or not extended:
            return lincomb(list(beta * cols[:, p]), V[:m]), m, err
    raise NotConverged(DEFAULT_M_MAX)


def krylov_phi_action(applyA, p: int, tau: float, v, tol: float) -> PhiActionResult:
    """y ~ phi_p(tau A) v by Arnoldi iteration, to absolute accuracy tol.

    Terminates on the generalized residual estimate
    err_m = beta * tau * h_{m+1,m} * |e_m^T phi_q(tau H_m) e_1| <= tol with
    q = max(p, 1), checked after every extension.  Falls back to substepped,
    chained evaluation when the dimension cap is hit.
    """
    return _single_action(applyA, p, tau, v, tol, "krylov")


# ---------------------------------------------------------------------------
# Leja points and divided differences


def divided_differences_exp(points, scaling: float, p: int = 0) -> np.ndarray:
    """Newton divided differences of z -> phi_p(scaling * z) on ``points``.

    Computed via the matrix method: the divided differences of f on nodes
    z_0..z_{N-1} are the first column of f(Z), Z lower bidiagonal with the
    nodes on the diagonal and ones on the subdiagonal.  This avoids the
    catastrophic cancellation of the naive recurrence.  phi_p uses
    phi_p[y_0..y_j] = exp[0, ..., 0, y_0..y_j] with p zero nodes in front
    of y = scaling * points; the subdiagonal is 1 on its first p rows and
    ``scaling`` after them, which supplies the factor scaling^j.  Z is lower
    triangular, so a prefix of ``points`` gives the same prefix of the result.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("points must be a non-empty 1D sequence")
    if np.unique(pts).size != pts.size:
        raise ValueError("points must be pairwise distinct")
    N = pts.size + p
    Z = np.diag(np.concatenate([np.zeros(p), scaling * pts]))
    idx = np.arange(N - 1)
    Z[idx + 1, idx] = np.where(idx < p, 1.0, scaling)
    return scipy.linalg.expm(Z)[p:, 0].copy()


_DD_BLOCK = 32  # leading Leja points whose coefficients are computed first


@functools.lru_cache(maxsize=64)
def _cached_shifted_dd(xi: tuple, c: float, gamma: float, t: float, p: int) -> np.ndarray:
    """Divided differences of theta -> phi_p(t (c + gamma theta)) on xi.

    These are the Newton coefficients matching the scaled recurrence
    r_{j+1} = (A - (c + gamma xi_j) I) r_j / gamma.  The key holds the
    nodes themselves, so an entry depends on nothing but its key.  Callers
    share the returned array and must not modify it.
    """
    return divided_differences_exp(np.asarray(xi) + c / gamma, t * gamma, p)


@functools.cache
def default_leja_sequence() -> tuple:
    """The DEFAULT_LEJA_COUNT Leja points of every Leja evaluation.

    Greedy (fast-Leja-style) selection on a grid of 10000 points over
    [-2, 2]: the first three points are 2, -2, 0, and each further point
    maximizes the product of distances to all previous points, computed in
    log space to avoid underflow.  Each point depends only on those before
    it, so the first k points are the k-point sequence.
    """
    grid = np.linspace(-2.0, 2.0, 10000)
    points = [2.0, -2.0, 0.0]
    logprod = np.zeros_like(grid)
    with np.errstate(divide="ignore"):
        for p in points:
            logprod += np.log(np.abs(grid - p))
        while len(points) < DEFAULT_LEJA_COUNT:
            p = float(grid[int(np.argmax(logprod))])
            points.append(p)
            logprod += np.log(np.abs(grid - p))
    return tuple(points)


def _leja_interval(bounds: SpectralBounds):
    """Center and scaling of the real spectral interval."""
    c = 0.5 * (bounds.real_max + bounds.real_min)
    gamma = 0.25 * (bounds.real_max - bounds.real_min)
    gamma = max(gamma, 1e-14 * (1.0 + abs(c)))
    return c, gamma


def _leja_newton(applyA, x, t, tol_abs, p):
    """One Newton-form Leja evaluation of phi_p(t A) x (p = 0 gives exp) on
    the default_leja_sequence() points scaled to ``applyA.bounds``.

    Raises NotConverged when the point budget is exhausted or the terms
    diverge.  Returns (y, applies, last_estimate); term j costs one apply.

    The magnitude of the Newton terms oscillates, so a single small term is
    not a safe stopping signal; termination requires two consecutive term
    estimates below the tolerance.  Coefficients are computed for the first
    _DD_BLOCK points, and for twice as many each time j reaches their end.
    """
    c, gamma = _leja_interval(applyA.bounds)
    xi = default_leja_sequence()
    block = min(_DD_BLOCK, len(xi))
    dd = _cached_shifted_dd(xi[:block], c, gamma, t, p)
    r = x  # only ever rebound, never written
    y = scale(dd[0], r)
    guard = _DIVERGENCE_FACTOR * max(1.0, float(np.linalg.norm(x)))
    tmp = np.empty_like(y)
    est = math.inf
    prev_small = False
    for j in range(1, len(xi)):
        if j == block:
            block = min(2 * block, len(xi))
            dd = _cached_shifted_dd(xi[:block], c, gamma, t, p)
        shift = c + gamma * xi[j - 1]
        Ar = np.asarray(applyA(r), dtype=float)
        if Ar.shape != r.shape:
            raise ValueError(f"length mismatch: {r.shape} vs {Ar.shape}")
        record("lincomb", k=2, times=2)
        # lincomb([1/gamma, -shift/gamma], [Ar, r]) and lincomb([1, dd_j], [y, r])
        # in lincomb's float order; y is this function's own array
        d = dd[j]
        r_next = (1.0 / gamma) * Ar
        np.multiply(-shift / gamma, r, out=tmp)
        r_next += tmp
        r = r_next
        np.multiply(d, r, out=tmp)
        y += tmp
        rnorm = norm2(r)
        est = abs(d) * rnorm
        if not math.isfinite(est) or rnorm > guard:
            raise NotConverged(j)
        small = est <= tol_abs
        if small and prev_small:
            return y, j, est
        prev_small = small
    raise NotConverged(len(xi) - 1)


def leja_phi_action(applyA, p: int, tau: float, v, tol: float) -> PhiActionResult:
    """y ~ phi_p(tau A) v by Newton interpolation on Leja points scaled to
    ``applyA.bounds``.

    Terminates when the L2 norms of two consecutive Newton terms are below
    tol; halves the substep (doubling the substep count, uniform
    over [0, tau]) and restarts on failure.
    """
    return _single_action(applyA, p, tau, v, tol, "leja")


EVALUATORS = {"krylov": _krylov_arnoldi, "leja": _leja_newton}


# ---------------------------------------------------------------------------
# augmented operator and substep chain


def _augmented(applyA, dim, terms):
    """The operator [[A, W], [0, K]], K the q x q upper-shift nilpotent, as a
    Linearization, and its start vector [0; e_q].

    ``terms`` holds (p, w_p) pairs with p >= 1 and q the largest p.
    exp(tau Aug) [0; e_q] has sum_p tau^p phi_p(tau A) w_p in its top block
    (Al-Mohy & Higham 2011), with w_p stored in column q - p of W (zero for
    a p that is not among the terms).  An apply computes the top block as
    ``lincomb([1, x_bot...], [A x_top, W...])`` would, in its float order,
    and records that one lincomb.  The bounds are those of A widened by the
    largest row sum of |W|, computed on first access (only Leja reads them).
    """
    q = max(p for p, _w in terms)
    by_p = dict(terms)
    columns = [by_p.get(q - c, np.zeros(dim)) for c in range(q)]

    def apply(x):
        top = np.asarray(applyA(x[:dim]), dtype=float)
        if top.shape != (dim,):
            raise ValueError("length mismatch in lincomb")
        record("lincomb", k=q + 1)
        out = np.empty(dim + q)
        np.multiply(1.0, top, out=out[:dim])
        for i, col in enumerate(columns):
            out[:dim] += x[dim + i] * col
        out[dim:-1] = x[dim + 1 :]
        out[-1] = 0.0
        return out

    def bounds():
        inner = applyA.bounds
        extra = float(np.max(np.sum(np.abs(np.column_stack(columns)), axis=1)))
        return SpectralBounds(
            real_min=min(inner.real_min - extra, -1.0),
            real_max=max(inner.real_max + extra, 1.0),
        )

    x0 = np.zeros(dim + q)
    x0[-1] = 1.0
    return Linearization(apply, bounds), x0


def _check(applyA, tau, terms, tol, backend, indices):
    """Reject bad arguments before any counted work; returns ``terms`` with
    float arrays.  ``indices`` are the admissible phi indices."""
    ps = [p for p, _w in terms]
    if not ps:
        raise ValueError("terms must be non-empty")
    if any(p not in indices for p in ps):
        raise ValueError(f"unsupported phi indices {ps}")
    if len(set(ps)) != len(ps):
        raise ValueError("phi indices must be distinct")
    ws = [np.asarray(w, dtype=float) for _p, w in terms]
    if ws[0].ndim != 1 or any(w.shape != ws[0].shape for w in ws):
        raise ValueError("terms must be 1-D vectors of one length")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive")
    if backend not in EVALUATORS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "leja" and not hasattr(applyA, "bounds"):
        raise ValueError("leja backend requires an operator with spectral bounds")
    return list(zip(ps, ws))


def _chain(evaluate, op, x0, tau, tol, dim, s, applies):
    """exp(tau op) x0 as s chained equal substeps, each one evaluation;
    s doubles on failure, up to SUBSTEP_CAP.

    Returns the top ``dim`` entries, with ``applies`` (the applications
    already spent) plus every application of the chain.  Raises NotConverged
    with that sum when the chain fails at SUBSTEP_CAP.
    """
    while s <= SUBSTEP_CAP:
        y = x0
        try:
            for _k in range(s):
                y, n, est = evaluate(op, y, tau / s, tol / s, 0)
                applies += n
        except NotConverged as exc:
            applies += exc.applies
            s *= 2
            continue
        return PhiActionResult(y[:dim], applies, s, est)
    raise NotConverged(applies)


def _single_action(applyA, p, tau, v, tol, backend) -> PhiActionResult:
    """phi_p(tau A) v for krylov_phi_action and leja_phi_action.  The final
    tau^-p rescaling of p >= 1 amplifies absolute errors, so its chained
    tolerance is tightened to tol * min(tau, 1)^p."""
    [(p, v)] = _check(applyA, tau, [(p, v)], tol, backend, (0, 1, 2, 3))
    if float(np.linalg.norm(v)) == 0.0:
        return PhiActionResult(np.zeros(v.size), 0, 1, 0.0)
    evaluate = EVALUATORS[backend]
    if p == 0:
        return _chain(evaluate, applyA, v, tau, tol, v.size, 1, 0)
    try:
        y, applies, est = evaluate(applyA, v, tau, tol, p)
        return PhiActionResult(y, applies, 1, est)
    except NotConverged as exc:
        applies = exc.applies
    op, x0 = _augmented(applyA, v.size, [(p, v)])
    result = _chain(evaluate, op, x0, tau, tol * min(tau, 1.0) ** p, v.size, 2, applies)
    result.y = scale(tau ** (-p), result.y)
    return result


def phi_linear_combination(applyJ, tau: float, terms, tol: float, backend: str) -> PhiActionResult:
    """sum_p tau^p phi_p(tau J) w_p: the chain of the augmented operator
    from s = 1.

    ``terms`` is a list of (p, w) pairs with distinct p in 1..3; the "leja"
    backend reads ``applyJ.bounds``.
    """
    terms = _check(applyJ, tau, terms, tol, backend, (1, 2, 3))
    dim = terms[0][1].size
    if max(float(np.linalg.norm(w)) for _p, w in terms) == 0.0:
        return PhiActionResult(np.zeros(dim), 0, 1, 0.0)
    op, x0 = _augmented(applyJ, dim, terms)
    return _chain(EVALUATORS[backend], op, x0, tau, tol, dim, 1, 0)
