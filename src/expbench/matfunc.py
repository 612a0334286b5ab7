"""Action of exponential and phi functions on vectors.

Two evaluators of phi_p(t A) x are provided: a Krylov subspace method
(Arnoldi with modified Gram-Schmidt and one full reorthogonalization pass;
the result coefficients and the residual estimate come from one expm of the
column-augmented Hessenberg matrix) and Leja interpolation (real Leja points
on [-2, 2], scaled and shifted to the Gershgorin interval of the operator,
Newton form with divided differences computed via the matrix method on a
bidiagonal node matrix, phi_p through p leading zero nodes, for a leading
block of points that doubles only when the evaluation runs past it).  Each
evaluation returns its result, the number of operator applications and its
last error estimate, or raises _NotConverged with the applications spent.

One substep loop serves the three entry points.  A single phi_p action is
first tried as one evaluation on A; when that does not converge within its
budget, the loop chains s equal exponential substeps, s = 2, 4, ... up to a
cap of 1024, of A (p = 0) or of the augmented operator

    [[A, W], [0, K]]

whose top block, applied to a padded start vector, yields
sum_p tau^p phi_p(tau A) w_p.  The phi-linear-combination needed by the
fourth-order integrator is the same chain from s = 1.  The iteration count
of a result sums the applications of every evaluation, failed ones included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import record
from .linalg import (
    SpectralBounds,
    copy_vector,
    dense_expm,
    lincomb,
    norm2,
    scale,
)

DEFAULT_M_MAX = 100
DEFAULT_LEJA_COUNT = 128
SUBSTEP_CAP = 1024
_BREAKDOWN_FACTOR = 1e-14
_DIVERGENCE_FACTOR = 1e8


class SubspaceCapError(RuntimeError):
    """Raised when the Krylov basis cannot be extended further."""


class _NotConverged(Exception):
    """An evaluation ran out of budget after ``applies`` operator calls."""

    def __init__(self, applies: int):
        super().__init__(applies)
        self.applies = applies


@dataclass
class PhiActionRequest:
    """Parameters of a single phi-action evaluation."""

    p: int
    tau: float
    v: np.ndarray
    tol: float  # absolute accuracy in the 2-norm
    bounds: SpectralBounds | None = None

    def __post_init__(self):
        if self.p not in (0, 1, 2, 3):
            raise ValueError(f"unsupported phi index {self.p}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class PhiActionResult:
    y: np.ndarray
    iterations: int
    substeps: int
    converged: bool
    final_estimate: float = math.nan


# ---------------------------------------------------------------------------
# Arnoldi / Krylov


@dataclass
class KrylovState:
    """Arnoldi basis and Hessenberg matrix after m completed steps.

    ``basis`` is preallocated with m_max + 1 rows; row i holds basis vector
    i once it is appended and is left untouched until then.
    """

    basis: np.ndarray
    H: np.ndarray
    beta: float
    m: int
    m_max: int = DEFAULT_M_MAX
    invariant: bool = False

    @property
    def V(self) -> np.ndarray:
        """The appended basis vectors as rows: m of them after breakdown,
        m + 1 otherwise."""
        return self.basis[: self.m if self.invariant else self.m + 1]


def arnoldi_start(v, m_max: int = DEFAULT_M_MAX) -> KrylovState:
    beta = norm2(v)
    if beta == 0.0:
        raise ValueError("cannot start Arnoldi from the zero vector")
    v0 = scale(1.0 / beta, v)
    basis = np.empty((m_max + 1, v0.size))
    basis[0] = v0
    return KrylovState(
        basis=basis,
        H=np.zeros((m_max + 1, m_max)),
        beta=beta,
        m=0,
        m_max=m_max,
    )


def arnoldi_extend(applyA, state: KrylovState) -> KrylovState:
    """Append one orthonormal basis vector and one Hessenberg column.

    Uses modified Gram-Schmidt with one unconditional reorthogonalization
    pass.  On breakdown (new vector norm below 1e-14 * beta) the subspace
    is marked invariant and no vector is appended.

    The new vector is written to row m + 1 of the preallocated
    ``state.basis``.  Each pass runs the arithmetic of ``dot`` and
    ``lincomb([1.0, -h_ij], [w, v_i])`` inline, in the same float order, on
    one copy of the operator's result, and records its j + 1 inner products
    and j + 1 two-term linear combinations in bulk.
    """
    if state.invariant:
        raise SubspaceCapError("subspace is invariant, cannot extend")
    if state.m >= state.m_max:
        raise SubspaceCapError(f"Krylov dimension cap {state.m_max} reached")
    j = state.m
    V, H = state.basis, state.H
    # the copy keeps the in-place updates off an array the operator returned
    # as is (its own input, a row of the basis, for the identity)
    w = np.array(applyA(V[j]), dtype=float)
    if w.shape != V[j].shape:
        raise ValueError(f"length mismatch: {V[j].shape} vs {w.shape}")
    for _pass in range(2):
        for i in range(j + 1):
            vi = V[i]
            hij = float(np.dot(vi, w))
            H[i, j] += hij
            w += (-hij) * vi
        record("dot", times=j + 1)
        record("lincomb", k=2, times=j + 1)
    hnext = norm2(w)
    H[j + 1, j] = hnext
    if hnext <= _BREAKDOWN_FACTOR * state.beta:
        state.invariant = True
    else:
        V[j + 1] = scale(1.0 / hnext, w)
    state.m = j + 1
    return state


def hessenberg_phi_e1(Hm, q: int) -> np.ndarray:
    """Columns exp(Hm) e_1, phi_1(Hm) e_1, ..., phi_q(Hm) e_1 (q >= 1) from one
    expm of [[Hm, e_1, 0], [0, 0, I_{q-1}], [0, 0, 0]] (Saad 1992; Sidje 1998):
    column 0 of its top block is exp(Hm) e_1, column m+k-1 is phi_k(Hm) e_1."""
    m = Hm.shape[0]
    aug = np.zeros((m + q, m + q))
    aug[:m, :m] = Hm
    aug[0, m] = 1.0
    aug[m : m + q - 1, m + 1 :] = np.eye(q - 1)
    return dense_expm(aug)[:m, [0, *range(m, m + q)]]


def _krylov_arnoldi(applyA, x, t, tol_abs, p, m_max):
    """One Arnoldi evaluation of phi_p(t A) x (p = 0 gives exp) with the
    stopping rule of krylov_phi_action.

    Returns (y, applies, last_estimate); raises _NotConverged at the
    dimension cap.
    """
    if float(np.linalg.norm(x)) == 0.0:
        return x.copy(), 0, 0.0
    state = arnoldi_start(x, m_max=m_max)
    q = max(p, 1)
    while True:
        arnoldi_extend(applyA, state)
        m = state.m
        cols = hessenberg_phi_e1(t * state.H[:m, :m], q)
        if state.invariant:
            err = 0.0
        else:
            err = state.beta * t * abs(state.H[m, m - 1]) * abs(cols[m - 1, q])
        if err <= tol_abs or state.invariant:
            return lincomb(list(state.beta * cols[:, p]), state.V[:m]), m, err
        if m >= m_max:
            raise _NotConverged(m)


def krylov_phi_action(applyA, req: PhiActionRequest, m_max: int = DEFAULT_M_MAX) -> PhiActionResult:
    """y ~ phi_p(tau A) v by Arnoldi iteration.

    Terminates on the generalized residual estimate
    err_m = beta * tau * h_{m+1,m} * |e_m^T phi_q(tau H_m) e_1| <= tol with
    q = max(p, 1), checked after every extension.  Falls back to substepped,
    chained evaluation when the dimension cap is hit.
    """
    return _phi_engine(
        applyA, req.tau, [(req.p, req.v)], req.tol, None, "krylov", m_max, None, single=True
    )


# ---------------------------------------------------------------------------
# Leja points and divided differences


@dataclass(frozen=True)
class LejaSequence:
    points: tuple


def generate_leja_points(count: int = DEFAULT_LEJA_COUNT, grid_resolution: int | None = None) -> LejaSequence:
    """Greedy (fast-Leja-style) point selection on a candidate grid over [-2, 2].

    The first three points are fixed to 2, -2, 0; each further point
    maximizes the product of distances to all previous points, computed in
    log space to avoid underflow.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if grid_resolution is None:
        grid_resolution = max(10 * count, 10000)
    if grid_resolution < 10 * count:
        raise ValueError("grid_resolution must be at least 10 * count")
    grid = np.linspace(-2.0, 2.0, grid_resolution)
    points = [2.0, -2.0, 0.0][:count]
    logprod = np.zeros_like(grid)
    with np.errstate(divide="ignore"):
        for p in points:
            logprod += np.log(np.abs(grid - p))
    while len(points) < count:
        idx = int(np.argmax(logprod))
        p = float(grid[idx])
        points.append(p)
        with np.errstate(divide="ignore"):
            logprod += np.log(np.abs(grid - p))
    return LejaSequence(points=tuple(points))


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
    return dense_expm(Z)[p:, 0].copy()


_DD_CACHE: dict = {}
_DD_CACHE_LIMIT = 64
_DD_BLOCK = 32  # leading Leja points whose coefficients are computed first


def _cached_shifted_dd(xi: tuple, c: float, gamma: float, t: float, p: int) -> np.ndarray:
    """Divided differences of theta -> phi_p(t (c + gamma theta)) on xi.

    These are the Newton coefficients matching the scaled recurrence
    r_{j+1} = (A - (c + gamma xi_j) I) r_j / gamma.  The key holds the
    nodes themselves, so an entry depends on nothing but its key.
    """
    key = (p, t, c, gamma, xi)
    hit = _DD_CACHE.get(key)
    if hit is None:
        if len(_DD_CACHE) >= _DD_CACHE_LIMIT:
            _DD_CACHE.clear()
        pts = np.asarray(xi) + c / gamma
        hit = divided_differences_exp(pts, t * gamma, p)
        _DD_CACHE[key] = hit
    return hit


_DEFAULT_LEJA: LejaSequence | None = None


def default_leja_sequence() -> LejaSequence:
    global _DEFAULT_LEJA
    if _DEFAULT_LEJA is None:
        _DEFAULT_LEJA = generate_leja_points(DEFAULT_LEJA_COUNT)
    return _DEFAULT_LEJA


def _leja_interval(bounds: SpectralBounds):
    """Center and scaling of the real spectral interval."""
    c = 0.5 * (bounds.real_max + bounds.real_min)
    gamma = 0.25 * (bounds.real_max - bounds.real_min)
    gamma = max(gamma, 1e-14 * (1.0 + abs(c)))
    return c, gamma


def _leja_newton(applyA, x, t, tol_abs, p, c, gamma, points):
    """One Newton-form Leja evaluation of phi_p(t A) x (p = 0 gives exp).

    Raises _NotConverged when the point budget is exhausted or the terms
    diverge.  Returns (y, applies, last_estimate); term j costs one apply.

    The magnitude of the Newton terms oscillates, so a single small term is
    not a safe stopping signal; termination requires two consecutive term
    estimates below the tolerance.  Coefficients are computed for the first
    _DD_BLOCK points, and for twice as many each time j reaches their end.
    """
    xi = tuple(points)
    block = min(_DD_BLOCK, len(xi))
    dd = _cached_shifted_dd(xi[:block], c, gamma, t, p)
    r = copy_vector(x)
    y = scale(dd[0], r)
    guard = _DIVERGENCE_FACTOR * max(1.0, float(np.linalg.norm(x)))
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
        r_next = (1.0 / gamma) * Ar
        r_next += (-shift / gamma) * r
        r = r_next
        y += dd[j] * r
        rnorm = norm2(r)
        est = abs(dd[j]) * rnorm
        if not math.isfinite(est) or rnorm > guard:
            raise _NotConverged(j)
        small = est <= tol_abs
        if small and prev_small and j >= 2:
            return y, j, est
        prev_small = small
    raise _NotConverged(len(xi) - 1)


def leja_phi_action(
    applyA,
    req: PhiActionRequest,
    points: LejaSequence | None = None,
) -> PhiActionResult:
    """y ~ phi_p(tau A) v by Newton interpolation on scaled Leja points.

    Terminates when the L2 norms of two consecutive Newton terms are below
    tol; halves the substep (doubling the substep count, uniform
    over [0, tau]) and restarts on failure.
    """
    return _phi_engine(
        applyA, req.tau, [(req.p, req.v)], req.tol, req.bounds, "leja", DEFAULT_M_MAX, points,
        single=True,
    )


# ---------------------------------------------------------------------------
# augmented operator and substepped evaluation


class _AugmentedOperator:
    """Action of [[A, W], [0, K]] with K the q x q upper-shift nilpotent.

    ``terms`` holds (p, w_p) pairs with p >= 1 and q the largest p.
    exp(tau Aug) applied to [0; e_q] has sum_p tau^p phi_p(tau A) w_p in
    its top block, with w_p stored in column q - p of W (zero for a p that
    is not among the terms).
    """

    def __init__(self, applyA, dim, terms):
        self.applyA = applyA
        self.dim = dim
        self.q = max(p for p, _w in terms)
        by_p = dict(terms)
        self.columns = [by_p.get(self.q - c, np.zeros(dim)) for c in range(self.q)]

    def start_vector(self) -> np.ndarray:
        x = np.zeros(self.dim + self.q)
        x[-1] = 1.0
        return x

    def __call__(self, x):
        """[A x_top + sum_i x_bot[i] W[:, i]; K x_bot], with the top block
        computed as ``lincomb([1, x_bot...], [A x_top, W...])`` would, in
        its float order, and recorded as that one lincomb."""
        dim = self.dim
        top = np.asarray(self.applyA(x[:dim]), dtype=float)
        if top.shape != (dim,):
            raise ValueError("length mismatch in lincomb")
        record("lincomb", k=self.q + 1)
        out = np.empty(dim + self.q)
        np.multiply(1.0, top, out=out[:dim])
        for i, col in enumerate(self.columns):
            out[:dim] += x[dim + i] * col
        out[dim:-1] = x[dim + 1 :]
        out[-1] = 0.0
        return out

    def inflated_bounds(self, bounds: SpectralBounds) -> SpectralBounds:
        """Gershgorin bounds of the augmented operator from those of A."""
        W = np.column_stack(self.columns)
        extra = float(np.max(np.sum(np.abs(W), axis=1)))
        return SpectralBounds(
            real_min=min(bounds.real_min - extra, -1.0),
            real_max=max(bounds.real_max + extra, 1.0),
            imag_halfwidth=max(bounds.imag_halfwidth + extra, 1.0),
        )


def _phi_engine(applyA, tau, terms, tol, bounds, backend, m_max, points, single):
    """sum_p tau^p phi_p(tau A) w_p over ``terms`` by the substep loop.

    The loop chains s equal exponential substeps of the augmented operator,
    s = 1, 2, 4, ... up to SUBSTEP_CAP.  With ``single`` the one term (p, v)
    yields phi_p(tau A) v instead: one direct evaluation on A comes first,
    then the chain (of A itself when p = 0) from s = 2.  Its final tau^-p
    rescaling amplifies absolute errors, so the chained tolerance is
    tightened to tol * min(tau, 1)^p.
    """
    if backend == "leja" and bounds is None:
        raise ValueError("leja backend requires spectral bounds")
    terms = [(p, np.asarray(w, dtype=float)) for p, w in terms]
    dim = terms[0][1].size
    if max(float(np.linalg.norm(w)) for _p, w in terms) == 0.0:
        return PhiActionResult(np.zeros(dim), 0, 1, True, 0.0)
    if backend == "leja" and points is None:
        points = default_leja_sequence()

    def evaluate(op, x, t, tol_abs, p, op_bounds):
        if backend == "krylov":
            return _krylov_arnoldi(op, x, t, tol_abs, p, m_max)
        c, gamma = _leja_interval(op_bounds)
        return _leja_newton(op, x, t, tol_abs, p, c, gamma, points.points)

    applies = 0
    s = 1
    if single:
        [(p, v)] = terms
        try:
            y, applies, est = evaluate(applyA, v, tau, tol, p, bounds)
            return PhiActionResult(y, applies, 1, True, est)
        except _NotConverged as exc:
            applies = exc.applies
        s = 2
        tol = tol * min(tau, 1.0) ** p
    if single and p == 0:
        op, x0, op_bounds = applyA, copy_vector(v), bounds
    else:
        op = _AugmentedOperator(applyA, dim, terms)
        x0 = op.start_vector()
        op_bounds = op.inflated_bounds(bounds) if backend == "leja" else None
    while s <= SUBSTEP_CAP:
        y = x0
        try:
            for _k in range(s):
                y, n, est = evaluate(op, y, tau / s, tol / s, 0, op_bounds)
                applies += n
        except _NotConverged as exc:
            applies += exc.applies
            s *= 2
            continue
        y = y[:dim]
        if single and p > 0:
            y = scale(tau ** (-p), y)
        return PhiActionResult(y, applies, s, True, est)
    return PhiActionResult(np.full(dim, np.nan), applies, SUBSTEP_CAP, False, math.inf)


def phi_linear_combination(
    applyJ,
    tau: float,
    terms,
    tol: float,
    bounds: SpectralBounds | None = None,
    backend: str = "leja",
    m_max: int = DEFAULT_M_MAX,
    points: LejaSequence | None = None,
) -> PhiActionResult:
    """sum_p tau^p phi_p(tau J) w_p in one augmented-operator evaluation.

    ``terms`` is a list of (p, w) pairs with distinct p in 1..3.
    """
    if not terms:
        raise ValueError("terms must be non-empty")
    ps = [p for p, _w in terms]
    if len(set(ps)) != len(ps):
        raise ValueError("phi indices must be distinct")
    if any(p not in (1, 2, 3) for p in ps):
        raise ValueError("phi indices must lie in 1..3")
    if backend not in ("krylov", "leja"):
        raise ValueError(f"unknown backend {backend!r}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _phi_engine(applyJ, tau, terms, tol, bounds, backend, m_max, points, single=False)
