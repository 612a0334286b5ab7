"""Action of exponential and phi functions on vectors.

Two evaluators are provided: a Krylov subspace method (Arnoldi with modified
Gram-Schmidt and one full reorthogonalization pass; the result coefficients
and the residual estimate come from one expm of the column-augmented
Hessenberg matrix) and Leja interpolation (real Leja points on [-2, 2],
scaled and shifted to the Gershgorin interval of the operator, Newton form
with divided differences computed via the matrix method on a bidiagonal
node matrix, phi_p through p leading zero nodes, for a leading block of
points that doubles only when the evaluation runs past it).

Both evaluators fall back to uniform substepping when a single evaluation
does not converge within its budget: the substep count doubles on each
failure up to a cap of 1024.  Substepped evaluations of phi_p with p >= 1
are chained as exponential actions of the augmented operator

    [[A, W], [0, K]]

whose top block, applied to a padded start vector, yields
sum_p tau^p phi_p(tau A) w_p.  The same construction evaluates the
phi-linear-combination needed by the fourth-order integrator in a single
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SpectralBounds,
    copy_vector,
    dense_expm,
    dot,
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
    pass


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
    """Arnoldi basis and Hessenberg matrix after m completed steps."""

    V: list
    H: np.ndarray
    beta: float
    m: int
    m_max: int = DEFAULT_M_MAX
    invariant: bool = False


def arnoldi_start(v, m_max: int = DEFAULT_M_MAX) -> KrylovState:
    beta = norm2(v)
    if beta == 0.0:
        raise ValueError("cannot start Arnoldi from the zero vector")
    return KrylovState(
        V=[scale(1.0 / beta, v)],
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
    """
    if state.invariant:
        raise SubspaceCapError("subspace is invariant, cannot extend")
    if state.m >= state.m_max:
        raise SubspaceCapError(f"Krylov dimension cap {state.m_max} reached")
    j = state.m
    w = applyA(state.V[j])
    for _pass in range(2):
        for i in range(j + 1):
            hij = dot(state.V[i], w)
            state.H[i, j] += hij
            w = lincomb([1.0, -hij], [w, state.V[i]])
    hnext = norm2(w)
    state.H[j + 1, j] = hnext
    if hnext <= _BREAKDOWN_FACTOR * state.beta:
        state.invariant = True
    else:
        state.V.append(scale(1.0 / hnext, w))
    state.m = j + 1
    return state


class _CountingApply:
    """Wraps an operator action and counts how often it is applied."""

    def __init__(self, applyA):
        self._apply = applyA
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self._apply(x)


def hessenberg_phi_e1(Hm, q: int) -> np.ndarray:
    """Columns exp(Hm) e_1, phi_1(Hm) e_1, ..., phi_q(Hm) e_1 (q >= 1) from one
    expm of [[Hm, e_1, 0], [0, 0, I_{q-1}], [0, 0, 0]] (Saad 1992; Sidje 1998):
    column 0 of its top block is exp(Hm) e_1, column m+k-1 is phi_k(Hm) e_1."""
    m = Hm.shape[0]
    aug = np.zeros((m + q, m + q))
    aug[:m, :m] = Hm
    aug[0, m] = 1.0
    aug[m : m + q - 1, m + 1 :] = np.eye(q - 1)
    return dense_expm(aug)[:m, np.r_[0, m : m + q]]


def krylov_phi_action(applyA, req: PhiActionRequest, m_max: int = DEFAULT_M_MAX) -> PhiActionResult:
    """y ~ phi_p(tau A) v by Arnoldi iteration.

    Terminates on the generalized residual estimate
    err_m = beta * tau * h_{m+1,m} * |e_m^T phi_q(tau H_m) e_1| <= tol with
    q = max(p, 1), checked after every extension.  Falls back to substepped,
    chained evaluation when the dimension cap is hit.
    """
    applyA = _CountingApply(applyA)
    vnorm = float(np.linalg.norm(req.v))
    if vnorm == 0.0:
        return PhiActionResult(np.zeros_like(np.asarray(req.v, dtype=float)), 0, 1, True, 0.0)
    state = arnoldi_start(req.v, m_max=m_max)
    beta = state.beta
    q = max(req.p, 1)
    while True:
        arnoldi_extend(applyA, state)
        m = state.m
        cols = hessenberg_phi_e1(req.tau * state.H[:m, :m], q)
        if state.invariant:
            err = 0.0
        else:
            err = beta * req.tau * abs(state.H[m, m - 1]) * abs(cols[m - 1, q])
        if err <= req.tol or state.invariant:
            y = lincomb(list(beta * cols[:, req.p]), state.V[:m])
            return PhiActionResult(y, applyA.calls, 1, True, err)
        if state.m >= m_max:
            break
    return _phi_action_substepped(applyA, req, backend="krylov", m_max=m_max, start_substeps=2)


# ---------------------------------------------------------------------------
# Leja points and divided differences


@dataclass(frozen=True)
class LejaSequence:
    points: tuple

    @property
    def count(self) -> int:
        return len(self.points)


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


def save_leja_points(seq: LejaSequence, path) -> None:
    """Persist the sequence as plain text, one point per line, 17 digits."""
    with open(path, "w") as fh:
        for p in seq.points:
            fh.write(f"{p:.17g}\n")


def load_leja_points(path) -> LejaSequence:
    with open(path) as fh:
        return LejaSequence(points=tuple(float(line) for line in fh if line.strip()))


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
    diverge.  Returns (y, terms_used, last_estimate).

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
        r = lincomb([1.0 / gamma, -shift / gamma], [applyA(r), r])
        y = lincomb([1.0, dd[j]], [y, r])
        rnorm = norm2(r)
        est = abs(dd[j]) * rnorm
        if not math.isfinite(est) or rnorm > guard:
            raise _NotConverged("Leja term diverged")
        small = est <= tol_abs
        if small and prev_small and j >= 2:
            return y, j, est
        prev_small = small
    raise _NotConverged("Leja point budget exhausted")


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
    if req.bounds is None:
        raise ValueError("leja_phi_action requires spectral bounds")
    applyA = _CountingApply(applyA)
    v = np.asarray(req.v, dtype=float)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return PhiActionResult(np.zeros_like(v), 0, 1, True, 0.0)
    seq = points if points is not None else default_leja_sequence()
    c, gamma = _leja_interval(req.bounds)
    try:
        y, used, est = _leja_newton(
            applyA, v, req.tau, req.tol, req.p, c, gamma, seq.points
        )
        return PhiActionResult(y, applyA.calls, 1, True, est)
    except _NotConverged:
        pass
    return _phi_action_substepped(
        applyA, req, backend="leja", points=seq, start_substeps=2
    )


# ---------------------------------------------------------------------------
# augmented operator and substepped evaluation


class _AugmentedOperator:
    """Action of [[A, W], [0, K]] with K the q x q upper-shift nilpotent.

    exp(tau Aug) applied to [0; e_q] has sum_j tau^j phi_j(tau A) w_j in
    its top block, with w_j stored in column q - j of W.
    """

    def __init__(self, applyA, dim, columns):
        self.applyA = applyA
        self.dim = dim
        self.q = len(columns)
        self.columns = [np.asarray(w, dtype=float) for w in columns]

    def start_vector(self) -> np.ndarray:
        x = np.zeros(self.dim + self.q)
        x[-1] = 1.0
        return x

    def __call__(self, x):
        top = self.applyA(x[: self.dim])
        if self.q:
            top = lincomb(
                [1.0] + [x[self.dim + i] for i in range(self.q)],
                [top] + self.columns,
            )
        bot = np.zeros(self.q)
        if self.q > 1:
            bot[:-1] = x[self.dim + 1 :]
        return np.concatenate([top, bot])

    def inflated_bounds(self, bounds: SpectralBounds) -> SpectralBounds:
        """Gershgorin bounds of the augmented operator from those of A."""
        if self.q == 0:
            return bounds
        W = np.column_stack(self.columns)
        extra = float(np.max(np.sum(np.abs(W), axis=1)))
        return SpectralBounds(
            real_min=min(bounds.real_min - extra, -1.0),
            real_max=max(bounds.real_max + extra, 1.0),
            imag_halfwidth=max(bounds.imag_halfwidth + extra, 1.0),
        )


def _augmented_for_terms(applyA, dim, terms):
    """Augmented operator packing (p, w) terms; columns[c] holds w_{q-c}."""
    q = max(p for p, _w in terms)
    by_p = {p: np.asarray(w, dtype=float) for p, w in terms}
    columns = [by_p.get(q - c, np.zeros(dim)) for c in range(q)]
    return _AugmentedOperator(applyA, dim, columns)


def _krylov_expv(applyA, x, t, tol_abs, m_max):
    """exp(t A) x by Arnoldi; raises _NotConverged at the dimension cap."""
    beta = float(np.linalg.norm(x))
    if beta == 0.0:
        return x.copy(), 0.0
    state = arnoldi_start(x, m_max=m_max)
    while True:
        arnoldi_extend(applyA, state)
        m = state.m
        cols = hessenberg_phi_e1(t * state.H[:m, :m], 1)
        if state.invariant:
            err = 0.0
        else:
            err = beta * t * abs(state.H[m, m - 1]) * abs(cols[m - 1, 1])
        if err <= tol_abs or state.invariant:
            return lincomb(list(beta * cols[:, 0]), state.V[:m]), err
        if state.m >= m_max:
            raise _NotConverged("Krylov dimension cap reached")


def _chained_exp(apply_op, x0, tau, substeps, tol_abs, backend, m_max, points, bounds):
    """exp(tau Op) x0 via ``substeps`` equal exponential substeps."""
    delta = tau / substeps
    tol_sub = tol_abs / substeps
    y = x0
    last_est = 0.0
    if backend == "leja":
        c, gamma = _leja_interval(bounds)
    for _k in range(substeps):
        if backend == "krylov":
            y, last_est = _krylov_expv(apply_op, y, delta, tol_sub, m_max)
        else:
            y, _used, last_est = _leja_newton(
                apply_op, y, delta, tol_sub, 0, c, gamma, points.points
            )
    return y, last_est


def _phi_action_substepped(
    applyA,
    req: PhiActionRequest,
    backend: str,
    m_max: int = DEFAULT_M_MAX,
    points: LejaSequence | None = None,
    start_substeps: int = 2,
):
    """Substepped fallback for a single phi_p action (chained exp actions)."""
    if not isinstance(applyA, _CountingApply):
        applyA = _CountingApply(applyA)
    v = np.asarray(req.v, dtype=float)
    vnorm = float(np.linalg.norm(v))
    dim = v.size
    if req.p == 0:
        op = applyA
        x0 = copy_vector(v)
        bounds = req.bounds
    else:
        op = _augmented_for_terms(applyA, dim, [(req.p, v)])
        x0 = op.start_vector()
        bounds = op.inflated_bounds(req.bounds) if req.bounds is not None else None
    if backend == "leja" and points is None:
        points = default_leja_sequence()
    # the final tau**-p rescaling amplifies absolute errors; tighten the
    # chained tolerance to compensate when tau < 1
    tol_abs = req.tol * min(req.tau, 1.0) ** req.p
    s = start_substeps
    while s <= SUBSTEP_CAP:
        try:
            y, est = _chained_exp(
                op, x0, req.tau, s, tol_abs, backend, m_max, points, bounds
            )
            top = y[:dim]
            if req.p > 0:
                top = scale(req.tau ** (-req.p), top)
            return PhiActionResult(top, applyA.calls, s, True, est)
        except _NotConverged:
            s *= 2
    return PhiActionResult(
        np.full(dim, np.nan), applyA.calls, SUBSTEP_CAP, False, math.inf
    )


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
    applyJ = _CountingApply(applyJ)
    dim = np.asarray(terms[0][1]).size
    wnorm = max(float(np.linalg.norm(np.asarray(w))) for _p, w in terms)
    if wnorm == 0.0:
        return PhiActionResult(np.zeros(dim), 0, 1, True, 0.0)
    op = _augmented_for_terms(applyJ, dim, terms)
    x0 = op.start_vector()
    if backend == "leja":
        if bounds is None:
            raise ValueError("leja backend requires spectral bounds")
        aug_bounds = op.inflated_bounds(bounds)
        if points is None:
            points = default_leja_sequence()
    else:
        aug_bounds = bounds
    s = 1
    while s <= SUBSTEP_CAP:
        try:
            y, est = _chained_exp(
                op, x0, tau, s, tol, backend, m_max, points, aug_bounds
            )
            return PhiActionResult(y[:dim], applyJ.calls, s, True, est)
        except _NotConverged:
            s = 2 if s == 1 else s * 2
    return PhiActionResult(
        np.full(dim, np.nan), applyJ.calls, SUBSTEP_CAP, False, math.inf
    )
