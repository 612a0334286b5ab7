"""Concrete test problems.

* 1D variable-coefficient advection-diffusion with homogeneous Dirichlet
  boundary conditions (linear, state-independent Jacobian).
* 2D compressible isothermal Navier-Stokes on a periodic grid, with the
  right-hand side and matrix-free Jacobian action written in terms of
  per-axis central stencils and component-wise products.  The stencils
  take the periodic neighbours from slices of the field, not from shifted
  copies, in the floating-point order of the shifted-copy formulas.

Each problem is one class, ``AdvDiffProblem`` and ``NavierStokesProblem``,
exposing the interface the integrators expect: ``rhs``, ``linearize``,
``initial_state``, ``dimension`` and ``operator_costs``, the cost per
call of each operator primitive in units of ``dimension``.  The kernels
that ``perfbench`` traces by name stay module-level: ``ns_rhs`` here and
``linalg.apply_operator``, which the two ``rhs`` methods call.
``linearize(u)`` returns a ``linalg.Linearization``: calling it applies
the Jacobian frozen at ``u`` (one counted Jacobian event per call, its
state-dependent terms computed once), and its ``bounds`` are the
Gershgorin box of that Jacobian, computed on first access and never
counted.
"""

from __future__ import annotations

import math

import numpy as np

from .counting import record
from .linalg import Linearization, apply_operator, gershgorin_bounds


class NonPositiveDensityError(RuntimeError):
    """Density lost positivity; the run is unstable and must be reported."""


# ---------------------------------------------------------------------------
# 1D advection-diffusion


class AdvDiffProblem:
    """u_t = kappa(x) u_xx - u_x on (0,1), Dirichlet, u0 = x(1-x).

    ``kappa`` is a profile: ``("const", c)`` gives kappa = c; ``"mixed"``
    gives the tanh profile 33/5120 + 31/5120 * tanh(20 x - 16), spanning the
    advection-dominated value 1/2560 to the diffusion-dominated value 1/80.
    On n interior points with h = 1/(n+1), row i of the tridiagonal operator
    has the sub-diagonal kappa_i/h^2 + 1/(2h), the diagonal -2 kappa_i/h^2
    and the super-diagonal kappa_i/h^2 - 1/(2h).  ``lower`` holds the
    sub-diagonals of rows 1..n-1 and ``upper`` the super-diagonals of rows
    0..n-2, n - 1 entries each (boundary values vanish).
    """

    # A stencil product costs 2n.
    operator_costs = {"matvec": 2}

    def __init__(self, n: int, kappa):
        if n < 1:
            raise ValueError("need at least one interior grid point")
        self.n = n
        h = 1.0 / (n + 1)
        x = (np.arange(n) + 1) * h
        # math.tanh point by point: np.tanh may differ in the last ulp
        if kappa == "mixed":
            k = np.array([33.0 / 5120.0 + 31.0 / 5120.0 * math.tanh(20.0 * xi - 16.0) for xi in x])
        elif isinstance(kappa, tuple) and len(kappa) == 2 and kappa[0] == "const":
            k = np.full(n, float(kappa[1]))
        else:
            raise ValueError(f"unknown kappa profile {kappa!r}")
        if not np.all(np.isfinite(k) & (k > 0.0)):
            raise ValueError("diffusion coefficient must be finite and positive on the grid")
        c = k / h**2
        a = 1.0 / (2.0 * h)
        self.lower, self.diag, self.upper = (c + a)[1:], -2.0 * c, (c - a)[:-1]
        self._u0 = x * (1.0 - x)
        self._jacobian = Linearization(self.rhs, self._gershgorin)

    def _gershgorin(self):
        r = np.zeros(self.n)
        r[:-1] += np.abs(self.upper)
        r[1:] += np.abs(self.lower)
        return gershgorin_bounds(self.diag, r)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.lower, -1) + np.diag(self.diag) + np.diag(self.upper, 1)

    @property
    def dimension(self) -> int:
        return self.n

    def initial_state(self) -> np.ndarray:
        return self._u0.copy()

    def rhs(self, u) -> np.ndarray:
        return apply_operator(self.lower, self.diag, self.upper, u)

    def linearize(self, u=None) -> Linearization:
        """w -> A w with its bounds; A does not depend on the state."""
        return self._jacobian


# ---------------------------------------------------------------------------
# 2D periodic stencils
#
# Fields are n x n arrays in row-major order, index [iy, ix]; the flattened
# vector index is iy * n + ix.  With this convention (I (x) B_h) applies the
# 1D stencil along x (the fast axis) and (B_h (x) I) along y.


def _pair_x(op, f):
    """op(f[:, j+1], f[:, j-1]) at every j, periodic along x (axis 1).

    The interior comes from the flattened field; its entries at j = 0 and
    j = n-1 pair values of neighbouring rows and are overwritten by the
    wrapped columns.
    """
    out = np.empty(f.shape)
    flat, out_flat = f.reshape(-1), out.reshape(-1)
    op(flat[2:], flat[:-2], out=out_flat[1:-1])
    op(f[:, 1], f[:, -1], out=out[:, 0])
    op(f[:, 0], f[:, -2], out=out[:, -1])
    return out


def _pair_y(op, f):
    """op(f[i+1], f[i-1]) at every i, periodic along y (axis 0)."""
    out = np.empty(f.shape)
    op(f[2:], f[:-2], out=out[1:-1])
    op(f[1], f[-1], out=out[0])
    op(f[0], f[-2], out=out[-1])
    return out


def _dx(f, h):
    out = _pair_x(np.subtract, f)
    out /= 2.0 * h
    return out


def _dy(f, h):
    out = _pair_y(np.subtract, f)
    out /= 2.0 * h
    return out


def _lap(f, h):
    """(f[:, j+1] + f[:, j-1] + f[i+1] + f[i-1] - 4 f) / h^2, summed left to right."""
    out = _pair_x(np.add, f)
    out[:-1] += f[1:]
    out[-1] += f[0]
    out[1:] += f[:-1]
    out[0] += f[-1]
    out -= 4.0 * f
    out /= h**2
    return out


def _split(state, n):
    state = np.asarray(state, dtype=float)
    N = n * n
    if state.shape != (3 * N,):
        raise ValueError(f"expected state of length {3 * N}, got {state.shape}")
    rho = state[:N].reshape(n, n)
    u = state[N : 2 * N].reshape(n, n)
    v = state[2 * N :].reshape(n, n)
    return rho, u, v


def _join(f1, f2, f3):
    return np.concatenate([f1.ravel(), f2.ravel(), f3.ravel()])


def ns_rhs(state, n: int, nu: float) -> np.ndarray:
    """F(U) for the isothermal Navier-Stokes system; one counted rhs event."""
    rho, u, v = _split(state, n)
    if np.min(rho) <= 0.0:
        raise NonPositiveDensityError("density is not positive")
    record("rhs")
    h = 1.0 / n
    f1 = -_dx(rho * u, h) - _dy(rho * v, h)
    f2 = (
        -u * _dx(u, h)
        - v * _dy(u, h)
        - _dx(rho, h) / rho
        + nu * _lap(u, h)
    )
    f3 = (
        -u * _dx(v, h)
        - v * _dy(v, h)
        - _dy(rho, h) / rho
        + nu * _lap(v, h)
    )
    return _join(f1, f2, f3)


class NavierStokesProblem:
    """2D compressible isothermal Navier-Stokes, periodic, state length 3 n^2."""

    # A Jacobian action costs 21N, a right-hand side 12N.
    operator_costs = {"jacvec": 7, "rhs": 4}

    def __init__(self, n: int, nu: float):
        if n < 4:
            raise ValueError("need at least 4 grid points per axis")
        if not (math.isfinite(nu) and nu >= 0):
            raise ValueError("viscosity nu must be finite and non-negative")
        self.n = n
        self.N = n * n
        self.nu = float(nu)

    @property
    def dimension(self) -> int:
        return 3 * self.N

    def initial_state(self) -> np.ndarray:
        """Shear-flow initial data: rho = 1, tanh velocity layer, sine perturbation."""
        n = self.n
        v0, d, delta = 0.1, 1.0 / 30.0, 5e-3  # layer speed, layer width, perturbation
        h = 1.0 / n
        x = np.arange(n) * h
        y = np.arange(n) * h
        X, Y = np.meshgrid(x, y)  # X varies along axis 1, Y along axis 0
        rho = np.ones((n, n))
        u = np.where(
            Y <= 0.5,
            v0 * np.tanh((Y - 0.25) / d),
            v0 * np.tanh((0.75 - Y) / d),
        )
        v = delta * np.sin(2.0 * np.pi * X)
        return _join(rho, u, v)

    def rhs(self, state) -> np.ndarray:
        return ns_rhs(state, self.n, self.nu)

    def linearize(self, state) -> Linearization:
        """The Jacobian J(U) frozen at ``state``, as a ``Linearization``.

        The state-dependent terms (the gradients of rho, u and v, and rho^2)
        are computed once here; each apply records one counted jacvec event
        (21N), linearizing records none.  The Gershgorin bounds reuse the
        same terms, assembled per grid point from the block-row stencil
        coefficients as absolute row sums across all three blocks.
        """
        n, nu = self.n, self.nu
        # a copy, so the action stays frozen if the caller reuses its array
        rho, u, v = _split(np.array(state, dtype=float), n)
        if np.min(rho) <= 0.0:
            raise NonPositiveDensityError("density is not positive")
        h = 1.0 / n
        dxr, dyr = _dx(rho, h), _dy(rho, h)
        dxu, dyu = _dx(u, h), _dy(u, h)
        dxv, dyv = _dx(v, h), _dy(v, h)
        rho2 = rho**2

        def apply(w):
            w1, w2, w3 = _split(w, n)
            record("jacvec")
            r1 = (
                -_dx(u * w1, h)
                - _dy(v * w1, h)
                - _dx(rho * w2, h)
                - _dy(rho * w3, h)
            )
            r2 = (
                w1 * dxr / rho2
                - _dx(w1, h) / rho
                - w2 * dxu
                - u * _dx(w2, h)
                - v * _dy(w2, h)
                + nu * _lap(w2, h)
                - w3 * dyu
            )
            r3 = (
                w1 * dyr / rho2
                - _dy(w1, h) / rho
                - w2 * dxv
                - u * _dx(w3, h)
                - w3 * dyv
                - v * _dy(w3, h)
                + nu * _lap(w3, h)
            )
            return _join(r1, r2, r3)

        def bounds():
            inv2h = 1.0 / (2.0 * h)
            nu4h2 = 4.0 * nu / h**2
            au, av, arho = np.abs(u), np.abs(v), np.abs(rho)
            d1 = np.zeros_like(rho)
            r1 = (
                _pair_x(np.add, au) + _pair_y(np.add, av) + _pair_x(np.add, arho) + _pair_y(np.add, arho)
            ) * inv2h
            irh, auh, avh = 1.0 / (rho * h), au / h, av / h
            d2 = -dxu - nu4h2
            r2 = np.abs(dxr) / rho2 + irh + auh + avh + np.abs(dyu) + nu4h2
            d3 = -dyv - nu4h2
            r3 = np.abs(dyr) / rho2 + irh + avh + auh + np.abs(dxv) + nu4h2
            return gershgorin_bounds(_join(d1, d2, d3), _join(r1, r2, r3))

        return Linearization(apply, bounds)

    def fields(self, state):
        """(rho, u, v, omega) as n x n grids, omega = dv/dx - du/dy with the
        same central stencils."""
        rho, u, v = _split(state, self.n)
        h = 1.0 / self.n
        return rho, u, v, _dx(v, h) - _dy(u, h)
