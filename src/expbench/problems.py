"""Concrete test problems.

* 1D variable-coefficient advection-diffusion with homogeneous Dirichlet
  boundary conditions (linear, state-independent Jacobian).
* 2D compressible isothermal Navier-Stokes on a periodic grid, with the
  right-hand side and matrix-free Jacobian action written in terms of
  per-axis central stencils and component-wise products.  The stencils
  take the periodic neighbours from slices of the field, not from shifted
  copies, in the floating-point order of the shifted-copy formulas.

Both expose the interface the integrators expect: ``rhs``, ``linearize``,
``jac_action``, ``spectral_bounds``, ``dimension``, ``cost_table``.
``linearize(u)`` returns the Jacobian action ``w -> J(u) w`` frozen at
``u``, so its state-dependent terms are computed once per step; each call
of the action records one counted Jacobian event and ``jac_action(u, w)``
is ``linearize(u)(w)``.
"""

from __future__ import annotations

import math

import numpy as np

from .counting import ADVDIFF_1D, NAVIER_STOKES_2D, CostTable, record
from .linalg import (
    SpectralBounds,
    StencilOperator1D,
    apply_operator,
    build_advdiff_operator,
    gershgorin_bounds,
)


class NonPositiveDensityError(RuntimeError):
    """Density lost positivity; the run is unstable and must be reported."""


# ---------------------------------------------------------------------------
# 1D advection-diffusion


def advdiff_kappa(profile):
    """Diffusion-coefficient function for a named profile.

    ``("const", c)`` gives kappa = c; ``"mixed"`` gives the tanh profile
    33/5120 + 31/5120 * tanh(20 x - 16), spanning the advection-dominated
    value 1/2560 to the diffusion-dominated value 1/80.
    """
    if profile == "mixed":
        return lambda x: 33.0 / 5120.0 + 31.0 / 5120.0 * math.tanh(20.0 * x - 16.0)
    if isinstance(profile, tuple) and len(profile) == 2 and profile[0] == "const":
        c = float(profile[1])
        return lambda x: c
    raise ValueError(f"unknown kappa profile {profile!r}")


class AdvDiffProblem:
    """u_t = kappa(x) u_xx - u_x on (0,1), Dirichlet, u0 = x(1-x)."""

    cost_table_id = ADVDIFF_1D

    def __init__(self, n: int, kappa_fn):
        self.n = n
        self.operator: StencilOperator1D = build_advdiff_operator(n, kappa_fn)
        self.h = self.operator.h
        x = (np.arange(n) + 1) * self.h
        self._u0 = x * (1.0 - x)
        self._bounds = gershgorin_bounds(self.operator)

    @property
    def dimension(self) -> int:
        return self.n

    def initial_state(self) -> np.ndarray:
        return self._u0.copy()

    def rhs(self, u) -> np.ndarray:
        return apply_operator(self.operator, u)

    def linearize(self, u=None):
        """The Jacobian action w -> A w; A does not depend on the state."""
        return lambda w: apply_operator(self.operator, w)

    def jac_action(self, u, w) -> np.ndarray:
        return self.linearize(u)(w)

    def spectral_bounds(self, u=None) -> SpectralBounds:
        return self._bounds

    def cost_table(self) -> CostTable:
        return CostTable(ADVDIFF_1D, self.n)


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


def ns_linearize(state, n: int, nu: float):
    """The Jacobian action w -> J(U) w, frozen at ``state``.

    The state-dependent terms (the gradients of rho, u and v, and rho^2)
    are computed once here; each call of the returned action records one
    counted jacvec event (21N), linearizing records none.
    """
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

    return apply


def ns_jacobian_action(state, w, n: int, nu: float) -> np.ndarray:
    """J(U) [w1, w2, w3]^T, matrix-free; one counted jacvec event (21N)."""
    return ns_linearize(state, n, nu)(w)


def ns_spectral_bounds(state, n: int, nu: float) -> SpectralBounds:
    """Gershgorin bounding box of the Jacobian at ``state``.

    Assembled per grid point from the block-row stencil coefficients,
    taking absolute row sums across all three blocks.
    """
    rho, u, v = _split(state, n)
    h = 1.0 / n
    inv2h = 1.0 / (2.0 * h)
    nu4h2 = 4.0 * nu / h**2

    au, av, arho = np.abs(u), np.abs(v), np.abs(rho)
    d1 = np.zeros_like(rho)
    r1 = (
        _pair_x(np.add, au) + _pair_y(np.add, av) + _pair_x(np.add, arho) + _pair_y(np.add, arho)
    ) * inv2h
    d2 = -_dx(u, h) - nu4h2
    r2 = (
        np.abs(_dx(rho, h)) / rho**2
        + 1.0 / (rho * h)
        + au / h
        + av / h
        + np.abs(_dy(u, h))
        + nu4h2
    )
    d3 = -_dy(v, h) - nu4h2
    r3 = (
        np.abs(_dy(rho, h)) / rho**2
        + 1.0 / (rho * h)
        + av / h
        + au / h
        + np.abs(_dx(v, h))
        + nu4h2
    )
    d = np.concatenate([d1.ravel(), d2.ravel(), d3.ravel()])
    r = np.concatenate([r1.ravel(), r2.ravel(), r3.ravel()])
    return SpectralBounds(
        real_min=float(np.min(d - r)),
        real_max=float(np.max(d + r)),
        imag_halfwidth=float(np.max(r)),
    )


def shear_flow_init(n: int, v0: float = 0.1, d: float = 1.0 / 30.0, delta: float = 5e-3) -> np.ndarray:
    """Shear-flow initial data: rho = 1, tanh velocity layer, sine perturbation."""
    if n < 4:
        raise ValueError("need at least 4 grid points per axis")
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


def vorticity(state, n: int) -> np.ndarray:
    """omega = dv/dx - du/dy on the grid, with the same central stencils."""
    _rho, u, v = _split(state, n)
    h = 1.0 / n
    return _dx(v, h) - _dy(u, h)


class NavierStokesProblem:
    """2D compressible isothermal Navier-Stokes, periodic, state length 3 n^2."""

    cost_table_id = NAVIER_STOKES_2D

    def __init__(self, n: int, nu: float):
        if n < 4:
            raise ValueError("need at least 4 grid points per axis")
        self.n = n
        self.N = n * n
        self.h = 1.0 / n
        self.nu = float(nu)

    @property
    def dimension(self) -> int:
        return 3 * self.N

    def initial_state(self) -> np.ndarray:
        return shear_flow_init(self.n)

    def rhs(self, state) -> np.ndarray:
        return ns_rhs(state, self.n, self.nu)

    def linearize(self, state):
        return ns_linearize(state, self.n, self.nu)

    def jac_action(self, state, w) -> np.ndarray:
        return self.linearize(state)(w)

    def spectral_bounds(self, state) -> SpectralBounds:
        return ns_spectral_bounds(state, self.n, self.nu)

    def cost_table(self) -> CostTable:
        return CostTable(NAVIER_STOKES_2D, self.N)

    def fields(self, state):
        """(rho, u, v, omega) as n x n grids."""
        rho, u, v = _split(state, self.n)
        return rho, u, v, vorticity(state, self.n)
