"""Concrete test problems.

* 1D variable-coefficient advection-diffusion with homogeneous Dirichlet
  boundary conditions (linear, state-independent Jacobian).
* 2D compressible isothermal Navier-Stokes on a periodic grid, with the
  right-hand side and matrix-free Jacobian action written in terms of
  per-axis central stencils and component-wise products.  The stencils
  take the periodic neighbours from slices of the field, not from shifted
  copies, in the floating-point order of the shifted-copy formulas.  They
  act on stacks of fields: a state vector is viewed, without a copy, as
  the stack (rho, u, v) of shape (3, n, n), and one set of ufunc calls per
  axis serves every field of a stack.

Each problem is one class, ``AdvDiffProblem`` and ``NavierStokesProblem``,
exposing the interface the integrators expect: ``rhs``, ``linearize``,
``initial_state``, ``dimension`` and ``operator_costs``, the cost per
call of each operator primitive in units of ``dimension``.  The kernels
that ``perfbench`` traces by name stay module-level: ``ns_rhs`` here and
``linalg.apply_operator``, which the two ``rhs`` methods call.
``linearize(u)`` returns a ``linalg.Linearization``: calling it applies
the Jacobian frozen at ``u`` (one counted Jacobian event per call, its
state-dependent terms computed once), and its ``bounds`` are the real
extent of that Jacobian's Gershgorin discs, computed on first access and
never counted.

``ns_rhs`` and the applies of a frozen Navier-Stokes Jacobian write their
intermediate stacks into scratch arrays that each thread keeps per grid
size and reuses across calls, so threads never share them; a
linearization owns only its frozen state terms.  Every array the kernels
return is freshly allocated, never a view of scratch, so a caller may
keep it across later calls.
"""

from __future__ import annotations

import math
import threading

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
# 1D stencil along x (the fast axis) and (B_h (x) I) along y.  A state is
# the stack (rho, u, v) of shape (3, n, n), a view of the state vector.
# Each helper takes a stack of fields of shape (..., n, n), so one set of
# ufunc calls serves all of them, and writes into ``out``, an array of that
# shape; the x stencil writes through a flat view, so its ``out`` must be
# C-contiguous.


def _pair_x(op, f, out):
    """op(f[..., j+1], f[..., j-1]) at every j, periodic along x (last axis).

    The interior comes from the flattened stack; its entries at j = 0 and
    j = n-1 pair values of neighbouring rows (or fields) and are
    overwritten by the wrapped columns.
    """
    flat, out_flat = f.reshape(-1), out.reshape(-1, copy=False)
    op(flat[2:], flat[:-2], out=out_flat[1:-1])
    op(f[..., 1], f[..., -1], out=out[..., 0])
    op(f[..., 0], f[..., -2], out=out[..., -1])
    return out


def _pair_y(op, f, out):
    """op(f[..., i+1, :], f[..., i-1, :]) at every i, periodic along y.

    One call takes both wrapped rows: rows (0, n-1) pair rows (1, 0) with
    rows (n-1, n-2).
    """
    n = f.shape[-2]
    op(f[..., 2:, :], f[..., :-2, :], out=out[..., 1:-1, :])
    op(f[..., 1::-1, :], f[..., :-3:-1, :], out=out[..., :: n - 1, :])
    return out


def _dxdy(fx, fy, h, out):
    """Central differences: d/dx of ``fx`` into out[0] and d/dy of ``fy``
    into out[1], with one division for both.  Passing -h gives the
    negated derivatives, exactly."""
    _pair_x(np.subtract, fx, out[0])
    _pair_y(np.subtract, fy, out[1])
    out /= 2.0 * h
    return out


def _lap(f, h, out, tmp):
    """(f[j+1] + f[j-1] + f[i+1] + f[i-1] - 4 f) / h^2, summed left to right;
    ``tmp`` is scratch of f's shape.

    Rows 0 and n-1 take their wrapped neighbour in one call, f[n-1] as the
    fourth term of row 0 and f[0] as the third of row n-1, between the
    interior third and fourth terms.
    """
    n = f.shape[-2]
    _pair_x(np.add, f, out)
    out[..., :-1, :] += f[..., 1:, :]
    out[..., :: n - 1, :] += f[..., :: -(n - 1), :]
    out[..., 1:, :] += f[..., :-1, :]
    out -= np.multiply(4.0, f, out=tmp)
    out /= h**2
    return out


def _stack(state, n):
    """``state`` as the stack (rho, u, v) of shape (3, n, n)."""
    state = np.asarray(state, dtype=float)
    if state.shape != (3 * n * n,):
        raise ValueError(f"expected state of length {3 * n * n}, got {state.shape}")
    return state.reshape(3, n, n)


class _Scratch(threading.local):
    """Each thread's scratch arrays of the Navier-Stokes kernels, by grid
    size: a (6, n, n) stack, room for a gradient of three fields, and a
    (2, n, n) stack.

    ``ns_rhs`` and every frozen-Jacobian apply on a thread share them;
    neither kernel calls the other, so no call finds them in use.
    """

    def __init__(self):
        self.by_n = {}

    def get(self, n):
        s = self.by_n.get(n)
        if s is None:
            s = self.by_n[n] = (np.empty((6, n, n)), np.empty((2, n, n)))
        return s


_scratch = _Scratch()


def ns_rhs(state, n: int, nu: float) -> np.ndarray:
    """F(U) for the isothermal Navier-Stokes system; one counted rhs event."""
    s = _stack(state, n)
    rho, u, v = s
    if rho.min() <= 0.0:
        raise NonPositiveDensityError("density is not positive")
    record("rhs")
    h = 1.0 / n
    g, t = _scratch.get(n)
    out = np.empty(3 * n * n)
    f = out.reshape(3, n, n)
    # f1 = -dx(rho u) - dy(rho v), as the sum of the negated derivatives
    flux = np.multiply(rho, s[1:], out=t)  # rho [u, v]
    neg = _dxdy(flux[0], flux[1], -h, g[:2])
    np.add(neg[0], neg[1], out=f[0])
    # [f2, f3] = -u [dx u, dx v] - v [dy u, dy v] - [dx rho, dy rho] / rho + nu lap [u, v]
    grad = _dxdy(s, s, h, g.reshape(2, 3, n, n))  # [dx, dy] of (rho, u, v)
    np.multiply(np.negative(u, out=t[0]), grad[0, 1:], out=f[1:])
    f[1:] -= np.multiply(v, grad[1, 1:], out=t)
    f[1:] -= np.divide(grad[:, 0], rho, out=t)
    lap = _lap(s[1:], h, g[:2], t)
    lap *= nu
    f[1:] += lap
    return out


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
        s = np.empty((3, n, n))
        s[0] = 1.0
        s[1] = np.where(
            Y <= 0.5,
            v0 * np.tanh((Y - 0.25) / d),
            v0 * np.tanh((0.75 - Y) / d),
        )
        s[2] = delta * np.sin(2.0 * np.pi * X)
        return s.reshape(-1)

    def rhs(self, state) -> np.ndarray:
        return ns_rhs(state, self.n, self.nu)

    def linearize(self, state) -> Linearization:
        """The Jacobian J(U) frozen at ``state``, as a ``Linearization``.

        The state-dependent terms (the gradients of rho, u and v, and rho^2)
        are computed once here; each apply records one counted jacvec event
        (21N), linearizing records none.  Each apply works in its thread's
        scratch arrays and returns a fresh array.  The Gershgorin bounds
        reuse the same terms, assembled per grid point from the block-row
        stencil coefficients as absolute row sums across all three blocks.
        """
        n, nu = self.n, self.nu
        # a copy, so the action stays frozen if the caller reuses its array
        s = _stack(np.array(state, dtype=float), n)
        rho, u, v = s
        if rho.min() <= 0.0:
            raise NonPositiveDensityError("density is not positive")
        h = 1.0 / n
        grad = _dxdy(s, s, h, np.empty((2, 3, n, n)))  # [dx, dy] of (rho, u, v)
        rho2 = rho**2
        u_rho, v_rho = s[1::-1], s[::-2]  # [u, rho], [v, rho]
        drho, dx_uv, dy_uv = grad[:, 0], grad[0, 1:], grad[1, 1:]

        def apply(w):
            ws = _stack(w, n)
            w1, w2, w3 = ws
            record("jacvec")
            g, t = _scratch.get(n)
            out = np.empty(3 * n * n)
            r = out.reshape(3, n, n)
            # r1 = -dx(u w1) - dy(v w1) - dx(rho w2) - dy(rho w3), as the sum
            # of the negated derivatives, with g as scratch
            fx = np.multiply(u_rho, ws[:2], out=t)  # [u w1, rho w2]
            fy = np.multiply(v_rho, ws[::2], out=g[4:])  # [v w1, rho w3]
            neg = _dxdy(fx, fy, -h, g[:4].reshape(2, 2, n, n))
            np.add(neg[0, 0], neg[1, 0], out=r[0])
            r[0] += neg[0, 1]
            r[0] += neg[1, 1]
            # [r2, r3] begin w1 [dx rho, dy rho] / rho2 - [dx w1, dy w1] / rho
            #   - w2 [dx u, dx v] - u [dx w2, dx w3]
            dw = _dxdy(ws, ws, h, g.reshape(2, 3, n, n))  # [dx, dy] of (w1, w2, w3)
            np.multiply(w1, drho, out=r[1:])
            r[1:] /= rho2
            r[1:] -= np.divide(dw[:, 0], rho, out=t)
            r[1:] -= np.multiply(w2, dx_uv, out=t)
            r[1:] -= np.multiply(u, dw[0, 1:], out=t)
            # and end in the order of each row
            v_dyw = np.multiply(v, dw[1, 1:], out=t)  # v [dy w2, dy w3]
            lap = _lap(ws[1:], h, g[:2], g[2:4])  # dw is used up
            lap *= nu
            w3_dy = np.multiply(w3, dy_uv, out=g[4:])  # w3 [dy u, dy v]
            r2, r3 = r[1], r[2]
            r2 -= v_dyw[0]
            r2 += lap[0]
            r2 -= w3_dy[0]
            r3 -= w3_dy[1]
            r3 -= v_dyw[1]
            r3 += lap[1]
            return out

        def bounds():
            inv2h = 1.0 / (2.0 * h)
            nu4h2 = 4.0 * nu / h**2
            a = np.abs(s)  # [|rho|, |u|, |v|]
            sx = _pair_x(np.add, a[:2], np.empty((2, n, n)))  # of |rho|, |u|
            sy = _pair_y(np.add, a[::2], np.empty((2, n, n)))  # of |rho|, |v|
            d, r = np.zeros(3 * n * n), np.empty(3 * n * n)
            ds, rs = d.reshape(3, n, n), r.reshape(3, n, n)
            # r1 = (sx|u| + sy|v| + sx|rho| + sy|rho|) / 2h
            np.add(sx[1], sy[1], out=rs[0])
            rs[0] += sx[0]
            rs[0] += sy[0]
            rs[0] *= inv2h
            # d2 = -dx u - 4 nu / h^2, d3 = -dy v - 4 nu / h^2
            np.negative(grad[0, 1], out=ds[1])
            np.negative(grad[1, 2], out=ds[2])
            ds[1:] -= nu4h2
            # r2 = |dx rho| / rho2 + 1/(rho h) + |u|/h + |v|/h + |dy u| + 4 nu / h^2,
            # r3 = |dy rho| / rho2 + 1/(rho h) + |v|/h + |u|/h + |dx v| + 4 nu / h^2
            np.abs(drho, out=rs[1:])
            rs[1:] /= rho2
            rs[1:] += 1.0 / (rho * h)
            ah = a[1:] / h  # [|u|/h, |v|/h]
            rs[1:] += ah
            rs[1:] += ah[::-1]
            np.abs(grad[1, 1], out=ah[0])
            np.abs(grad[0, 2], out=ah[1])
            rs[1:] += ah
            rs[1:] += nu4h2
            return gershgorin_bounds(d, r)

        return Linearization(apply, bounds)

    def fields(self, state):
        """(rho, u, v, omega) as n x n grids, omega = dv/dx - du/dy with the
        same central stencils."""
        n = self.n
        rho, u, v = _stack(state, n)
        h = 1.0 / n
        dv_dx, du_dy = _dxdy(v, u, h, np.empty((2, n, n)))
        return rho, u, v, dv_dx - du_dy
