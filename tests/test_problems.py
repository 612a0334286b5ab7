import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expbench.counting import OpCounter
from expbench.integrators import MethodConfig, integrate
from expbench.problems import (
    AdvDiffProblem,
    NavierStokesProblem,
    NonPositiveDensityError,
    _dxdy,
    _lap,
    ns_rhs,
)

from conftest import dense_from_action, use_counter


# Shifted-copy (np.roll) forms of the periodic stencils, the Jacobian action
# and the Gershgorin bounds: the slice-based versions must match them bit for
# bit, so these keep the floating-point order of every expression.


def roll_dx(f, h):
    return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * h)


def roll_dy(f, h):
    return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * h)


def roll_lap(f, h):
    return (
        np.roll(f, -1, axis=1)
        + np.roll(f, 1, axis=1)
        + np.roll(f, -1, axis=0)
        + np.roll(f, 1, axis=0)
        - 4.0 * f
    ) / h**2


def fields(x, n):
    return [x[i * n * n : (i + 1) * n * n].reshape(n, n) for i in range(3)]


def roll_rhs(state, n, nu):
    rho, u, v = fields(state, n)
    h = 1.0 / n
    dx, dy, lap = roll_dx, roll_dy, roll_lap
    f1 = -dx(rho * u, h) - dy(rho * v, h)
    f2 = -u * dx(u, h) - v * dy(u, h) - dx(rho, h) / rho + nu * lap(u, h)
    f3 = -u * dx(v, h) - v * dy(v, h) - dy(rho, h) / rho + nu * lap(v, h)
    return np.concatenate([f1.ravel(), f2.ravel(), f3.ravel()])


def roll_jacobian_action(state, w, n, nu):
    rho, u, v = fields(state, n)
    w1, w2, w3 = fields(w, n)
    h = 1.0 / n
    dx, dy, lap = roll_dx, roll_dy, roll_lap
    r1 = -dx(u * w1, h) - dy(v * w1, h) - dx(rho * w2, h) - dy(rho * w3, h)
    r2 = (
        w1 * dx(rho, h) / rho**2
        - dx(w1, h) / rho
        - w2 * dx(u, h)
        - u * dx(w2, h)
        - v * dy(w2, h)
        + nu * lap(w2, h)
        - w3 * dy(u, h)
    )
    r3 = (
        w1 * dy(rho, h) / rho**2
        - dy(w1, h) / rho
        - w2 * dx(v, h)
        - u * dx(w3, h)
        - w3 * dy(v, h)
        - v * dy(w3, h)
        + nu * lap(w3, h)
    )
    return np.concatenate([r1.ravel(), r2.ravel(), r3.ravel()])


def roll_spectral_bounds(state, n, nu):
    rho, u, v = fields(state, n)
    h = 1.0 / n
    inv2h = 1.0 / (2.0 * h)
    nu4h2 = 4.0 * nu / h**2

    def sx(f):
        return np.roll(f, -1, axis=1) + np.roll(f, 1, axis=1)

    def sy(f):
        return np.roll(f, -1, axis=0) + np.roll(f, 1, axis=0)

    au, av, arho = np.abs(u), np.abs(v), np.abs(rho)
    r1 = (sx(au) + sy(av) + sx(arho) + sy(arho)) * inv2h
    d2 = -roll_dx(u, h) - nu4h2
    r2 = (
        np.abs(roll_dx(rho, h)) / rho**2
        + 1.0 / (rho * h)
        + au / h
        + av / h
        + np.abs(roll_dy(u, h))
        + nu4h2
    )
    d3 = -roll_dy(v, h) - nu4h2
    r3 = (
        np.abs(roll_dy(rho, h)) / rho**2
        + 1.0 / (rho * h)
        + av / h
        + au / h
        + np.abs(roll_dx(v, h))
        + nu4h2
    )
    d = np.concatenate([np.zeros(n * n), d2.ravel(), d3.ravel()])
    r = np.concatenate([r1.ravel(), r2.ravel(), r3.ravel()])
    return float(np.min(d - r)), float(np.max(d + r)), float(np.max(r))


def shear_flow(n):
    return NavierStokesProblem(n, 0.0).initial_state()


def perturbed_shear_flow(n, seed):
    rng = np.random.default_rng(seed)
    return shear_flow(n) + 0.05 * rng.standard_normal(3 * n * n)


def lopsided_velocity_state(n):
    """|u| ~ 1e-4 and |v| ~ 10: the Gershgorin rows add |u|/h and |v|/h of
    such different size that their order shows in the extreme row's sum."""
    rng = np.random.default_rng(0)
    N = n * n
    rho = 1.0 + 0.05 * rng.standard_normal(N)
    return np.concatenate([rho, 1e-4 * rng.standard_normal(N), 10.0 * rng.standard_normal(N)])


def mixed_kappa(x):
    return 33.0 / 5120.0 + 31.0 / 5120.0 * math.tanh(20.0 * x - 16.0)


class TestKappaProfiles:
    """The operator's diagonal is -2 kappa(x_i) / h^2 at x_i = (i + 1) h."""

    @pytest.mark.parametrize("n", [4, 1999])
    @pytest.mark.parametrize(
        "profile,kappa",
        [(("const", 0.125), lambda x: 0.125), ("mixed", mixed_kappa)],
        ids=["const", "mixed"],
    )
    def test_diagonal_is_the_profile(self, n, profile, kappa):
        h = 1.0 / (n + 1)
        k = np.array([kappa(xi) for xi in (np.arange(n) + 1) * h])
        assert np.array_equal(AdvDiffProblem(n, profile).diag, -2.0 * k / h**2)

    def test_mixed_midpoint_value(self):
        # n = 4: h = 0.2, and the last grid point is x = 0.8, where tanh is 0
        assert AdvDiffProblem(4, "mixed").diag[3] == -2.0 * (33.0 / 5120.0) / 0.2**2

    def test_mixed_asymptotic_values(self):
        n = 1999  # grid points 1/2000 from either end
        h = 1.0 / (n + 1)
        k = AdvDiffProblem(n, "mixed").diag / (-2.0 / h**2)
        assert k[0] == pytest.approx(1.0 / 2560.0, rel=1e-9)
        assert k[-1] == pytest.approx(1.0 / 80.0, rel=1e-3)

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            AdvDiffProblem(3, "upwind")


class TestAdvDiffProblem:
    def test_initial_condition_parabola(self):
        pb = AdvDiffProblem(3, ("const", 1.0 / 80.0))
        x = np.array([0.25, 0.5, 0.75])
        assert np.allclose(pb.initial_state(), x * (1.0 - x))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa_rejected(self, c):
        with pytest.raises(ValueError, match="finite and positive"):
            AdvDiffProblem(31, ("const", c))


class TestNavierStokesProblem:
    @pytest.mark.parametrize("nu", [math.nan, math.inf, -1e-6])
    def test_non_finite_or_negative_nu_rejected(self, nu):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NavierStokesProblem(8, nu)

    def test_zero_nu_accepted(self):
        assert NavierStokesProblem(8, 0.0).nu == 0.0


class TestPeriodicStencils:
    @pytest.mark.parametrize("n", [4, 5, 40, 160])
    @pytest.mark.parametrize("stack", [(), (1,), (2,), (3,)], ids=["field", "k1", "k2", "k3"])
    def test_stencils_match_roll_formulas_bitwise(self, n, stack):
        # a single n x n field, or a stack of k of them, each to match alone
        rng = np.random.default_rng(n)
        h = 1.0 / n
        shape = stack + (n, n)
        for _ in range(3):
            f, g = rng.standard_normal(shape), rng.standard_normal(shape)
            dx, dy = _dxdy(f, g, h, np.empty((2,) + shape))
            lap = _lap(f, h, np.empty(shape), np.empty(shape))
            for i in np.ndindex(stack):
                assert np.array_equal(dx[i], roll_dx(f[i], h))
                assert np.array_equal(dy[i], roll_dy(g[i], h))
                assert np.array_equal(lap[i], roll_lap(f[i], h))

    def test_output_must_be_contiguous(self):
        # the x stencil writes its interior through a flat view of ``out``
        f = np.ones((2, 8, 8))
        with pytest.raises(ValueError):
            _dxdy(f, f, 1.0 / 8, np.empty((2, 3, 8, 8))[:, ::2])

    @pytest.mark.parametrize("n", [4, 5, 40, 160])
    def test_spectral_bounds_match_roll_formulas_bitwise(self, n):
        nu = 1e-3
        states = (perturbed_shear_flow(n, 0), perturbed_shear_flow(n, 1), lopsided_velocity_state(n))
        for state in states:
            reference = roll_spectral_bounds(state, n, nu)
            b = NavierStokesProblem(n, nu).linearize(state).bounds
            assert (b.real_min, b.real_max, b.imag_halfwidth) == reference


class TestFrozenLinearization:
    @pytest.mark.parametrize("n", [8, 40, 160])
    def test_apply_matches_roll_jacobian_bitwise(self, n):
        nu = 1e-4
        pb = NavierStokesProblem(n, nu)
        state = perturbed_shear_flow(n, 30 + n)
        applyJ = pb.linearize(state)
        rng = np.random.default_rng(n)
        for _ in range(3):
            w = rng.standard_normal(3 * n * n)
            assert np.array_equal(applyJ(w), roll_jacobian_action(state, w, n, nu))
            assert np.array_equal(pb.linearize(state)(w), applyJ(w))

    @pytest.mark.parametrize("n", [8, 40])
    def test_linearize_is_uncounted_and_each_apply_is_one_jacvec(self, n):
        pb = NavierStokesProblem(n, 1e-4)
        state = perturbed_shear_flow(n, 40 + n)
        w = np.ones(3 * n * n)
        c = OpCounter(pb.dimension, pb.operator_costs)
        with use_counter(c):
            applyJ = pb.linearize(state)
            applyJ.bounds  # computing the bounds records nothing either
            assert c.events == {}
            for calls in (1, 2, 3):
                applyJ(w)
                assert c.events == {"jacvec": calls}
        assert c.total_cost(1.0) == 3 * 21 * n * n

    def test_action_stays_frozen_when_the_state_array_changes(self):
        n = 8
        pb = NavierStokesProblem(n, 1e-4)
        state = perturbed_shear_flow(n, 50)
        w = np.random.default_rng(51).standard_normal(3 * n * n)
        expected = roll_jacobian_action(state, w, n, pb.nu)
        applyJ = pb.linearize(state)
        state[:] = shear_flow(n)
        assert np.array_equal(applyJ(w), expected)

    def test_applies_and_rhs_return_fresh_arrays(self):
        # the kernels share scratch arrays between calls, never their results
        n = 8
        pb = NavierStokesProblem(n, 1e-4)
        state = perturbed_shear_flow(n, 60)
        w1, w2 = np.random.default_rng(61).standard_normal((2, 3 * n * n))
        applyJ = pb.linearize(state)
        first = applyJ(w1)
        kept = first.copy()
        second = applyJ(w2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        f = ns_rhs(state, n, pb.nu)
        f_kept = f.copy()
        assert np.array_equal(first, kept)
        assert not np.shares_memory(f, ns_rhs(state + 0.01, n, pb.nu))
        applyJ(w1)
        assert np.array_equal(f, f_kept)
        assert np.array_equal(first, kept)

    def test_linearize_rejects_nonpositive_density(self):
        n = 8
        state = shear_flow(n)
        state[3] = 0.0
        with pytest.raises(NonPositiveDensityError):
            NavierStokesProblem(n, 1e-4).linearize(state)

    def test_advdiff_linearization_is_the_rhs_operator(self):
        pb = AdvDiffProblem(12, "mixed")
        rng = np.random.default_rng(52)
        applyJ = pb.linearize(rng.standard_normal(12))
        w = rng.standard_normal(12)
        assert np.array_equal(applyJ(w), pb.rhs(w))


class TestKernelsMatchRollFormulas:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 48),
        seed=st.integers(0, 2**32 - 1),
        speed=st.sampled_from([1e-4, 0.1, 10.0]),
        nu=st.sampled_from([0.0, 1e-4, 1e-2]),
    )
    def test_rhs_apply_and_bounds_bitwise(self, n, seed, speed, nu):
        # any positive density, velocities of the given size, any direction w
        rng = np.random.default_rng(seed)
        N = n * n
        state = np.concatenate([rng.uniform(0.05, 2.0, N), speed * rng.standard_normal(2 * N)])
        w = rng.standard_normal(3 * N)
        assert np.array_equal(ns_rhs(state, n, nu), roll_rhs(state, n, nu))
        applyJ = NavierStokesProblem(n, nu).linearize(state)
        assert np.array_equal(applyJ(w), roll_jacobian_action(state, w, n, nu))
        b = applyJ.bounds
        assert (b.real_min, b.real_max, b.imag_halfwidth) == roll_spectral_bounds(state, n, nu)


class TestNavierStokesRhs:
    @pytest.mark.parametrize("n", [4, 5, 8, 40, 160])
    def test_matches_roll_rhs_bitwise(self, n):
        nu = 1e-4
        for state in (perturbed_shear_flow(n, 0), perturbed_shear_flow(n, 1), lopsided_velocity_state(n)):
            assert np.array_equal(ns_rhs(state, n, nu), roll_rhs(state, n, nu))

    def test_constant_state_is_stationary(self):
        n = 8
        N = n * n
        state = np.concatenate([np.ones(N), 0.3 * np.ones(N), -0.2 * np.ones(N)])
        assert np.allclose(ns_rhs(state, n, 1e-3), 0.0, atol=1e-14)

    def test_density_equation_sums_to_zero(self):
        n = 10
        rng = np.random.default_rng(20)
        state = shear_flow(n) + 0.05 * rng.standard_normal(3 * n * n)
        f = ns_rhs(state, n, 1e-4)
        assert abs(np.sum(f[: n * n])) < 1e-12

    def test_nonpositive_density_rejected(self):
        n = 6
        state = shear_flow(n)
        state[0] = -1.0
        with pytest.raises(NonPositiveDensityError):
            ns_rhs(state, n, 1e-3)
        with pytest.raises(NonPositiveDensityError):
            NavierStokesProblem(n, 1e-3).linearize(state)(np.ones_like(state))

    def test_rhs_cost_is_12N(self):
        n = 8
        N = n * n
        c = OpCounter(3 * N, NavierStokesProblem.operator_costs)
        with use_counter(c):
            ns_rhs(shear_flow(n), n, 1e-4)
        assert c.total_cost(1.0) == 12 * N

    def test_finite_difference_consistency_second_order(self):
        n = 8
        nu = 1e-4
        rng = np.random.default_rng(21)
        state = shear_flow(n) + 0.02 * rng.standard_normal(3 * n * n)
        w = rng.standard_normal(3 * n * n)
        jw = NavierStokesProblem(n, nu).linearize(state)(w)
        diffs = []
        for eps in (1e-4, 1e-5):
            fd = (ns_rhs(state + eps * w, n, nu) - ns_rhs(state - eps * w, n, nu)) / (2 * eps)
            diffs.append(np.linalg.norm(fd - jw))
        # central differences: error drops by ~100x per 10x smaller eps
        assert diffs[1] < diffs[0] / 50.0


class TestNavierStokesJacobian:
    def test_linearity_and_zero(self):
        n = 8
        nu = 1e-4
        rng = np.random.default_rng(22)
        state = shear_flow(n) + 0.02 * rng.standard_normal(3 * n * n)
        w1 = rng.standard_normal(3 * n * n)
        w2 = rng.standard_normal(3 * n * n)
        applyJ = NavierStokesProblem(n, nu).linearize(state)
        lhs = applyJ(1.5 * w1 - 2.0 * w2)
        rhs = 1.5 * applyJ(w1) - 2.0 * applyJ(w2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
        assert np.all(applyJ(np.zeros(3 * n * n)) == 0.0)

    def test_jacvec_cost_is_21N(self):
        n = 8
        N = n * n
        c = OpCounter(3 * N, NavierStokesProblem.operator_costs)
        with use_counter(c):
            pb = NavierStokesProblem(n, 1e-4)
            pb.linearize(pb.initial_state())(np.ones(3 * N))
        assert c.total_cost(1.0) == 21 * N

    def test_spectral_bounds_contain_jacobian_eigenvalues(self):
        n = 8
        nu = 1e-3
        rng = np.random.default_rng(23)
        pb = NavierStokesProblem(n, nu)
        for state in (
            pb.initial_state(),
            pb.initial_state() + 0.05 * rng.standard_normal(3 * n * n),
        ):
            applyJ = pb.linearize(state)
            lam = np.linalg.eigvals(dense_from_action(applyJ, 3 * n * n))
            b = applyJ.bounds
            assert np.all(lam.real >= b.real_min - 1e-10)
            assert np.all(lam.real <= b.real_max + 1e-10)
            assert np.all(np.abs(lam.imag) <= b.imag_halfwidth + 1e-10)


class TestShearFlowInit:
    def test_pointwise_values(self):
        n = 8  # (0.25, 0.25) is grid point (ix, iy) = (2, 2)
        pb = NavierStokesProblem(n, 1e-6)
        rho, u, v, _ = pb.fields(pb.initial_state())
        assert rho[2, 2] == 1.0
        assert u[2, 2] == pytest.approx(0.0, abs=1e-15)
        assert v[2, 2] == pytest.approx(5e-3, rel=1e-12)

    def test_density_uniform_one(self):
        state = shear_flow(40)
        assert np.all(state[:1600] == 1.0)

    def test_velocity_at_domain_bottom(self):
        n = 30
        u = shear_flow(n)[n * n : 2 * n * n].reshape(n, n)
        assert u[0, 0] == pytest.approx(0.1 * math.tanh(-7.5), rel=1e-12)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            NavierStokesProblem(3, 1e-6)


class TestVorticity:
    def test_constant_velocity_has_zero_vorticity(self):
        n = 12
        N = n * n
        state = np.concatenate([np.ones(N), 0.4 * np.ones(N), -0.1 * np.ones(N)])
        assert np.allclose(NavierStokesProblem(n, 0.0).fields(state)[3], 0.0, atol=1e-15)

    def test_sine_field_closed_form(self):
        n = 16
        N = n * n
        h = 1.0 / n
        x = np.arange(n) * h
        X = np.tile(x, (n, 1))
        v = np.sin(2.0 * np.pi * X)
        state = np.concatenate([np.ones(N), np.zeros(N), v.ravel()])
        expected = (np.sin(2 * np.pi * (X + h)) - np.sin(2 * np.pi * (X - h))) / (2 * h)
        assert np.allclose(NavierStokesProblem(n, 0.0).fields(state)[3], expected, atol=1e-13)

    def test_shear_layer_extrema_locations(self):
        n = 60
        pb = NavierStokesProblem(n, 0.0)
        om = pb.fields(pb.initial_state())[3]
        row_amplitude = np.max(np.abs(om), axis=1)
        peaks = np.argsort(row_amplitude)[-2:]
        y_peaks = sorted(p / n for p in peaks)
        assert abs(y_peaks[0] - 0.25) < 0.05
        assert abs(y_peaks[1] - 0.75) < 0.05


class TestStructuralProperties:
    def test_translation_equivariance_of_rhs(self):
        n = 12
        nu = 1e-4
        rng = np.random.default_rng(24)
        state = shear_flow(n) + 0.05 * rng.standard_normal(3 * n * n)

        def shift(s, kx, ky):
            parts = [s[i * n * n : (i + 1) * n * n].reshape(n, n) for i in range(3)]
            return np.concatenate(
                [np.roll(np.roll(p, kx, axis=1), ky, axis=0).ravel() for p in parts]
            )

        for kx, ky in ((3, 0), (0, 5), (2, 7)):
            lhs = ns_rhs(shift(state, kx, ky), n, nu)
            rhs = shift(ns_rhs(state, n, nu), kx, ky)
            assert np.array_equal(lhs, rhs)

    def test_mass_conserved_along_integration(self):
        pb = NavierStokesProblem(16, 1e-4)
        u0 = pb.initial_state()
        res = integrate(pb, MethodConfig(method="rk4", tau=0.05), u0, 0.5)
        m0 = np.sum(u0[:256])
        m1 = np.sum(res.final_state[:256])
        assert abs(m1 - m0) / abs(m0) < 1e-12

    def test_problem_dimensions(self):
        pb = NavierStokesProblem(10, 1e-6)
        assert pb.dimension == 300
        assert pb.initial_state().shape == (300,)
        with pytest.raises(ValueError):
            NavierStokesProblem(2, 1e-6)
