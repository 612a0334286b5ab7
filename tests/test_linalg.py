import math

import numpy as np
import pytest

from expbench.linalg import (
    SpectralBounds,
    apply_operator,
    build_advdiff_operator,
    dense_expm,
    dense_phi,
    dot,
    gershgorin_bounds,
    lincomb,
    norm2,
    scale,
)
from expbench.problems import advdiff_kappa

from conftest import fresh_counter, use_counter


def small_operator():
    return build_advdiff_operator(3, advdiff_kappa(("const", 1.0 / 80.0)))


class TestBuildOperator:
    def test_three_point_stencil_values(self):
        # n=3, kappa=1/80, h=1/4: kappa/h^2 = 0.2, 1/(2h) = 2
        op = small_operator()
        assert op.h == 0.25
        assert np.allclose(op.sub, 2.2)
        assert np.allclose(op.diag, -0.4)
        assert np.allclose(op.sup, -1.8)

    def test_dense_assembly(self):
        M = small_operator().to_dense()
        expected = np.array(
            [[-0.4, -1.8, 0.0], [2.2, -0.4, -1.8], [0.0, 2.2, -0.4]]
        )
        assert np.allclose(M, expected)

    def test_invalid_sizes_and_coefficients(self):
        with pytest.raises(ValueError):
            build_advdiff_operator(0, lambda x: 1.0)
        with pytest.raises(ValueError):
            build_advdiff_operator(3, lambda x: 0.0)
        with pytest.raises(ValueError):
            build_advdiff_operator(3, lambda x: -1.0)

    def test_variable_coefficient_sampled_on_grid(self):
        op = build_advdiff_operator(3, lambda x: x)
        assert np.allclose(op.kappa, [0.25, 0.5, 0.75])


class TestApplyOperator:
    def test_first_unit_vector(self):
        y = apply_operator(small_operator(), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(y, [-0.4, 2.2, 0.0])

    def test_zero_vector(self):
        y = apply_operator(small_operator(), np.zeros(3))
        assert np.all(y == 0.0)

    def test_matches_dense(self):
        op = build_advdiff_operator(17, advdiff_kappa("mixed"))
        rng = np.random.default_rng(0)
        u = rng.standard_normal(17)
        assert np.allclose(apply_operator(op, u), op.to_dense() @ u, atol=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator(small_operator(), np.zeros(4))

    def test_cost_is_2n(self):
        op = build_advdiff_operator(159, advdiff_kappa(("const", 1.0 / 80.0)))
        c = fresh_counter(159)
        with use_counter(c):
            apply_operator(op, np.zeros(159))
        assert c.total_cost(1.0) == 318


class TestVectorPrimitives:
    def test_dot_value_and_cost(self):
        c = fresh_counter(n=2)
        with use_counter(c):
            assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0
        assert c.total_cost(3.0) == 3.0 * 4

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            dot([1.0], [1.0, 2.0])

    def test_lincomb_cancellation_and_cost(self):
        u = np.array([1.0, -2.0, 3.0])
        c = fresh_counter(n=3)
        with use_counter(c):
            z = lincomb([1.0, 1.0], [u, -u])
        assert np.all(z == 0.0)
        assert c.total_cost(1.0) == (2 + 1) * 3

    def test_lincomb_validation(self):
        with pytest.raises(ValueError):
            lincomb([], [])
        with pytest.raises(ValueError):
            lincomb([1.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            lincomb([1.0, 1.0], [[1.0], [1.0, 2.0]])

    def test_scale_and_norm(self):
        c = fresh_counter(n=2)
        with use_counter(c):
            y = scale(3.0, [1.0, -1.0])
            nrm = norm2(y)
        assert np.allclose(y, [3.0, -3.0])
        assert nrm == pytest.approx(3.0 * math.sqrt(2.0))
        assert c.count("scale") == 1
        assert c.count("dot") == 1  # norm counted as one inner product


class TestDenseExpm:
    def test_zero_matrix(self):
        assert np.allclose(dense_expm(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        E = dense_expm(np.diag([1.0, -1.0]))
        assert np.allclose(np.diag(E), [math.e, 1.0 / math.e])

    def test_nilpotent(self):
        E = dense_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(E, [[1.0, 1.0], [0.0, 1.0]])

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            M = rng.standard_normal((6, 6))
            M *= 5.0 / np.linalg.norm(M)
            P = dense_expm(M) @ dense_expm(-M)
            assert np.linalg.norm(P - np.eye(6)) / np.sqrt(6) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            dense_expm(np.zeros((2, 3)))


class TestDensePhi:
    def test_limit_values_at_zero(self):
        assert dense_phi(np.zeros((1, 1)), 1)[0, 0] == pytest.approx(1.0)
        assert dense_phi(np.zeros((1, 1)), 3)[0, 0] == pytest.approx(1.0 / 6.0)

    def test_scalar_one(self):
        assert dense_phi(np.array([[1.0]]), 1)[0, 0] == pytest.approx(math.e - 1.0)

    def test_phi0_is_exp(self):
        M = np.array([[0.3, 0.1], [0.0, -0.2]])
        assert np.allclose(dense_phi(M, 0), dense_expm(M))

    def test_unsupported_index(self):
        with pytest.raises(ValueError):
            dense_phi(np.zeros((1, 1)), 4)
        with pytest.raises(ValueError):
            dense_phi(np.zeros((1, 1)), -1)

    def test_recurrence(self):
        # M phi_p(M) = phi_{p-1}(M) - I/(p-1)!
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5))
        for p in (1, 2, 3):
            lhs = M @ dense_phi(M, p)
            rhs = dense_phi(M, p - 1) - np.eye(5) / math.factorial(p - 1)
            assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))


class TestGershgorin:
    def test_three_point_operator(self):
        b = gershgorin_bounds(small_operator())
        assert b.real_min == pytest.approx(-4.4)
        assert b.real_max == pytest.approx(3.6)
        assert b.imag_halfwidth == pytest.approx(4.0)

    def test_diagonal_matrix(self):
        b = gershgorin_bounds(np.diag([-1.0, -2.0]))
        assert (b.real_min, b.real_max, b.imag_halfwidth) == (-2.0, -1.0, 0.0)

    def test_contains_all_eigenvalues(self):
        for n, profile in ((16, ("const", 1.0 / 80.0)), (64, "mixed")):
            op = build_advdiff_operator(n, advdiff_kappa(profile))
            b = gershgorin_bounds(op)
            lam = np.linalg.eigvals(op.to_dense())
            assert np.all(lam.real >= b.real_min - 1e-12)
            assert np.all(lam.real <= b.real_max + 1e-12)
            assert np.all(np.abs(lam.imag) <= b.imag_halfwidth + 1e-12)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SpectralBounds(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(0.0, 1.0, -1.0)
