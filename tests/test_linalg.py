import math

import numpy as np
import pytest
from scipy.linalg import expm

from expbench.linalg import SpectralBounds, apply_operator, gershgorin_bounds, lincomb, norm2, scale
from expbench.problems import AdvDiffProblem

from conftest import dense_from_action, dense_gershgorin, dense_phi, dot, fresh_counter, use_counter


def small_problem():
    return AdvDiffProblem(3, ("const", 1.0 / 80.0))


def apply(pb, u):
    return apply_operator(pb.lower, pb.diag, pb.upper, u)


class TestBuildOperator:
    def test_three_point_stencil_values(self):
        # n=3, kappa=1/80, h=1/4: kappa/h^2 = 0.2, 1/(2h) = 2
        pb = small_problem()
        assert pb.lower.shape == pb.upper.shape == (2,)
        assert np.allclose(pb.lower, 2.2)
        assert np.allclose(pb.diag, -0.4)
        assert np.allclose(pb.upper, -1.8)

    @pytest.mark.parametrize("profile", [("const", 1.0 / 80.0), "mixed"])
    def test_off_diagonals_hold_their_rows_stencil_values(self, profile):
        # n=3, h=1/4: row i has sub-diagonal 16 kappa_i + 2 and
        # super-diagonal 16 kappa_i - 2; row 0 has no sub-diagonal and
        # row 2 no super-diagonal
        pb = AdvDiffProblem(3, profile)
        kappa = -pb.diag / 32.0
        assert pb.lower.shape == pb.upper.shape == (2,)
        assert np.array_equal(pb.lower, 16.0 * kappa[1:] + 2.0)
        assert np.array_equal(pb.upper, 16.0 * kappa[:-1] - 2.0)

    def test_dense_assembly(self):
        M = small_problem().to_dense()
        expected = np.array(
            [[-0.4, -1.8, 0.0], [2.2, -0.4, -1.8], [0.0, 2.2, -0.4]]
        )
        assert np.allclose(M, expected)

    def test_invalid_sizes_and_coefficients(self):
        with pytest.raises(ValueError):
            AdvDiffProblem(0, ("const", 1.0))
        with pytest.raises(ValueError):
            AdvDiffProblem(3, ("const", 0.0))
        with pytest.raises(ValueError):
            AdvDiffProblem(3, ("const", -1.0))

    def test_variable_coefficient_sampled_on_grid(self):
        # h = 1/4, so diag = -2 kappa(x_i) / h^2 = -32 kappa(x_i) exactly
        pb = AdvDiffProblem(3, "mixed")
        x = (0.25, 0.5, 0.75)
        kappa = [33.0 / 5120.0 + 31.0 / 5120.0 * math.tanh(20.0 * xi - 16.0) for xi in x]
        assert np.array_equal(pb.diag, -32.0 * np.array(kappa))


class TestApplyOperator:
    def test_first_unit_vector(self):
        y = apply(small_problem(), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(y, [-0.4, 2.2, 0.0])

    def test_zero_vector(self):
        y = apply(small_problem(), np.zeros(3))
        assert np.all(y == 0.0)

    def test_matches_dense(self):
        pb = AdvDiffProblem(17, "mixed")
        rng = np.random.default_rng(0)
        u = rng.standard_normal(17)
        assert np.allclose(apply(pb, u), pb.to_dense() @ u, atol=1e-13)

    @pytest.mark.parametrize("profile", [("const", 1.0 / 80.0), "mixed"])
    @pytest.mark.parametrize("n", [31, 159])
    def test_dense_matrix_is_the_applied_one(self, n, profile):
        # the exact 1D reference exponentiates to_dense(); the sweep applies rhs
        pb = AdvDiffProblem(n, profile)
        assert np.array_equal(dense_from_action(pb.rhs, n), pb.to_dense())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply(small_problem(), np.zeros(4))

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_off_diagonal_of_n_entries_is_rejected(self, n):
        # an off-diagonal padded to n entries fails instead of being misapplied
        pb = AdvDiffProblem(n, "mixed")
        padded = np.zeros(n)
        u = np.ones(n)
        with pytest.raises(ValueError):
            apply_operator(padded, pb.diag, pb.upper, u)
        with pytest.raises(ValueError):
            apply_operator(pb.lower, pb.diag, padded, u)

    def test_cost_is_2n(self):
        pb = AdvDiffProblem(159, ("const", 1.0 / 80.0))
        c = fresh_counter(159)
        with use_counter(c):
            apply(pb, np.zeros(159))
        assert c.total_cost(1.0) == 318


class TestSinglePoint:
    # n = 1: the operator is its diagonal, with empty off-diagonals
    PB = AdvDiffProblem(1, "mixed")

    def test_off_diagonals_are_empty(self):
        assert self.PB.lower.shape == self.PB.upper.shape == (0,)

    def test_rhs_is_the_diagonal_product(self):
        u = np.array([0.7])
        assert np.array_equal(self.PB.rhs(u), self.PB.diag * u)

    def test_dense_matrix_is_one_by_one(self):
        M = self.PB.to_dense()
        assert M.shape == (1, 1)
        assert M[0, 0] == self.PB.diag[0]

    def test_gershgorin_box_is_the_diagonal_point(self):
        b = self.PB.linearize().bounds
        d = float(self.PB.diag[0])
        assert (b.real_min, b.real_max, b.imag_halfwidth) == (d, d, 0.0)


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


class TestDensePhi:
    def test_limit_values_at_zero(self):
        assert dense_phi(np.zeros((1, 1)), 1)[0, 0] == pytest.approx(1.0)
        assert dense_phi(np.zeros((1, 1)), 3)[0, 0] == pytest.approx(1.0 / 6.0)

    def test_scalar_one(self):
        assert dense_phi(np.array([[1.0]]), 1)[0, 0] == pytest.approx(math.e - 1.0)

    def test_phi0_is_exp(self):
        M = np.array([[0.3, 0.1], [0.0, -0.2]])
        assert np.allclose(dense_phi(M, 0), expm(M))

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
        b = small_problem().linearize().bounds
        assert b.real_min == pytest.approx(-4.4)
        assert b.real_max == pytest.approx(3.6)
        assert b.imag_halfwidth == pytest.approx(4.0)

    def test_centres_and_radii(self):
        b = gershgorin_bounds(np.array([-1.0, 2.0]), np.array([0.5, 3.0]))
        assert (b.real_min, b.real_max, b.imag_halfwidth) == (-1.5, 5.0, 3.0)

    def test_diagonal_matrix(self):
        b = dense_gershgorin(np.diag([-1.0, -2.0]))
        assert (b.real_min, b.real_max, b.imag_halfwidth) == (-2.0, -1.0, 0.0)

    def test_contains_all_eigenvalues(self):
        for n, profile in ((16, ("const", 1.0 / 80.0)), (64, "mixed")):
            pb = AdvDiffProblem(n, profile)
            b = pb.linearize().bounds
            dense = dense_gershgorin(pb.to_dense())
            assert b.real_min == pytest.approx(dense.real_min, rel=1e-14)
            assert b.real_max == pytest.approx(dense.real_max, rel=1e-14)
            assert b.imag_halfwidth == pytest.approx(dense.imag_halfwidth, rel=1e-14)
            lam = np.linalg.eigvals(pb.to_dense())
            assert np.all(lam.real >= b.real_min - 1e-12)
            assert np.all(lam.real <= b.real_max + 1e-12)
            assert np.all(np.abs(lam.imag) <= b.imag_halfwidth + 1e-12)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SpectralBounds(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            SpectralBounds(0.0, 1.0, -1.0)
