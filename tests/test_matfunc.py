import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expbench import matfunc
from expbench.counting import OpCounter
from expbench.harness import CSV_PRIMITIVES, ExperimentSpec, run_experiment
from expbench.integrators import METHODS, MethodConfig, PhiConvergenceError, integrate
from expbench.linalg import Linearization, SpectralBounds, lincomb, norm2, scale
from expbench.matfunc import (
    DEFAULT_M_MAX,
    EVALUATORS,
    NotConverged,
    arnoldi_extend,
    default_leja_sequence,
    divided_differences_exp,
    hessenberg_phi_e1,
    krylov_phi_action,
    leja_phi_action,
    phi_linear_combination,
)
from expbench.problems import AdvDiffProblem, NavierStokesProblem

from conftest import dense_from_action, dense_gershgorin, dense_phi, dot, fresh_counter, use_counter


def advdiff(n, kappa=1.0 / 80.0):
    return AdvDiffProblem(n, ("const", kappa))


ACTIONS = {"krylov": krylov_phi_action, "leja": leja_phi_action}
EXPONENTIAL_METHODS = tuple(m for m, (_step, backend) in METHODS.items() if backend)


def stiff_case():
    """(problem, v, tau, tol) of a phi_1 action that only converges on the
    substepped path."""
    pb = advdiff(159)
    return pb, pb.initial_state(), 1.0, 1e-8


# (iterations, substeps, counted events) of the stiff calls, pinned so that a
# change to the substep loop cannot move the counted cost unnoticed
STIFF_COUNTS = {
    "krylov": (485, 4, {"dot": 42635, "lincomb": 42533, "matvec": 485, "scale": 492}),
    "leja": (564, 4, {"dot": 564, "lincomb": 1589, "matvec": 564, "scale": 7}),
    "combination-krylov": (
        505, 4, {"dot": 45063, "lincomb": 45061, "matvec": 505, "scale": 511}
    ),
    "combination-leja": (588, 4, {"dot": 588, "lincomb": 1764, "matvec": 588, "scale": 6}),
    "krylov-p0": (659, 8, {"dot": 48564, "lincomb": 47902, "matvec": 659, "scale": 670}),
    "leja-p0": (805, 8, {"dot": 805, "lincomb": 1610, "matvec": 805, "scale": 11}),
}


def arnoldi_arrays(v, steps):
    """Basis and Hessenberg arrays for ``steps`` extensions from v, set up as
    _krylov_arnoldi does: (V, H, beta)."""
    beta = norm2(v)
    V = np.empty((steps + 1, v.size))
    V[0] = scale(1.0 / beta, v)
    return V, np.zeros((steps + 1, steps)), beta


def run_arnoldi(applyA, v, steps):
    """At most ``steps`` extensions, stopping at breakdown: (V, H, m, extended)."""
    V, H, beta = arnoldi_arrays(v, steps)
    m, extended = 0, True
    while m < steps and extended:
        extended = arnoldi_extend(applyA, V, H, m, beta)
        m += 1
    return V, H, m, extended


class TestArnoldi:
    def test_identity_breaks_down_immediately(self):
        V, H, m, extended = run_arnoldi(lambda w: w, np.array([0.6, 0.8]), 2)
        assert (m, extended) == (1, False)
        assert H[0, 0] == pytest.approx(1.0)

    def test_zero_start_rejected(self):
        # the zero vector never starts Arnoldi: no apply, nothing counted
        calls = []
        counter = fresh_counter(n=3)
        with use_counter(counter):
            y, applies, est = matfunc._krylov_arnoldi(
                lambda w: calls.append(w) or w, np.zeros(3), 0.1, 1e-8, 1
            )
        assert (applies, est, calls) == (0, 0.0, [])
        assert np.all(y == 0.0)
        assert counter.events == {}

    def test_arnoldi_relation_and_orthonormality(self):
        pb = advdiff(12)
        A = pb.to_dense()
        v = np.random.default_rng(5).standard_normal(12)
        V, H, beta = arnoldi_arrays(v, 6)
        for j in range(6):
            assert arnoldi_extend(lambda w: A @ w, V, H, j, beta)
            G = V[: j + 2] @ V[: j + 2].T
            assert np.linalg.norm(G - np.eye(j + 2)) < 1e-10
        assert np.linalg.norm(A @ V[:6].T - V.T @ H) < 1e-12 * np.linalg.norm(A)

    def test_cap_enforced(self):
        # _krylov_arnoldi is the one place that enforces the dimension cap
        pb, v, tau, tol = stiff_case()
        assert pb.n > DEFAULT_M_MAX  # no breakdown before the cap
        c = fresh_counter(pb.n)
        with use_counter(c), pytest.raises(NotConverged) as exc:
            matfunc._krylov_arnoldi(pb.rhs, v, tau, tol, 1)
        assert exc.value.applies == DEFAULT_M_MAX
        assert c.count("matvec") == DEFAULT_M_MAX


def test_every_method_backend_is_an_evaluator():
    backends = {backend for _step, backend in METHODS.values() if backend is not None}
    assert backends and backends <= set(EVALUATORS)


def reference_arnoldi(applyA, v, steps):
    """The Arnoldi loop on a list basis, every operation through the counted
    primitives, one record per call: (V, H, m, invariant)."""
    beta = norm2(v)
    V = [scale(1.0 / beta, v)]
    H = np.zeros((steps + 1, steps))
    m, invariant = 0, False
    while m < steps and not invariant:
        j = m
        w = applyA(V[j])
        for _pass in range(2):
            for i in range(j + 1):
                hij = dot(V[i], w)
                H[i, j] += hij
                w = lincomb([1.0, -hij], [w, V[i]])
        hnext = norm2(w)
        H[j + 1, j] = hnext
        if hnext <= 1e-14 * beta:
            invariant = True
        else:
            V.append(scale(1.0 / hnext, w))
        m = j + 1
    return V, H, m, invariant


@st.composite
def arnoldi_cases(draw):
    """(operator, start vector, steps): random dense operators, the identity
    (breakdown at step 1) and the reversal, which returns a view of its
    input (breakdown at step 2)."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["dense", "identity", "reverse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    ops = {"dense": lambda w: A @ w, "identity": lambda w: w, "reverse": lambda w: w[::-1]}
    steps = draw(st.integers(1, min(n, 30)))
    return ops[kind], rng.standard_normal(n), steps


class TestArnoldiMatchesCountedPrimitives:
    @settings(max_examples=80, deadline=None)
    @given(case=arnoldi_cases())
    def test_bit_identical_basis_hessenberg_and_counts(self, case):
        applyA, v, steps = case
        ref_counter, fast_counter = fresh_counter(n=v.size), fresh_counter(n=v.size)
        with use_counter(ref_counter):
            V, H, m, invariant = reference_arnoldi(applyA, v, steps)
        with use_counter(fast_counter):
            fast_V, fast_H, fast_m, extended = run_arnoldi(applyA, v, steps)
        assert (fast_m, not extended) == (m, invariant)
        assert np.array_equal(fast_H, H)
        assert len(V) == (m if invariant else m + 1)
        for fast, ref in zip(fast_V, V):
            assert np.array_equal(fast, ref)
        assert fast_counter.events == ref_counter.events
        assert fast_counter.tally == ref_counter.tally

    def test_operator_of_wrong_length_rejected_before_counting(self):
        V, H, beta = arnoldi_arrays(np.ones(3), 2)
        counter = fresh_counter(n=3)
        with use_counter(counter):
            with pytest.raises(ValueError):
                arnoldi_extend(lambda w: np.ones(4), V, H, 0, beta)
        assert counter.events == {}


def reference_leja_newton(applyA, x, t, tol_abs, p):
    """The Newton loop of matfunc._leja_newton through the counted
    primitives: (y, applies, estimate), or the applies of NotConverged."""
    c, gamma = matfunc._leja_interval(applyA.bounds)
    xi = default_leja_sequence()
    block = min(matfunc._DD_BLOCK, len(xi))
    dd = matfunc._cached_shifted_dd(xi[:block], c, gamma, t, p)
    r = x
    y = scale(dd[0], r)
    guard = 1e8 * max(1.0, float(np.linalg.norm(x)))
    prev_small = False
    for j in range(1, len(xi)):
        if j == block:
            block = min(2 * block, len(xi))
            dd = matfunc._cached_shifted_dd(xi[:block], c, gamma, t, p)
        shift = c + gamma * xi[j - 1]
        r = lincomb([1.0 / gamma, -shift / gamma], [applyA(r), r])
        y = lincomb([1.0, dd[j]], [y, r])
        rnorm = norm2(r)
        est = abs(dd[j]) * rnorm
        if not math.isfinite(est) or rnorm > guard:
            return j
        small = est <= tol_abs
        if small and prev_small:
            return y, j, est
        prev_small = small
    return len(xi) - 1


class TestLejaNewtonMatchesCountedPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 60),
        kappa=st.sampled_from([1.0 / 80.0, 1.0 / 2560.0]),
        t=st.sampled_from([1e-3, 1e-2, 0.1, 1.0]),
        tol=st.sampled_from([1e-2, 1e-6, 1e-10]),
        p=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_result_and_counts(self, n, kappa, t, tol, p, seed):
        J = advdiff(n, kappa).linearize()
        x = np.random.default_rng(seed).standard_normal(n)
        ref_counter, fast_counter = fresh_counter(n=n), fresh_counter(n=n)
        with use_counter(ref_counter):
            ref = reference_leja_newton(J, x, t, tol, p)
        with use_counter(fast_counter):
            try:
                fast = matfunc._leja_newton(J, x, t, tol, p)
            except NotConverged as exc:
                fast = exc.applies
        if isinstance(ref, tuple):
            assert np.array_equal(fast[0], ref[0])
            assert fast[1:] == ref[1:]
        else:
            assert fast == ref
        assert fast_counter.events == ref_counter.events
        assert fast_counter.tally == ref_counter.tally

    def test_operator_of_wrong_length_rejected_before_lincomb(self):
        counter = fresh_counter(n=3)
        with use_counter(counter):
            with pytest.raises(ValueError):
                matfunc._leja_newton(
                    Linearization(lambda w: np.ones(4), lambda: SpectralBounds(-3.0, 1.0, 0.0)),
                    np.ones(3), 0.1, 1e-8, 0,
                )
        assert counter.count("lincomb") == 0


def reference_augmented_apply(applyA, dim, terms, x):
    """The augmented operator's apply through the counted lincomb."""
    q = max(p for p, _w in terms)
    by_p = dict(terms)
    columns = [by_p.get(q - c, np.zeros(dim)) for c in range(q)]
    top = lincomb([1.0] + [x[dim + i] for i in range(q)], [applyA(x[:dim])] + columns)
    bot = np.zeros(q)
    bot[:-1] = x[dim + 1 :]
    return np.concatenate([top, bot])


class LincombsByLength(OpCounter):
    """An advection-diffusion counter that also tallies its lincomb events by
    the number of vectors combined."""

    def __init__(self, n):
        super().__init__(n, {"matvec": 2})
        self.lincombs = {}

    def record(self, primitive, k=None, times=1):
        super().record(primitive, k, times)
        if primitive == "lincomb" and times:
            self.lincombs[k] = self.lincombs.get(k, 0) + times


class TestClosedFormCounts:
    """The events of one evaluation in closed form, as README states them."""

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("tau, tol", [(0.05, 1e-4), (0.25, 1e-10)])
    def test_krylov_evaluation_of_dimension_m(self, p, tau, tol):
        J = advdiff(60).linearize()
        x = np.random.default_rng(1).standard_normal(60)
        counter = LincombsByLength(60)
        with use_counter(counter):
            _y, m, est = matfunc._krylov_arnoldi(J, x, tau, tol, p)
        assert 2 < m < 60 and est > 0.0  # stopped on the estimate, not at breakdown
        assert counter.events == {
            "dot": m * (m + 1) + (m + 1),
            "scale": m + 1,
            "matvec": m,
            "lincomb": m * (m + 1) + 1,
        }
        assert counter.lincombs == {2: m * (m + 1), m: 1}

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("tau, tol", [(0.05, 1e-4), (0.02, 1e-10)])
    def test_leja_evaluation_of_j_terms(self, p, tau, tol):
        J = advdiff(60).linearize()
        x = np.random.default_rng(1).standard_normal(60)
        counter = LincombsByLength(60)
        with use_counter(counter):
            _y, j, _est = matfunc._leja_newton(J, x, tau, tol, p)
        assert j > 1
        assert counter.events == {"scale": 1, "matvec": j, "lincomb": 2 * j, "dot": j}
        assert counter.lincombs == {2: 2 * j}


class TestAugmentedOperatorMatchesLincomb:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 40),
        ps=st.sets(st.integers(1, 3), min_size=1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_result_and_counts(self, dim, ps, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim))

        def wide(size):
            # magnitudes over 16 decades, so that the summation order shows
            return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)

        terms = [(p, wide(dim)) for p in sorted(ps)]
        op, x0 = matfunc._augmented(lambda w: A @ w, dim, terms)
        assert x0.size == dim + max(ps) and x0[-1] == 1.0 and not x0[:-1].any()
        x = wide(x0.size)
        ref_counter, fast_counter = fresh_counter(n=dim), fresh_counter(n=dim)
        with use_counter(ref_counter):
            ref = reference_augmented_apply(lambda w: A @ w, dim, terms, x)
        with use_counter(fast_counter):
            fast = op(x)
        assert np.array_equal(fast, ref)
        assert fast_counter.events == ref_counter.events
        assert fast_counter.tally == ref_counter.tally

    def test_operator_of_wrong_length_rejected_before_counting(self):
        counter = fresh_counter(n=3)
        op, x0 = matfunc._augmented(lambda w: np.ones(4), 3, [(1, np.ones(3))])
        with use_counter(counter):
            with pytest.raises(ValueError):
                op(x0)
        assert counter.events == {}


class TestAugmentedOperatorBounds:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 30),
        ps=st.sets(st.integers(1, 3), min_size=1),
        scale_a=st.floats(1e-3, 1e3),
        scale_w=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_contain_gershgorin_box_and_spectrum(self, dim, ps, scale_a, scale_w, seed):
        # the bounds come from A's box widened by W's row sums; they must
        # hold the box of the assembled matrix and every eigenvalue of it,
        # up to a relative slack for the order of the row sums
        rng = np.random.default_rng(seed)
        A = scale_a * rng.standard_normal((dim, dim))
        terms = [(p, scale_w * rng.standard_normal(dim)) for p in sorted(ps)]
        op, x0 = matfunc._augmented(
            Linearization(lambda w: A @ w, lambda: dense_gershgorin(A)), dim, terms
        )
        bounds = op.bounds
        M = dense_from_action(op, x0.size)
        box = dense_gershgorin(M)
        slack = 1e-12 * max(abs(bounds.real_min), abs(bounds.real_max), bounds.imag_halfwidth)
        assert bounds.real_min - slack <= box.real_min
        assert box.real_max <= bounds.real_max + slack
        assert box.imag_halfwidth <= bounds.imag_halfwidth + slack
        eig = np.linalg.eigvals(M)
        assert np.all(bounds.real_min - slack <= eig.real)
        assert np.all(eig.real <= bounds.real_max + slack)
        assert np.all(np.abs(eig.imag) <= bounds.imag_halfwidth + slack)


class TestKrylovPhiAction:
    def test_zero_operator_phi1_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        res = krylov_phi_action(lambda w: np.zeros_like(w), 1, 0.7, v, 1e-12)
        assert np.allclose(res.y, v, atol=1e-14)

    def test_identity_operator_scalar_value(self):
        v = np.array([3.0, 4.0])
        res = krylov_phi_action(lambda w: w, 1, 0.5, v, 1e-12)
        # phi_1(0.5) = (e^0.5 - 1)/0.5
        factor = (math.exp(0.5) - 1.0) / 0.5
        assert factor == pytest.approx(1.297442541, abs=1e-9)
        assert np.allclose(res.y, factor * v, rtol=1e-12)

    def test_zero_vector_short_circuits(self):
        res = krylov_phi_action(lambda w: w, 1, 0.5, np.zeros(4), 1e-12)
        assert res.iterations == 0
        assert np.all(res.y == 0.0)

    def test_request_validation(self):
        # bad input raises before any counted work, in either backend
        pb = advdiff(6)
        c = fresh_counter(pb.n)
        with use_counter(c):
            for p, tau, tol in (
                (5, 0.1, 1e-8), (1, -0.1, 1e-8), (1, 0.0, 1e-8), (1, 0.1, 0.0),
                (1, math.nan, 1e-8), (1, math.inf, 1e-8), (1, 0.1, math.nan), (1, 0.1, math.inf),
            ):
                with pytest.raises(ValueError):
                    krylov_phi_action(pb.rhs, p, tau, np.ones(6), tol)
                with pytest.raises(ValueError):
                    leja_phi_action(pb.linearize(), p, tau, np.ones(6), tol)
        assert c.events == {}


class TestLejaPoints:
    def test_first_three_points_fixed(self):
        assert default_leja_sequence()[:3] == (2.0, -2.0, 0.0)

    def test_fourth_point_maximizes_distance_product(self):
        seq = default_leja_sequence()
        # maximizer of |x-2| |x+2| |x| on [-2, 2] is +-2/sqrt(3)
        assert abs(abs(seq[3]) - 2.0 / math.sqrt(3.0)) < 1e-3
        grid = np.linspace(-2.0, 2.0, 1_000_001)
        brute = grid[np.argmax(np.abs((grid - 2.0) * (grid + 2.0) * grid))]
        assert abs(abs(seq[3]) - abs(brute)) < 1e-3

    def test_points_in_interval_without_duplicates(self):
        seq = default_leja_sequence()
        pts = np.asarray(seq)
        assert len(seq) == matfunc.DEFAULT_LEJA_COUNT
        assert np.all(pts >= -2.0) and np.all(pts <= 2.0)
        assert len(set(seq)) == len(seq)


class TestDividedDifferences:
    def test_single_point_exp(self):
        dd = divided_differences_exp([0.0], 1.0, p=0)
        assert dd[0] == pytest.approx(1.0)

    def test_two_point_formula(self):
        dd = divided_differences_exp([2.0, -2.0], 1.0, p=0)
        expected = (math.exp(2.0) - math.exp(-2.0)) / 4.0
        assert expected == pytest.approx(1.813430204, abs=1e-9)
        assert dd[0] == pytest.approx(math.exp(2.0))
        assert dd[1] == pytest.approx(expected, rel=1e-12)

    def test_scaling_argument(self):
        # divided differences of z -> exp(s z): first entry exp(s x0)
        dd = divided_differences_exp([2.0, -2.0], 0.5, p=0)
        assert dd[0] == pytest.approx(math.exp(1.0))
        assert dd[1] == pytest.approx((math.exp(1.0) - math.exp(-1.0)) / 4.0)

    def test_against_naive_recurrence(self):
        pts = np.asarray(default_leja_sequence()[:8])
        dd = divided_differences_exp(pts, 1.0, p=0)
        naive = np.exp(pts).astype(float)
        for j in range(1, len(pts)):
            for i in range(len(pts) - 1, j - 1, -1):
                naive[i] = (naive[i] - naive[i - 1]) / (pts[i] - pts[i - j])
        assert np.max(np.abs(dd - naive)) < 1e-8

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            divided_differences_exp([1.0, 1.0], 1.0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_single_point_phi_p_limit(self, p):
        # phi_p(0) = 1/p!: the p confluent zero nodes alone
        dd = divided_differences_exp([0.0], 3.0, p)
        assert dd[0] == pytest.approx(1.0 / math.factorial(p), rel=1e-14)

    def test_integer_points_give_float_coefficients(self):
        dd = divided_differences_exp([0, 1], 1)
        assert dd.dtype == np.float64
        assert dd == pytest.approx([1.0, math.e - 1.0], rel=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("scaling", [0.5, 5.0, 20.0, 80.0])
    def test_phi_p_matches_block_phi_formula(self, p, scaling):
        # reference: first column of phi_p of the K x K bidiagonal node matrix
        pts = np.asarray(default_leja_sequence()[:64])
        Z = np.diag(scaling * pts)
        idx = np.arange(pts.size - 1)
        Z[idx + 1, idx] = scaling
        expected = dense_phi(Z, p)[:, 0]
        dd = divided_differences_exp(pts, scaling, p)
        assert np.max(np.abs(dd - expected)) <= 1e-11 * np.max(np.abs(expected))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("scaling", [5.0, 80.0])
    def test_phi_p_against_high_precision_recurrence(self, p, scaling):
        mpmath = pytest.importorskip("mpmath")
        pts = default_leja_sequence()[:40]
        with mpmath.workdps(300):
            # p distinct nodes 1e-60 apart stand in for the confluent zeros
            nodes = [mpmath.mpf(10) ** -60 * (i + 1) for i in range(p)]
            nodes += [scaling * mpmath.mpf(x) for x in pts]
            table = [mpmath.exp(z) for z in nodes]
            dd_exp = [table[0]]
            for j in range(1, len(nodes)):
                table = [
                    (table[i + 1] - table[i]) / (nodes[i + j] - nodes[i])
                    for i in range(len(nodes) - j)
                ]
                dd_exp.append(table[0])
            expected = np.array(
                [float(dd_exp[p + j] * mpmath.mpf(scaling) ** j) for j in range(len(pts))]
            )
        dd = divided_differences_exp(pts, scaling, p)
        assert np.max(np.abs(dd - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("k", [1, 32, 64])
    def test_leading_block_identity(self, p, k):
        pts = np.asarray(default_leja_sequence())
        full = divided_differences_exp(pts, 20.0, p)
        block = divided_differences_exp(pts[:k], 20.0, p)
        assert np.max(np.abs(block - full[:k])) <= 1e-14 * np.max(np.abs(full))


@st.composite
def hessenberg_matrices(draw):
    """Random upper Hessenberg matrices: general ones with norm <= 10, and
    dissipative ones (shifted into the left half-plane) with norm up to 300,
    like tau * H_m of a stiff diffusion operator."""
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    dissipative = draw(st.booleans())
    norm = draw(st.floats(0.1, 300.0 if dissipative else 10.0))
    G = np.triu(np.random.default_rng(seed).standard_normal((m, m)), -1)
    if dissipative:
        G -= (np.max(np.sum(np.abs(G), axis=0)) + 1.0) * np.eye(m)
    return G * (norm / np.linalg.norm(G, 1))


def expm_of_augmented(H, q):
    """The columns hessenberg_phi_e1 returns, read off scipy.linalg.expm of
    the augmented matrix it documents."""
    m = H.shape[0]
    aug = np.zeros((m + q, m + q))
    aug[:m, :m] = H
    aug[0, m] = 1.0
    for k in range(m, m + q - 1):
        aug[k, k + 1] = 1.0
    return scipy.linalg.expm(aug)[:m, [0, *range(m, m + q)]]


@st.composite
def kernel_matrices(draw):
    """Matrices of every shape the Krylov kernel sees or guards: Hessenberg,
    Hessenberg with one zero on the subdiagonal (an invariant block), and
    the triangular ones that expm treats apart: upper triangular (a zero
    subdiagonal), diagonal, and 1 x 1.  The scale spans no squarings to
    many."""
    m = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["hessenberg", "split", "upper", "diagonal"]))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((m, m))
    H = np.diag(np.diag(G)) if kind == "diagonal" else np.triu(G, 0 if kind == "upper" else -1)
    if kind == "split" and m > 1:
        k = int(rng.integers(m - 1))
        H[k + 1, k] = 0.0
    return scale * H


class TestHessenbergPhi:
    @settings(max_examples=300, deadline=None)
    @given(H=kernel_matrices(), q=st.integers(1, 3))
    @example(H=np.array([[-2.5]]), q=1)
    @example(H=np.diag([1e3, -1e3, 0.5]), q=3)
    @example(H=np.triu(np.ones((5, 5))), q=2)
    def test_bit_identical_to_expm_of_augmented_matrix(self, H, q):
        # the kernel replays expm's own computation, so a scipy whose expm
        # computes differently fails here rather than moving results unseen;
        # at the largest scales both overflow alike
        with np.errstate(over="ignore", invalid="ignore"):
            fast, ref = hessenberg_phi_e1(H, q), expm_of_augmented(H, q)
        assert np.array_equal(fast, ref, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(H=hessenberg_matrices(), q=st.integers(1, 3))
    def test_columns_match_dense_phi(self, H, q):
        cols = hessenberg_phi_e1(H, q)
        assert cols.shape == (H.shape[0], q + 1)
        for k in range(q + 1):
            expected = dense_phi(H, k)[:, 0]
            assert np.max(np.abs(cols[:, k] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_zero_matrix_gives_limit_values(self):
        # phi_k(0) e_1 = e_1 / k!
        cols = hessenberg_phi_e1(np.zeros((4, 4)), 3)
        expected = np.zeros((4, 4))
        expected[0] = [1.0 / math.factorial(k) for k in range(4)]
        assert np.allclose(cols, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("z", [-1.5, 0.5])
    def test_diagonal_gives_scalar_phi_values(self, z):
        cols = hessenberg_phi_e1(np.diag([z, 2.0, -3.0]), 3)
        e = math.exp(z)
        scalar = [e, (e - 1.0) / z, (e - 1.0 - z) / z**2, (e - 1.0 - z - z * z / 2.0) / z**3]
        assert cols[0] == pytest.approx(scalar, rel=1e-12)
        assert np.all(cols[1:] == 0.0)

    def test_nilpotent_series_terminates(self):
        # N e_1 = e_2 and N^2 = 0, so phi_k(N) e_1 = e_1 / k! + e_2 / (k+1)!
        cols = hessenberg_phi_e1(np.array([[0.0, 0.0], [1.0, 0.0]]), 3)
        for k in range(4):
            expected = [1.0 / math.factorial(k), 1.0 / math.factorial(k + 1)]
            assert cols[:, k] == pytest.approx(expected, rel=1e-14)

    def test_recurrence(self):
        # H phi_k(H) e_1 = phi_{k-1}(H) e_1 - e_1 / (k-1)!
        rng = np.random.default_rng(3)
        H = np.triu(rng.standard_normal((6, 6)), -1)
        cols = hessenberg_phi_e1(H, 3)
        e1 = np.eye(6)[0]
        for k in (1, 2, 3):
            rhs = cols[:, k - 1] - e1 / math.factorial(k - 1)
            assert np.linalg.norm(H @ cols[:, k] - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_stiff_diffusion_hessenberg(self):
        # Hessenberg matrix of a stiff operator: ||tau H|| ~ 300
        pb = advdiff(60, kappa=1.0)
        A = pb.to_dense()
        _V, H, m, _extended = run_arnoldi(lambda w: A @ w, np.ones(60), 30)
        assert m == 30
        H = H[:30, :30]
        H = H * (300.0 / np.linalg.norm(H, 1))
        cols = hessenberg_phi_e1(H, 3)
        for k in range(4):
            expected = dense_phi(H, k)[:, 0]
            assert np.max(np.abs(cols[:, k] - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestLejaPhiAction:
    def test_requires_bounds(self):
        # an operator without .bounds is rejected before any counted event
        c = fresh_counter(n=2)
        with use_counter(c), pytest.raises(ValueError):
            leja_phi_action(lambda w: w, 1, 0.1, np.ones(2), 1e-8)
        assert c.events == {}

    def test_zero_operator_phi1_is_identity(self):
        pb = advdiff(10)
        v = np.linspace(1.0, 2.0, 10)
        bounds = pb.linearize().bounds
        res = leja_phi_action(Linearization(np.zeros_like, lambda: bounds), 1, 0.3, v, 1e-10)
        assert np.linalg.norm(res.y - v) <= 1e-9

    def test_converged_estimate_below_tolerance(self):
        pb = advdiff(40)
        v = np.ones(40)
        tol = 1e-9
        res = leja_phi_action(pb.linearize(), 1, 0.2, v, tol)
        assert res.final_estimate <= tol

    def test_result_does_not_depend_on_cache_history(self):
        # tol=1e-4 runs past the first block of 32 points, tol=1e-12 past
        # the second: the short evaluation must read the same coefficients
        # whether it fills the cache itself or finds the longer one's entries
        pb = advdiff(50, kappa=1.0)
        v = np.random.default_rng(9).standard_normal(50)

        def run(tol):
            return leja_phi_action(pb.linearize(), 1, 0.02, v, tol)

        matfunc._cached_shifted_dd.cache_clear()
        cold = run(1e-4)
        matfunc._cached_shifted_dd.cache_clear()
        longer = run(1e-12)
        warm = run(1e-4)
        assert cold.substeps == longer.substeps == 1
        assert 32 < cold.iterations <= 64 < longer.iterations
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.y, cold.y)

    def test_exhausted_point_budget_counts_its_applies(self, monkeypatch):
        # 16 points run out before tol=1e-10 is met, so the evaluation
        # substeps after budget failures rather than diverging terms
        pb = advdiff(30)
        points = default_leja_sequence()[:16]
        monkeypatch.setattr(matfunc, "default_leja_sequence", lambda: points)
        c = fresh_counter(30)
        with use_counter(c):
            res = leja_phi_action(pb.linearize(), 1, 0.1, np.ones(30), 1e-10)
        assert res.substeps > 1
        assert res.iterations == c.count("matvec")


def operator(pb, backend):
    """The operator a backend's action is tested on: a bare callable for
    Krylov, which needs no spectral bounds, and the linearization for Leja."""
    return (lambda w: pb.rhs(w)) if backend == "krylov" else pb.linearize()


class TestPhiAction:
    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("backend,seed", [("krylov", 8), ("leja", 9)], ids=["krylov", "leja"])
    def test_dense_oracle_n50(self, backend, seed, p):
        pb = advdiff(50)
        dense = pb.to_dense()
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(50)
        tau = 0.25
        res = ACTIONS[backend](operator(pb, backend), p, tau, v, 1e-12)
        oracle = dense_phi(tau * dense, p) @ v
        assert np.linalg.norm(res.y - oracle) / np.linalg.norm(oracle) <= 1e-10

    @pytest.mark.parametrize("backend", ACTIONS)
    def test_iterations_match_matvec_count(self, backend):
        pb = advdiff(30)
        v = np.ones(30)
        c = fresh_counter(30)
        with use_counter(c):
            res = ACTIONS[backend](operator(pb, backend), 1, 0.1, v, 1e-10)
        assert res.iterations == c.count("matvec")

    @pytest.mark.parametrize("backend", ACTIONS)
    def test_substepped_iterations_match_matvec_count(self, backend):
        pb, v, tau, tol = stiff_case()
        c = fresh_counter(pb.n)
        with use_counter(c):
            res = ACTIONS[backend](operator(pb, backend), 1, tau, v, tol)
        assert res.substeps > 1
        assert res.iterations == c.count("matvec")
        assert (res.iterations, res.substeps, c.events) == STIFF_COUNTS[backend]


class TestPhiLinearCombination:
    def test_single_term_matches_direct_evaluator(self):
        pb = advdiff(24)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(24)
        tau = 0.25
        direct = krylov_phi_action(lambda x: pb.rhs(x), 1, tau, w, 1e-12)
        for backend in ("krylov", "leja"):
            res = phi_linear_combination(
                pb.linearize(),
                tau,
                [(1, w)],
                1e-12,
                backend=backend,
            )
            ref = tau * direct.y
            assert np.linalg.norm(res.y - ref) / np.linalg.norm(ref) <= 1e-10

    def test_zero_terms_give_zero(self):
        pb = advdiff(10)
        res = phi_linear_combination(
            lambda x: pb.rhs(x),
            0.5,
            [(1, np.zeros(10)), (3, np.zeros(10))],
            1e-10,
            backend="krylov",
        )
        assert np.all(res.y == 0.0)

    def test_zero_terms_without_leja_bounds_raise(self):
        pb = advdiff(10)
        c = fresh_counter(pb.n)
        with use_counter(c):
            with pytest.raises(ValueError):
                phi_linear_combination(
                    lambda x: pb.rhs(x), 0.5, [(1, np.zeros(10)), (3, np.zeros(10))], 1e-10,
                    backend="leja",
                )
            with pytest.raises(ValueError):
                leja_phi_action(lambda x: pb.rhs(x), 1, 0.5, np.zeros(10), 1e-10)
        assert c.events == {}

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_two_term_combination_against_per_term_oracle(self, backend):
        pb = advdiff(20)
        dense = pb.to_dense()
        rng = np.random.default_rng(13)
        w1 = rng.standard_normal(20)
        w3 = rng.standard_normal(20)
        tau = 0.25
        oracle = tau * dense_phi(tau * dense, 1) @ w1 + tau**3 * dense_phi(tau * dense, 3) @ w3
        res = phi_linear_combination(
            pb.linearize(),
            tau,
            [(1, w1), (3, w3)],
            1e-11,
            backend=backend,
        )
        assert np.linalg.norm(res.y - oracle) / np.linalg.norm(oracle) <= 1e-9

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_substepped_iterations_match_matvec_count(self, backend):
        pb, v, tau, tol = stiff_case()
        c = fresh_counter(pb.n)
        with use_counter(c):
            res = phi_linear_combination(
                pb.linearize(),
                tau,
                [(1, v), (3, np.sin(np.arange(pb.n)))],
                tol,
                backend=backend,
            )
        assert res.substeps > 1
        assert res.iterations == c.count("matvec")
        expected = STIFF_COUNTS[f"combination-{backend}"]
        assert (res.iterations, res.substeps, c.events) == expected

    def test_validation(self):
        pb = advdiff(6)
        with pytest.raises(ValueError):
            phi_linear_combination(pb.rhs, 0.5, [], 1e-8, "krylov")
        with pytest.raises(ValueError):
            phi_linear_combination(pb.rhs, 0.5, [(1, np.ones(6)), (1, np.ones(6))], 1e-8, "krylov")
        with pytest.raises(ValueError):
            phi_linear_combination(pb.rhs, 0.5, [(0, np.ones(6))], 1e-8, "krylov")
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau must be positive"):
                phi_linear_combination(pb.rhs, tau, [(1, np.ones(6))], 1e-8, "krylov")
        c = fresh_counter(pb.n)
        with use_counter(c), pytest.raises(ValueError):
            # pb.rhs has no bounds
            phi_linear_combination(pb.rhs, 0.5, [(1, np.ones(6))], 1e-8, "leja")
        assert c.events == {}
        # terms must be 1-D vectors of one length, checked before counted work
        pb = advdiff(16)
        w1 = pb.initial_state()
        c = fresh_counter(pb.n)
        with use_counter(c):
            for backend in ("krylov", "leja"):
                for w3 in (np.ones(1), np.ones(8), np.ones((16, 1))):
                    with pytest.raises(ValueError, match="1-D vectors of one length"):
                        phi_linear_combination(
                            pb.linearize(), 0.5, [(1, w1), (3, w3)], 1e-8, backend
                        )
        assert c.events == {}

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_tol_raises_before_any_work(self, backend, tol):
        pb = advdiff(49)
        c = fresh_counter(pb.n)
        with use_counter(c), pytest.raises(ValueError, match="tol must be positive"):
            phi_linear_combination(
                pb.linearize(), 0.5, [(1, pb.initial_state())], tol, backend=backend
            )
        assert c.events == {}


class TestSubstepping:
    def test_stiff_step_falls_back_to_substeps_and_stays_accurate(self):
        # large tau * spectral radius forces the substepped path
        pb = advdiff(159)
        dense = pb.to_dense()
        v = pb.initial_state()
        tau = 1.0
        oracle = dense_phi(tau * dense, 1) @ v
        for res in (
            krylov_phi_action(lambda w: pb.rhs(w), 1, tau, v, 1e-8),
            leja_phi_action(pb.linearize(), 1, tau, v, 1e-8),
        ):
            assert np.linalg.norm(res.y - oracle) <= 1e-7

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_substepped_exponential_counts(self, backend):
        # p = 0 chains substeps of A itself, starting from v uncopied
        pb, v, tau, tol = stiff_case()
        c = fresh_counter(pb.n)
        with use_counter(c):
            res = ACTIONS[backend](pb.linearize(), 0, tau, v, tol)
        assert np.array_equal(v, pb.initial_state())
        assert np.linalg.norm(res.y - dense_phi(tau * pb.to_dense(), 0) @ v) <= 1e-7
        assert res.iterations == c.count("matvec")
        assert (res.iterations, res.substeps, c.events) == STIFF_COUNTS[f"{backend}-p0"]

    def test_non_normal_ns_jacobian_against_dense_oracle(self):
        # the NS Jacobian is non-normal with a complex spectrum; Leja sees
        # only its real interval and substeps through the augmented operator
        ns = NavierStokesProblem(8, 1e-6)
        u = ns.initial_state()
        applyJ = ns.linearize(u)
        J = dense_from_action(applyJ, ns.dimension)
        v = ns.rhs(u)
        tol = 1e-10
        for tau in (0.25, 1.0, 4.0):
            for p in (0, 1, 3):
                oracle = dense_phi(tau * J, p) @ v
                for backend, res in (
                    ("krylov", krylov_phi_action(applyJ, p, tau, v, tol)),
                    ("leja", leja_phi_action(applyJ, p, tau, v, tol)),
                ):
                    assert np.linalg.norm(res.y - oracle) <= tol, (backend, tau, p)


class TestPhiFailure:
    """With SUBSTEP_CAP = 1 the stiff case cannot converge, and each layer
    reports the operator applications it spent."""

    @pytest.fixture(autouse=True)
    def one_substep(self, monkeypatch):
        monkeypatch.setattr(matfunc, "SUBSTEP_CAP", 1)

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_actions_raise_not_converged_with_counted_applies(self, backend):
        pb, v, tau, tol = stiff_case()
        for action in (
            lambda J: ACTIONS[backend](J, 1, tau, v, tol),
            lambda J: phi_linear_combination(J, tau, [(1, v)], tol, backend),
        ):
            c = fresh_counter(pb.n)
            with use_counter(c), pytest.raises(NotConverged) as exc:
                action(pb.linearize())
            assert exc.value.applies == c.count("matvec") > 0

    @pytest.mark.parametrize("method", EXPONENTIAL_METHODS)
    def test_integrate_raises_phi_convergence_error_with_partial_counter(self, method):
        pb, u0, tau, _tol = stiff_case()
        with pytest.raises(PhiConvergenceError, match="in step 1,") as exc:
            integrate(pb, MethodConfig(method=method, tau=tau, tol=1e-7), u0, 1.0)
        assert exc.value.steps == 0
        assert isinstance(exc.value.__cause__, NotConverged)
        # the step's one rhs evaluation, then the applies of the failed action
        assert exc.value.counter.count("matvec") == 1 + exc.value.__cause__.applies

    def test_run_experiment_records_failed_cells(self):
        pb, u0, tau, _tol = stiff_case()
        spec = ExperimentSpec(
            problem="advdiff", n=pb.n, methods=EXPONENTIAL_METHODS, taus=(tau,),
            tols=(1e-7,), zetas=(1.0,), t_end=1.0,
        )
        records = run_experiment(spec, problem=pb)
        assert [r.method for r in records] == list(EXPONENTIAL_METHODS)
        for r in records:
            with pytest.raises(PhiConvergenceError) as exc:
                integrate(pb, MethodConfig(method=r.method, tau=tau, tol=1e-7), u0, 1.0)
            counter = exc.value.counter
            assert (r.error, r.converged, r.steps) == (math.inf, False, 0)
            assert r.counts == {p: counter.count(p) for p in CSV_PRIMITIVES}
            assert r.counts["matvec"] > 1
            assert r.total_cost == counter.total_cost(1.0)


class TestCachesUnderThreads:
    def test_threads_share_both_caches_without_changing_results(self):
        # 2 operators x 40 step sizes give 80 distinct (tau, bounds) keys, more
        # than the 64 entries of the divided-difference cache; each thread
        # starts at a different case, so the threads evict each other's entries
        problems = [advdiff(20, kappa) for kappa in (1.0 / 80.0, 1.0 / 2560.0)]
        cases = [(pb, tau) for pb in problems for tau in np.geomspace(0.01, 0.4, 40)]
        v = np.sin(np.arange(20.0))

        def run(order):
            counter = fresh_counter(20)
            results = {}
            with use_counter(counter):
                for i in order:
                    pb, tau = cases[i]
                    results[i] = leja_phi_action(pb.linearize(), 1, tau, v, 1e-8)
            return results, counter.events

        matfunc._cached_shifted_dd.cache_clear()
        matfunc.default_leja_sequence.cache_clear()
        serial, serial_events = run(range(len(cases)))
        matfunc._cached_shifted_dd.cache_clear()
        matfunc.default_leja_sequence.cache_clear()
        outputs, errors = [None] * 4, []

        def work(k):
            try:
                order = [(i + 20 * k) % len(cases) for i in range(len(cases))]
                outputs[k] = run(order)
            except Exception as exc:  # noqa: BLE001  (reported by the assert below)
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        info = matfunc._cached_shifted_dd.cache_info()
        assert info.misses > info.maxsize == 64
        for results, events in outputs:
            assert events == serial_events
            for i, res in serial.items():
                assert results[i].iterations == res.iterations
                assert np.array_equal(results[i].y, res.y)
