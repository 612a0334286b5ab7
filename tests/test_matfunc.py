import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expbench import matfunc
from expbench.counting import ADVDIFF_1D
from expbench.linalg import (
    build_advdiff_operator,
    copy_vector,
    dense_phi,
    dot,
    gershgorin_bounds,
    lincomb,
    norm2,
    scale,
)
from expbench.matfunc import (
    KrylovState,
    LejaSequence,
    PhiActionRequest,
    arnoldi_extend,
    arnoldi_start,
    default_leja_sequence,
    divided_differences_exp,
    generate_leja_points,
    hessenberg_phi_e1,
    krylov_phi_action,
    leja_phi_action,
    phi_linear_combination,
)
from expbench.problems import AdvDiffProblem, NavierStokesProblem, advdiff_kappa

from conftest import dense_from_action, fresh_counter, use_counter


def advdiff(n, kappa=1.0 / 80.0):
    return AdvDiffProblem(n, advdiff_kappa(("const", kappa)))


def stiff_case():
    """(problem, v, tau, tol) of a phi_1 action that only converges on the
    substepped path."""
    pb = advdiff(159)
    return pb, pb.initial_state(), 1.0, 1e-8


# (iterations, substeps, counted events) of the stiff calls, pinned so that a
# change to the substep loop cannot move the counted cost unnoticed
STIFF_COUNTS = {
    "krylov": (485, 4, {"dot": 42635, "lincomb": 42533, "matvec": 485, "scale": 492}),
    "leja": (
        564, 4, {"dot": 564, "fetch": 6, "lincomb": 1589, "matvec": 564, "scale": 7, "store": 6}
    ),
    "combination-krylov": (
        505, 4, {"dot": 45063, "lincomb": 45061, "matvec": 505, "scale": 511}
    ),
    "combination-leja": (
        588, 4, {"dot": 588, "fetch": 6, "lincomb": 1764, "matvec": 588, "scale": 6, "store": 6}
    ),
}


class TestArnoldi:
    def test_identity_breaks_down_immediately(self):
        v = np.array([0.6, 0.8])
        state = arnoldi_start(v)
        arnoldi_extend(lambda w: w, state)
        assert state.invariant
        assert state.H[0, 0] == pytest.approx(1.0)
        assert len(state.V) == 1

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            arnoldi_start(np.zeros(3))

    def test_arnoldi_relation_and_orthonormality(self):
        pb = advdiff(12)
        A = pb.operator.to_dense()
        rng = np.random.default_rng(5)
        v = rng.standard_normal(12)
        state = arnoldi_start(v)
        for m in range(1, 7):
            arnoldi_extend(lambda w: A @ w, state)
            V = np.column_stack(state.V)
            G = V.T @ V
            assert np.linalg.norm(G - np.eye(V.shape[1])) < 1e-10
        Vm = np.column_stack(state.V[: state.m])
        Vext = np.column_stack(state.V)
        Htilde = state.H[: state.m + 1, : state.m]
        assert np.linalg.norm(A @ Vm - Vext @ Htilde) < 1e-12 * np.linalg.norm(A)

    def test_cap_enforced(self):
        state = arnoldi_start(np.array([1.0, 0.0]), m_max=1)
        arnoldi_extend(lambda w: np.array([w[1], -w[0]]), state)
        with pytest.raises(Exception):
            arnoldi_extend(lambda w: np.array([w[1], -w[0]]), state)


def reference_arnoldi(applyA, v, m_max, steps):
    """The Arnoldi loop on a list basis, every operation through the counted
    primitives, one record per call: (V, H, m, invariant)."""
    beta = norm2(v)
    V = [scale(1.0 / beta, v)]
    H = np.zeros((m_max + 1, m_max))
    m, invariant = 0, False
    while m < min(steps, m_max) and not invariant:
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
    """(operator, start vector, m_max, steps): random dense operators, the
    identity (breakdown at step 1) and the reversal, which returns a view of
    its input (breakdown at step 2)."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["dense", "identity", "reverse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    ops = {"dense": lambda w: A @ w, "identity": lambda w: w, "reverse": lambda w: w[::-1]}
    steps = draw(st.integers(1, min(n, 30)))
    m_max = draw(st.integers(1, steps + 2))
    return ops[kind], rng.standard_normal(n), m_max, steps


class TestArnoldiMatchesCountedPrimitives:
    @settings(max_examples=80, deadline=None)
    @given(case=arnoldi_cases())
    def test_bit_identical_basis_hessenberg_and_counts(self, case):
        applyA, v, m_max, steps = case
        ref_counter, fast_counter = fresh_counter(n=v.size), fresh_counter(n=v.size)
        with use_counter(ref_counter):
            V, H, m, invariant = reference_arnoldi(applyA, v, m_max, steps)
        with use_counter(fast_counter):
            state = arnoldi_start(v, m_max=m_max)
            while state.m < min(steps, m_max) and not state.invariant:
                arnoldi_extend(applyA, state)
        assert (state.m, state.invariant) == (m, invariant)
        assert np.array_equal(state.H, H)
        assert len(state.V) == len(V)
        for fast, ref in zip(state.V, V):
            assert np.array_equal(fast, ref)
        assert fast_counter.events == ref_counter.events
        assert fast_counter.lincomb_weight == ref_counter.lincomb_weight

    def test_operator_of_wrong_length_rejected_before_counting(self):
        counter = fresh_counter(n=3)
        state = arnoldi_start(np.ones(3))
        with use_counter(counter):
            with pytest.raises(ValueError):
                arnoldi_extend(lambda w: np.ones(4), state)
        assert counter.events == {}


def reference_leja_newton(applyA, x, t, tol_abs, p, c, gamma, points):
    """The Newton loop of matfunc._leja_newton through the counted
    primitives: (y, applies, estimate), or the applies of _NotConverged."""
    xi = tuple(points)
    block = min(matfunc._DD_BLOCK, len(xi))
    dd = matfunc._cached_shifted_dd(xi[:block], c, gamma, t, p)
    r = copy_vector(x)
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
        if small and prev_small and j >= 2:
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
        pb = advdiff(n, kappa)
        c, gamma = matfunc._leja_interval(pb.linearize().bounds)
        x = np.random.default_rng(seed).standard_normal(n)
        points = default_leja_sequence().points
        ref_counter, fast_counter = fresh_counter(n=n), fresh_counter(n=n)
        with use_counter(ref_counter):
            ref = reference_leja_newton(pb.rhs, x, t, tol, p, c, gamma, points)
        with use_counter(fast_counter):
            try:
                fast = matfunc._leja_newton(pb.rhs, x, t, tol, p, c, gamma, points)
            except matfunc._NotConverged as exc:
                fast = exc.applies
        if isinstance(ref, tuple):
            assert np.array_equal(fast[0], ref[0])
            assert fast[1:] == ref[1:]
        else:
            assert fast == ref
        assert fast_counter.events == ref_counter.events
        assert fast_counter.lincomb_weight == ref_counter.lincomb_weight

    def test_operator_of_wrong_length_rejected_before_lincomb(self):
        counter = fresh_counter(n=3)
        with use_counter(counter):
            with pytest.raises(ValueError):
                matfunc._leja_newton(
                    lambda w: np.ones(4), np.ones(3), 0.1, 1e-8, 0, -1.0, 1.0,
                    default_leja_sequence().points,
                )
        assert counter.count("lincomb") == 0


def reference_augmented_apply(op, x):
    """_AugmentedOperator.__call__ through the counted lincomb."""
    top = op.applyA(x[: op.dim])
    top = lincomb([1.0] + [x[op.dim + i] for i in range(op.q)], [top] + op.columns)
    bot = np.zeros(op.q)
    bot[:-1] = x[op.dim + 1 :]
    return np.concatenate([top, bot])


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
        op = matfunc._AugmentedOperator(lambda w: A @ w, dim, terms)
        x = wide(dim + op.q)
        ref_counter, fast_counter = fresh_counter(n=dim), fresh_counter(n=dim)
        with use_counter(ref_counter):
            ref = reference_augmented_apply(op, x)
        with use_counter(fast_counter):
            fast = op(x)
        assert np.array_equal(fast, ref)
        assert fast_counter.events == ref_counter.events
        assert fast_counter.lincomb_weight == ref_counter.lincomb_weight

    def test_operator_of_wrong_length_rejected_before_counting(self):
        counter = fresh_counter(n=3)
        op = matfunc._AugmentedOperator(lambda w: np.ones(4), 3, [(1, np.ones(3))])
        with use_counter(counter):
            with pytest.raises(ValueError):
                op(op.start_vector())
        assert counter.events == {}


class TestKrylovPhiAction:
    def test_zero_operator_phi1_is_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        res = krylov_phi_action(
            lambda w: np.zeros_like(w),
            PhiActionRequest(p=1, tau=0.7, v=v, tol=1e-12),
        )
        assert res.converged
        assert np.allclose(res.y, v, atol=1e-14)

    def test_identity_operator_scalar_value(self):
        v = np.array([3.0, 4.0])
        res = krylov_phi_action(
            lambda w: w, PhiActionRequest(p=1, tau=0.5, v=v, tol=1e-12)
        )
        # phi_1(0.5) = (e^0.5 - 1)/0.5
        factor = (math.exp(0.5) - 1.0) / 0.5
        assert factor == pytest.approx(1.297442541, abs=1e-9)
        assert np.allclose(res.y, factor * v, rtol=1e-12)

    def test_zero_vector_short_circuits(self):
        res = krylov_phi_action(
            lambda w: w, PhiActionRequest(p=1, tau=0.5, v=np.zeros(4), tol=1e-12)
        )
        assert res.converged and res.iterations == 0
        assert np.all(res.y == 0.0)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_dense_oracle_n50(self, p):
        pb = advdiff(50)
        dense = pb.operator.to_dense()
        rng = np.random.default_rng(8)
        v = rng.standard_normal(50)
        tau = 0.25
        res = krylov_phi_action(
            lambda w: pb.rhs(w), PhiActionRequest(p=p, tau=tau, v=v, tol=1e-12)
        )
        oracle = dense_phi(tau * dense, p) @ v
        assert res.converged
        assert np.linalg.norm(res.y - oracle) / np.linalg.norm(oracle) <= 1e-10

    def test_iterations_match_matvec_count(self):
        pb = advdiff(30)
        v = np.ones(30)
        c = fresh_counter(ADVDIFF_1D, 30)
        with use_counter(c):
            res = krylov_phi_action(
                lambda w: pb.rhs(w), PhiActionRequest(p=1, tau=0.1, v=v, tol=1e-10)
            )
        assert res.converged
        assert res.iterations == c.count("matvec")

    def test_substepped_iterations_match_matvec_count(self):
        pb, v, tau, tol = stiff_case()
        c = fresh_counter(ADVDIFF_1D, pb.n)
        with use_counter(c):
            res = krylov_phi_action(
                lambda w: pb.rhs(w), PhiActionRequest(p=1, tau=tau, v=v, tol=tol)
            )
        assert res.converged and res.substeps > 1
        assert res.iterations == c.count("matvec")
        assert (res.iterations, res.substeps, c.events) == STIFF_COUNTS["krylov"]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            PhiActionRequest(p=5, tau=0.1, v=np.ones(2), tol=1e-8)
        with pytest.raises(ValueError):
            PhiActionRequest(p=1, tau=-0.1, v=np.ones(2), tol=1e-8)
        with pytest.raises(ValueError):
            PhiActionRequest(p=1, tau=0.1, v=np.ones(2), tol=0.0)


class TestLejaPoints:
    def test_first_three_points_fixed(self):
        seq = generate_leja_points(8)
        assert seq.points[:3] == (2.0, -2.0, 0.0)

    def test_fourth_point_maximizes_distance_product(self):
        seq = generate_leja_points(8)
        # maximizer of |x-2| |x+2| |x| on [-2, 2] is +-2/sqrt(3)
        assert abs(abs(seq.points[3]) - 2.0 / math.sqrt(3.0)) < 1e-3
        grid = np.linspace(-2.0, 2.0, 1_000_001)
        brute = grid[np.argmax(np.abs((grid - 2.0) * (grid + 2.0) * grid))]
        assert abs(abs(seq.points[3]) - abs(brute)) < 1e-3

    def test_points_in_interval_without_duplicates(self):
        seq = generate_leja_points(64)
        pts = np.asarray(seq.points)
        assert np.all(pts >= -2.0) and np.all(pts <= 2.0)
        assert len(set(seq.points)) == len(seq.points)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_leja_points(0)
        with pytest.raises(ValueError):
            generate_leja_points(100, grid_resolution=10)


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
        pts = np.asarray(generate_leja_points(8).points)
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
    @pytest.mark.parametrize("scaling", [0.5, 5.0, 20.0, 80.0])
    def test_phi_p_matches_block_phi_formula(self, p, scaling):
        # reference: first column of phi_p of the K x K bidiagonal node matrix
        pts = np.asarray(default_leja_sequence().points[:64])
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
        pts = default_leja_sequence().points[:40]
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
        pts = np.asarray(default_leja_sequence().points)
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


class TestHessenbergPhi:
    @settings(max_examples=60, deadline=None)
    @given(H=hessenberg_matrices(), q=st.integers(1, 3))
    def test_columns_match_dense_phi(self, H, q):
        cols = hessenberg_phi_e1(H, q)
        assert cols.shape == (H.shape[0], q + 1)
        for k in range(q + 1):
            expected = dense_phi(H, k)[:, 0]
            assert np.max(np.abs(cols[:, k] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_stiff_diffusion_hessenberg(self):
        # Hessenberg matrix of a stiff operator: ||tau H|| ~ 300
        pb = advdiff(60, kappa=1.0)
        A = pb.operator.to_dense()
        state = arnoldi_start(np.ones(60))
        for _ in range(30):
            arnoldi_extend(lambda w: A @ w, state)
        H = state.H[:30, :30]
        H = H * (300.0 / np.linalg.norm(H, 1))
        cols = hessenberg_phi_e1(H, 3)
        for k in range(4):
            expected = dense_phi(H, k)[:, 0]
            assert np.max(np.abs(cols[:, k] - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestLejaPhiAction:
    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            leja_phi_action(
                lambda w: w, PhiActionRequest(p=1, tau=0.1, v=np.ones(2), tol=1e-8)
            )

    def test_zero_operator_phi1_is_identity(self):
        pb = advdiff(10)
        v = np.linspace(1.0, 2.0, 10)
        res = leja_phi_action(
            lambda w: np.zeros_like(w),
            PhiActionRequest(p=1, tau=0.3, v=v, tol=1e-10, bounds=pb.linearize().bounds),
        )
        assert res.converged
        assert np.linalg.norm(res.y - v) <= 1e-9

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_dense_oracle_n50(self, p):
        pb = advdiff(50)
        dense = pb.operator.to_dense()
        rng = np.random.default_rng(9)
        v = rng.standard_normal(50)
        tau = 0.25
        res = leja_phi_action(
            lambda w: pb.rhs(w),
            PhiActionRequest(p=p, tau=tau, v=v, tol=1e-12, bounds=pb.linearize().bounds),
        )
        oracle = dense_phi(tau * dense, p) @ v
        assert res.converged
        assert np.linalg.norm(res.y - oracle) / np.linalg.norm(oracle) <= 1e-10

    def test_converged_estimate_below_tolerance(self):
        pb = advdiff(40)
        v = np.ones(40)
        tol = 1e-9
        res = leja_phi_action(
            lambda w: pb.rhs(w),
            PhiActionRequest(p=1, tau=0.2, v=v, tol=tol, bounds=pb.linearize().bounds),
        )
        assert res.converged
        assert res.final_estimate <= tol

    def test_result_does_not_depend_on_cache_history(self):
        # tol=1e-4 runs past the first block of 32 points, tol=1e-12 past
        # the second: the short evaluation must read the same coefficients
        # whether it fills the cache itself or finds the longer one's entries
        pb = advdiff(50, kappa=1.0)
        v = np.random.default_rng(9).standard_normal(50)

        def run(tol):
            return leja_phi_action(
                lambda w: pb.rhs(w),
                PhiActionRequest(p=1, tau=0.02, v=v, tol=tol, bounds=pb.linearize().bounds),
            )

        matfunc._DD_CACHE.clear()
        cold = run(1e-4)
        matfunc._DD_CACHE.clear()
        longer = run(1e-12)
        warm = run(1e-4)
        assert cold.substeps == longer.substeps == 1
        assert 32 < cold.iterations <= 64 < longer.iterations
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.y, cold.y)

    def test_iterations_match_matvec_count(self):
        pb = advdiff(30)
        v = np.ones(30)
        c = fresh_counter(ADVDIFF_1D, 30)
        with use_counter(c):
            res = leja_phi_action(
                lambda w: pb.rhs(w),
                PhiActionRequest(p=1, tau=0.1, v=v, tol=1e-10, bounds=pb.linearize().bounds),
            )
        assert res.converged
        assert res.iterations == c.count("matvec")

    def test_substepped_iterations_match_matvec_count(self):
        pb, v, tau, tol = stiff_case()
        c = fresh_counter(ADVDIFF_1D, pb.n)
        with use_counter(c):
            res = leja_phi_action(
                lambda w: pb.rhs(w),
                PhiActionRequest(p=1, tau=tau, v=v, tol=tol, bounds=pb.linearize().bounds),
            )
        assert res.converged and res.substeps > 1
        assert res.iterations == c.count("matvec")
        assert (res.iterations, res.substeps, c.events) == STIFF_COUNTS["leja"]

    def test_exhausted_point_budget_counts_its_applies(self):
        # 16 points run out before tol=1e-10 is met, so the evaluation
        # substeps after budget failures rather than diverging terms
        pb = advdiff(30)
        points = LejaSequence(default_leja_sequence().points[:16])
        c = fresh_counter(ADVDIFF_1D, 30)
        with use_counter(c):
            res = leja_phi_action(
                lambda w: pb.rhs(w),
                PhiActionRequest(
                    p=1, tau=0.1, v=np.ones(30), tol=1e-10, bounds=pb.linearize().bounds
                ),
                points=points,
            )
        assert res.converged and res.substeps > 1
        assert res.iterations == c.count("matvec")


class TestPhiLinearCombination:
    def test_single_term_matches_direct_evaluator(self):
        pb = advdiff(24)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(24)
        tau = 0.25
        direct = krylov_phi_action(
            lambda x: pb.rhs(x), PhiActionRequest(p=1, tau=tau, v=w, tol=1e-12)
        )
        for backend in ("krylov", "leja"):
            res = phi_linear_combination(
                lambda x: pb.rhs(x),
                tau,
                [(1, w)],
                1e-12,
                bounds=pb.linearize().bounds,
                backend=backend,
            )
            assert res.converged
            ref = tau * direct.y
            assert np.linalg.norm(res.y - ref) / np.linalg.norm(ref) <= 1e-10

    def test_zero_terms_give_zero(self):
        pb = advdiff(10)
        res = phi_linear_combination(
            lambda x: pb.rhs(x),
            0.5,
            [(1, np.zeros(10)), (3, np.zeros(10))],
            1e-10,
            bounds=pb.linearize().bounds,
            backend="krylov",
        )
        assert res.converged
        assert np.all(res.y == 0.0)

    def test_zero_terms_without_leja_bounds_raise(self):
        pb = advdiff(10)
        with pytest.raises(ValueError):
            phi_linear_combination(
                lambda x: pb.rhs(x), 0.5, [(1, np.zeros(10)), (3, np.zeros(10))], 1e-10,
                bounds=None, backend="leja",
            )
        with pytest.raises(ValueError):
            leja_phi_action(
                lambda x: pb.rhs(x), PhiActionRequest(p=1, tau=0.5, v=np.zeros(10), tol=1e-10)
            )

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_two_term_combination_against_per_term_oracle(self, backend):
        pb = advdiff(20)
        dense = pb.operator.to_dense()
        rng = np.random.default_rng(13)
        w1 = rng.standard_normal(20)
        w3 = rng.standard_normal(20)
        tau = 0.25
        oracle = tau * dense_phi(tau * dense, 1) @ w1 + tau**3 * dense_phi(tau * dense, 3) @ w3
        res = phi_linear_combination(
            lambda x: pb.rhs(x),
            tau,
            [(1, w1), (3, w3)],
            1e-11,
            bounds=pb.linearize().bounds,
            backend=backend,
        )
        assert res.converged
        assert np.linalg.norm(res.y - oracle) / np.linalg.norm(oracle) <= 1e-9

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_substepped_iterations_match_matvec_count(self, backend):
        pb, v, tau, tol = stiff_case()
        c = fresh_counter(ADVDIFF_1D, pb.n)
        with use_counter(c):
            res = phi_linear_combination(
                lambda w: pb.rhs(w),
                tau,
                [(1, v), (3, np.sin(np.arange(pb.n)))],
                tol,
                bounds=pb.linearize().bounds,
                backend=backend,
            )
        assert res.converged and res.substeps > 1
        assert res.iterations == c.count("matvec")
        expected = STIFF_COUNTS[f"combination-{backend}"]
        assert (res.iterations, res.substeps, c.events) == expected

    def test_validation(self):
        pb = advdiff(6)
        with pytest.raises(ValueError):
            phi_linear_combination(pb.rhs, 0.5, [], 1e-8, backend="krylov")
        with pytest.raises(ValueError):
            phi_linear_combination(
                pb.rhs, 0.5, [(1, np.ones(6)), (1, np.ones(6))], 1e-8, backend="krylov"
            )
        with pytest.raises(ValueError):
            phi_linear_combination(pb.rhs, 0.5, [(0, np.ones(6))], 1e-8, backend="krylov")
        with pytest.raises(ValueError):
            phi_linear_combination(pb.rhs, 0.5, [(1, np.ones(6))], 1e-8, backend="leja")

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_raises_before_any_work(self, backend, tol):
        pb = advdiff(49)
        c = fresh_counter(ADVDIFF_1D, pb.n)
        with use_counter(c), pytest.raises(ValueError, match="tol must be positive"):
            phi_linear_combination(
                lambda w: pb.rhs(w), 0.5, [(1, pb.initial_state())], tol,
                bounds=pb.linearize().bounds, backend=backend,
            )
        assert c.events == {}


class TestSubstepping:
    def test_stiff_step_falls_back_to_substeps_and_stays_accurate(self):
        # large tau * spectral radius forces the substepped path
        pb = advdiff(159)
        dense = pb.operator.to_dense()
        v = pb.initial_state()
        tau = 1.0
        oracle = dense_phi(tau * dense, 1) @ v
        for backend, kwargs in (
            ("krylov", {}),
            ("leja", {"bounds": pb.linearize().bounds}),
        ):
            req = PhiActionRequest(p=1, tau=tau, v=v, tol=1e-8, **kwargs)
            fn = krylov_phi_action if backend == "krylov" else leja_phi_action
            res = fn(lambda w: pb.rhs(w), req)
            assert res.converged
            assert np.linalg.norm(res.y - oracle) <= 1e-7

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
                for fn, bounds in (
                    (krylov_phi_action, None),
                    (leja_phi_action, applyJ.bounds),
                ):
                    res = fn(applyJ, PhiActionRequest(p=p, tau=tau, v=v, tol=tol, bounds=bounds))
                    assert res.converged
                    assert np.linalg.norm(res.y - oracle) <= tol, (fn.__name__, tau, p)
