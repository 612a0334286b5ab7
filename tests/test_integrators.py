import math

import numpy as np
import pytest
from scipy.linalg import expm

from expbench import integrators
from expbench.integrators import (
    InstabilityError,
    METHODS,
    MethodConfig,
    integrate,
    exprb42_step,
    exprb_euler_step,
    rk2_step,
    rk4_step,
)
from expbench.matfunc import EVALUATORS
from expbench.problems import AdvDiffProblem, NavierStokesProblem

from conftest import DenseLinearProblem, fresh_counter, use_counter


def scalar_decay():
    return DenseLinearProblem(np.array([[-1.0]]))


class TestMethodConfig:
    def test_valid_methods(self):
        for m in METHODS:
            tol = None if m in ("rk2", "rk4") else 1e-6
            MethodConfig(method=m, tau=0.1, tol=tol)

    @pytest.mark.parametrize("method", list(METHODS))
    def test_table_row_decides_backend_and_tol(self, method):
        _step, backend = METHODS[method]
        config = MethodConfig(method, 0.1, 1e-6)
        assert config.backend == backend
        assert config.tol == (None if backend is None else 1e-6)

    def test_backend_property(self):
        assert MethodConfig(method="exprb42-leja", tau=0.1, tol=1e-6).backend == "leja"
        assert MethodConfig(method="exprb-euler-krylov", tau=0.1, tol=1e-6).backend == "krylov"
        assert MethodConfig(method="rk4", tau=0.1).backend is None
        assert MethodConfig(method="rk2", tau=0.1).backend is None
        assert MethodConfig(method="exprb42-krylov", tau=0.1, tol=1e-6).backend == "krylov"
        assert MethodConfig(method="exprb-euler-leja", tau=0.1, tol=1e-6).backend == "leja"

    def test_validation(self):
        with pytest.raises(ValueError):
            MethodConfig(method="euler", tau=0.1)
        with pytest.raises(ValueError):
            MethodConfig(method="rk2", tau=-0.1)
        with pytest.raises(ValueError):
            MethodConfig(method="exprb42-leja", tau=0.1)  # missing tol
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau must be positive"):
                MethodConfig(method="rk4", tau=tau)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive tol"):
                MethodConfig(method="exprb-euler-krylov", tau=0.25, tol=tol)


class TestRungeKuttaSteps:
    def test_rk2_scalar_decay(self):
        # midpoint rule on u' = -u, tau = 0.1: 1 - 0.1 + 0.005
        u1 = rk2_step(scalar_decay(), np.array([1.0]), 0.1)
        assert u1[0] == pytest.approx(0.905, abs=1e-15)

    def test_rk4_scalar_decay(self):
        # fourth-order Taylor polynomial of exp(-0.1) = 217161/240000
        u1 = rk4_step(scalar_decay(), np.array([1.0]), 0.1)
        assert u1[0] == pytest.approx(217161.0 / 240000.0, abs=1e-15)

    def test_zero_rhs_leaves_state_unchanged(self):
        pb = DenseLinearProblem(np.zeros((3, 3)))
        u = np.array([1.0, 2.0, 3.0])
        assert np.allclose(rk2_step(pb, u, 0.5), u)
        assert np.allclose(rk4_step(pb, u, 0.5), u)

    def test_rk4_equals_degree4_taylor_on_linear_problem(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((8, 8)) * 0.3
        pb = DenseLinearProblem(M)
        u = rng.standard_normal(8)
        tau = 0.2
        T = np.eye(8)
        acc = np.eye(8)
        for k in range(1, 5):
            acc = acc @ (tau * M) / k
            T = T + acc
        assert np.linalg.norm(rk4_step(pb, u, tau) - T @ u) < 1e-13

    def test_rk2_empirical_order_two(self):
        pb = DenseLinearProblem(np.array([[-2.0, 1.0], [0.0, -1.0]]))
        u0 = np.array([1.0, 1.0])
        exact = expm(1.0 * pb.M) @ u0
        errs = []
        for tau in (0.1, 0.05, 0.025):
            u = u0.copy()
            for _ in range(round(1.0 / tau)):
                u = rk2_step(pb, u, tau)
            errs.append(np.linalg.norm(u - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(abs(o - 2.0) < 0.2 for o in orders)


class TestExponentialSteps:
    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    def test_single_step_matches_exact_propagator(self, backend):
        pb = AdvDiffProblem(40, ("const", 1.0 / 80.0))
        u0 = pb.initial_state()
        tau, tol = 0.125, 1e-9
        exact = expm(tau * pb.to_dense()) @ u0
        for step in (exprb_euler_step, exprb42_step):
            u1 = step(pb, u0, tau, tol, backend)
            assert np.linalg.norm(u1 - exact) / np.linalg.norm(exact) <= 10 * tol

    def test_zero_rhs_leaves_state_unchanged(self):
        pb = DenseLinearProblem(np.zeros((4, 4)))
        u = np.array([1.0, -1.0, 2.0, 0.5])
        u1 = exprb_euler_step(pb, u, 0.5, 1e-10, "krylov")
        assert np.allclose(u1, u, atol=1e-12)

    @pytest.mark.parametrize("backend", ["krylov", "leja"])
    @pytest.mark.parametrize(
        "make,tau,tol",
        [
            (lambda: AdvDiffProblem(31, "mixed"), 0.25, 1e-7),
            (lambda: NavierStokesProblem(8, 1e-4), 0.5, 1e-6),
        ],
        ids=["advdiff", "ns"],
    )
    def test_exprb42_stage_is_the_exprb_euler_step(self, make, tau, tol, backend):
        pb = make()
        u = pb.initial_state()
        seen = []
        rhs = pb.rhs

        def spy(w):
            seen.append(w.copy())
            return rhs(w)

        pb.rhs = spy
        exprb42_step(pb, u, tau, tol, backend)
        assert np.array_equal(seen[1], exprb_euler_step(pb, u, 0.75 * tau, tol, backend))

    # "krylov2" is an evaluator without a phi entry point: a step must not
    # route it to either backend's action
    @pytest.mark.parametrize("backend", ["bogus", "krylov2"])
    @pytest.mark.parametrize("step", [exprb_euler_step, exprb42_step])
    def test_unknown_backend_rejected_before_counted_work(self, step, backend, monkeypatch):
        if backend == "krylov2":
            monkeypatch.setitem(EVALUATORS, backend, EVALUATORS["krylov"])
        pb = AdvDiffProblem(31, "mixed")
        c = fresh_counter(31)
        with use_counter(c), pytest.raises(ValueError, match=f"unknown backend '{backend}'"):
            step(pb, pb.initial_state(), 0.25, 1e-7, backend)
        assert c.events == {}


class TestLinearizationBounds:
    @pytest.mark.parametrize(
        "method", ["exprb-euler-krylov", "exprb42-krylov", "exprb-euler-leja", "exprb42-leja"]
    )
    def test_bounds_computed_once_per_leja_step_and_never_for_krylov(self, method):
        M = np.diag([-1.0, -2.0, -3.0, -4.0]) + 0.1 * np.eye(4, k=1)
        pb = DenseLinearProblem(M)
        config = MethodConfig(method=method, tau=0.1, tol=1e-8)
        res = integrate(pb, config, np.ones(4), 0.2)
        assert res.steps_taken == 2
        assert pb.bounds_computed == (2 if config.backend == "leja" else 0)


class TestBackendRouting:
    @pytest.mark.parametrize(
        "method", [m for m, (_step, backend) in METHODS.items() if backend is not None]
    )
    def test_only_the_rows_own_evaluator_runs(self, method, monkeypatch):
        # every phi action of a step, single or combined, must reach the
        # evaluator its row names, whatever entry point the step calls
        ran = []
        for name, evaluate in list(EVALUATORS.items()):
            def spy(*args, _name=name, _evaluate=evaluate):
                ran.append(_name)
                return _evaluate(*args)

            monkeypatch.setitem(EVALUATORS, name, spy)
        pb = AdvDiffProblem(31, ("const", 1.0 / 80.0))
        res = integrate(pb, MethodConfig(method, 0.125, 1e-6), pb.initial_state(), 0.125)
        assert res.steps_taken == 1
        assert ran and set(ran) == {METHODS[method][1]}


class TestIntegrate:
    def test_t_end_equal_tau_is_one_step(self):
        pb = AdvDiffProblem(16, ("const", 1.0 / 80.0))
        res = integrate(pb, MethodConfig(method="rk4", tau=0.25), pb.initial_state(), 0.25)
        assert res.steps_taken == 1

    def test_final_partial_step_is_shortened(self):
        pb = AdvDiffProblem(16, ("const", 1.0 / 80.0))
        u0 = pb.initial_state()
        res = integrate(pb, MethodConfig(method="rk4", tau=0.1), u0, 0.25)
        assert res.steps_taken == 3
        # must land on t_end: two full steps plus one shortened 0.05 step
        u = u0.copy()
        for dt in (0.1, 0.1, 0.05):
            u = rk4_step(pb, u, dt)
        assert np.allclose(res.final_state, u, rtol=1e-12, atol=1e-14)

    def test_tolerance_split_over_the_steps_taken(self, monkeypatch):
        # t_end / tau = 3 + 2e-12 is three steps within rounding, and each
        # of the three must get a third of the run's tolerance
        tols = []
        step = integrators.exprb_euler_step

        def spy(problem, u, tau, tol, backend):
            tols.append(tol)
            return step(problem, u, tau, tol, backend)

        monkeypatch.setattr(integrators, "exprb_euler_step", spy)
        pb = AdvDiffProblem(31, "mixed")
        config = MethodConfig("exprb-euler-krylov", 1.0 / (3.0 + 2e-12), 1e-6)
        res = integrate(pb, config, pb.initial_state(), 1.0)
        assert res.steps_taken == len(tols) == 3
        assert math.fsum(tols) == pytest.approx(1e-6, rel=1e-12)

    @pytest.mark.parametrize("t_end", [0.0, math.nan, math.inf])
    def test_invalid_t_end(self, t_end):
        pb = AdvDiffProblem(8, ("const", 1.0 / 80.0))
        with pytest.raises(ValueError, match="t_end"):
            integrate(pb, MethodConfig(method="rk2", tau=0.1), pb.initial_state(), t_end)

    def test_explicit_method_instability_detected(self):
        pb = AdvDiffProblem(159, ("const", 1.0 / 80.0))
        with pytest.raises(InstabilityError) as excinfo:
            integrate(pb, MethodConfig(method="rk2", tau=0.25), pb.initial_state(), 1.0)
        assert excinfo.value.counter is not None
        assert excinfo.value.steps >= 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_state_is_instability(self, value, monkeypatch):
        monkeypatch.setattr(integrators, "rk2_step", lambda problem, u, tau: np.full(u.shape, value))
        pb = AdvDiffProblem(8, ("const", 1.0 / 80.0))
        with pytest.raises(InstabilityError) as excinfo:
            integrate(pb, MethodConfig(method="rk2", tau=0.1), pb.initial_state(), 1.0)
        assert excinfo.value.steps == 1
        assert excinfo.value.counter is not None

    def test_rk4_single_step_cost_closed_form(self):
        # schedule on the 1D table: initial state copy (fetch + store = 2n),
        # 4 stencil products (4 * 2n), three 2-vector combinations for the
        # stage states (3 * 3n) and one 5-vector combination (6n): 25n total
        n = 159
        pb = AdvDiffProblem(n, ("const", 1.0 / 80.0))
        res = integrate(pb, MethodConfig(method="rk4", tau=0.25), pb.initial_state(), 0.25)
        c = res.counter
        assert c.count("matvec") == 4
        assert c.count("lincomb") == 4
        assert c.count("fetch") == c.count("store") == 1
        # in units of n: matvecs, combinations, copy
        assert c.tally == 4 * 2 + (3 * 3 + 6) + 2
        assert c.total_cost(1.0) == 25 * n

    def test_counter_determinism(self):
        pb = AdvDiffProblem(32, ("const", 1.0 / 80.0))
        cfg = MethodConfig(method="exprb-euler-krylov", tau=0.25, tol=1e-7)
        a = integrate(pb, cfg, pb.initial_state(), 1.0)
        b = integrate(pb, cfg, pb.initial_state(), 1.0)
        assert a.counter.events == b.counter.events
        assert np.array_equal(a.final_state, b.final_state)


class TestJacobianLinearity:
    def test_advdiff_jacobian_linearity(self):
        pb = AdvDiffProblem(24, "mixed")
        rng = np.random.default_rng(6)
        u = rng.standard_normal(24)
        w1 = rng.standard_normal(24)
        w2 = rng.standard_normal(24)
        J = pb.linearize(u)
        lhs = J(2.0 * w1 - 3.0 * w2)
        rhs = 2.0 * J(w1) - 3.0 * J(w2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
