"""Acceptance suite: eight end-to-end checks at their stated tolerances.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (bypassing pytest's
capture) before asserting, so a plain ``pytest -v`` run shows the verdict of
every criterion.
"""

import math
import statistics

import numpy as np
import pytest
from scipy.linalg import expm

from expbench.counting import OpCounter, use_counter
from expbench.harness import compute_reference, error_norm
from expbench.integrators import IntegrationError, MethodConfig, integrate
from expbench.matfunc import krylov_phi_action, leja_phi_action
from expbench.problems import AdvDiffProblem, NavierStokesProblem, ns_rhs

from conftest import dense_from_action, dense_phi


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def advdiff159():
    problem = AdvDiffProblem(159, ("const", 1.0 / 80.0))
    reference = expm(1.0 * problem.to_dense()) @ problem.initial_state()
    return problem, reference


@pytest.fixture(scope="module")
def ns40():
    return NavierStokesProblem(40, nu=1e-6)


def test_criterion_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (16, 32, 64):
        for kappa in (1.0 / 80.0, 1.0 / 2560.0):
            problem = AdvDiffProblem(n, ("const", kappa))
            J = problem.linearize()
            dense = problem.to_dense()
            v = rng.standard_normal(n)
            for tau in (1.0 / 64.0, 1.0 / 4.0):
                for p in (0, 1, 3):
                    oracle = dense_phi(tau * dense, p) @ v
                    onorm = np.linalg.norm(oracle)
                    for res in (
                        krylov_phi_action(problem.rhs, p, tau, v, 1e-12),
                        leja_phi_action(J, p, tau, v, 1e-12),
                    ):
                        err = np.linalg.norm(res.y - oracle) / onorm
                        worst = max(worst, err)
    _report(
        capsys, 1, "oracle equivalence", worst <= 1e-10,
        f"worst relative error {worst:.3e} (threshold 1e-10)",
    )


def test_criterion_2_linear_exactness(capsys, advdiff159):
    problem, reference = advdiff159
    u0 = problem.initial_state()
    worst_ratio = 0.0
    details = []
    for method in (
        "exprb-euler-leja", "exprb42-leja", "exprb-euler-krylov", "exprb42-krylov"
    ):
        for tol in (1e-4, 1e-7):
            res = integrate(
                problem, MethodConfig(method=method, tau=0.25, tol=tol), u0, 1.0
            )
            err = error_norm(res.final_state, reference)
            worst_ratio = max(worst_ratio, err / tol)
            details.append(f"{method}@{tol:g}:{err:.1e}")
    _report(
        capsys, 2, "linear exactness", worst_ratio <= 10.0,
        f"worst error/tol ratio {worst_ratio:.2f} (threshold 10); " + " ".join(details),
    )


def _empirical_order(problem, method, taus, reference, tol):
    errs = []
    for tau in taus:
        try:
            cfg = MethodConfig(
                method=method, tau=tau,
                tol=None if method in ("rk2", "rk4") else tol,
            )
            res = integrate(problem, cfg, problem.initial_state(), 1.0)
            errs.append(error_norm(res.final_state, reference))
        except IntegrationError:
            errs.append(math.inf)
    slopes = []
    for (t1, e1), (t2, e2) in zip(zip(taus, errs), zip(taus[1:], errs[1:])):
        if all(5e-11 < e < 5e-3 for e in (e1, e2)):
            slopes.append(math.log(e1 / e2) / math.log(t1 / t2))
    return statistics.median(slopes), errs


def test_criterion_3_convergence_orders(capsys, ns40):
    reference = compute_reference(ns40, 1.0, tau_hint=1.0 / 64.0)
    cases = (
        ("rk2", [2.0**-m for m in range(5, 10)], 2.0, 0.3),
        ("rk4", [2.0**-m for m in range(4, 10)], 4.0, 0.4),
        ("exprb-euler-krylov", [2.0**-m for m in range(2, 9)], 2.0, 0.3),
        ("exprb42-krylov", [2.0**-m for m in range(2, 6)], 4.0, 0.4),
    )
    ok = True
    details = []
    for method, taus, target, slack in cases:
        order, _errs = _empirical_order(ns40, method, taus, reference, tol=1e-10)
        good = abs(order - target) <= slack
        ok = ok and good
        details.append(f"{method}:{order:.2f} (target {target}+-{slack})")
    _report(capsys, 3, "convergence orders", ok, "; ".join(details))


def test_criterion_4_step_size_ratio(capsys, advdiff159):
    problem, reference = advdiff159
    u0 = problem.initial_state()

    def converges(method, tau, tol=None):
        try:
            res = integrate(
                problem, MethodConfig(method=method, tau=tau, tol=tol), u0, 1.0
            )
        except IntegrationError:
            return False
        return error_norm(res.final_state, reference) < 1.0

    exp_ok = converges("exprb-euler-krylov", 0.25, 1e-7) and converges(
        "exprb42-leja", 0.25, 1e-7
    )
    rk_unstable = not converges("rk2", 0.25) and not converges("rk4", 0.25)
    tau_rk4 = 0.25
    while tau_rk4 > 1e-5 and not converges("rk4", tau_rk4):
        tau_rk4 /= 2.0
    ratio = 0.25 / tau_rk4
    ok = exp_ok and rk_unstable and ratio >= 50.0
    _report(
        capsys, 4, "step-size ratio", ok,
        f"exponential stable at tau=1/4: {exp_ok}; RK unstable at 1/4: {rk_unstable}; "
        f"max stable RK4 tau={tau_rk4:g}, ratio {ratio:g} (threshold 50)",
    )


def test_criterion_5_cost_model_identities(capsys, advdiff159):
    problem, _ = advdiff159
    u0 = problem.initial_state()
    # (a) zeta identity on a full exponential run
    run = integrate(
        problem, MethodConfig(method="exprb42-krylov", tau=0.25, tol=1e-4), u0, 1.0
    )
    c = run.counter
    zeta_ok = c.total_cost(10.0) - c.total_cost(1.0) == 9.0 * 2 * problem.n * c.count("dot")
    # (b) one RK4 step on the 1D problem: initial copy 2n, 4 stencil products
    # at 2n each, three 2-vector and one 5-vector combination (9n + 6n) = 25n
    n = problem.n
    rk4 = integrate(problem, MethodConfig(method="rk4", tau=0.25), u0, 0.25).counter
    rk4_ok = (
        rk4.count("matvec") == 4
        and rk4.unit_cost("matvec") == 2 * n
        and rk4.total_cost(1.0) == 25 * n
    )
    # (c) one rhs evaluation costs 12N, one Jacobian action 21N
    ns_n = 12
    N = ns_n * ns_n
    ns = NavierStokesProblem(ns_n, 1e-4)
    counter = OpCounter(ns.dimension, ns.operator_costs)
    with use_counter(counter):
        ns_rhs(ns.initial_state(), ns_n, ns.nu)
    rhs_cost = counter.total_cost(1.0)
    counter = OpCounter(ns.dimension, ns.operator_costs)
    with use_counter(counter):
        ns.linearize(ns.initial_state())(np.ones(3 * N))
    jac_cost = counter.total_cost(1.0)
    ns_ok = rhs_cost == 12 * N and jac_cost == 21 * N
    ok = zeta_ok and rk4_ok and ns_ok
    _report(
        capsys, 5, "cost-model identities", ok,
        f"zeta identity: {zeta_ok}; RK4 step = 25n with 4 matvecs at 2n: {rk4_ok}; "
        f"rhs {rhs_cost}/{12 * N}, jacvec {jac_cost}/{21 * N}: {ns_ok}",
    )


def test_criterion_6_leja_cheaper_at_zeta_10(capsys, advdiff159):
    problem, reference = advdiff159
    u0 = problem.initial_state()
    ok = True
    details = []
    for scheme in ("exprb-euler", "exprb42"):
        costs = {}
        for backend in ("krylov", "leja"):
            res = integrate(
                problem,
                MethodConfig(method=f"{scheme}-{backend}", tau=0.25, tol=1e-7),
                u0,
                1.0,
            )
            assert error_norm(res.final_state, reference) < 1e-5
            costs[backend] = res.counter.total_cost(10.0)
        ok = ok and costs["leja"] < costs["krylov"]
        details.append(
            f"{scheme}: leja {costs['leja']:.3g} vs krylov {costs['krylov']:.3g}"
        )
    _report(capsys, 6, "Leja cheaper than Krylov at zeta=10", ok, "; ".join(details))


def test_criterion_7_mass_conservation(capsys, ns40):
    u0 = ns40.initial_state()
    res = integrate(
        ns40, MethodConfig(method="exprb42-krylov", tau=0.25, tol=1e-9), u0, 1.0
    )
    N = ns40.N
    drift = abs(np.sum(res.final_state[:N]) - np.sum(u0[:N])) / abs(np.sum(u0[:N]))
    _report(
        capsys, 7, "mass conservation", drift <= 1e-9,
        f"relative density-sum drift {drift:.3e} (threshold 1e-9)",
    )


def test_criterion_8_jacobian_consistency(capsys):
    n = 8
    nu = 1e-6
    problem = NavierStokesProblem(n, nu)
    dim = 3 * n * n
    init = problem.initial_state()
    mid = integrate(
        problem, MethodConfig(method="rk4", tau=0.02), init, 0.5
    ).final_state
    worst = 0.0
    eps = 1e-6
    for state in (init, mid):
        J = dense_from_action(problem.linearize(state), dim)
        Jfd = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            Jfd[:, j] = (
                ns_rhs(state + eps * e, n, nu) - ns_rhs(state - eps * e, n, nu)
            ) / (2.0 * eps)
        worst = max(worst, float(np.max(np.abs(J - Jfd))))
    _report(
        capsys, 8, "Jacobian consistency", worst <= 1e-6,
        f"max |analytic - finite difference| = {worst:.3e} (threshold 1e-6)",
    )
