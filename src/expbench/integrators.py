"""Time-stepping schemes with per-run cost accounting.

Explicit Runge-Kutta (midpoint RK2 and classical RK4) and two exponential
Rosenbrock schemes: exponential Rosenbrock-Euler (second order) and the
two-stage fourth-order scheme with a phi_3 correction.  Exponential methods
evaluate phi-actions of the per-step frozen Jacobian through either the
Krylov or the Leja backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import OpCounter, use_counter
from .linalg import copy_vector, lincomb, scale
from .problems import NonPositiveDensityError
from .matfunc import (
    PhiActionRequest,
    PhiActionResult,
    krylov_phi_action,
    leja_phi_action,
    phi_linear_combination,
)

METHODS = (
    "rk2",
    "rk4",
    "exprb-euler-krylov",
    "exprb-euler-leja",
    "exprb42-krylov",
    "exprb42-leja",
)

INSTABILITY_THRESHOLD = 1e12


class IntegrationError(RuntimeError):
    """Base for aborted integrations; carries the partial counter."""

    def __init__(self, message, counter=None, steps=0):
        super().__init__(message)
        self.counter = counter
        self.steps = steps


class InstabilityError(IntegrationError):
    pass


class PhiConvergenceError(IntegrationError):
    pass


@dataclass
class MethodConfig:
    method: str
    tau: float
    tol: float | None = None
    zeta: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.method not in ("rk2", "rk4"):
            if self.tol is None or self.tol <= 0:
                raise ValueError("exponential methods require a positive tol")

    @property
    def backend(self) -> str | None:
        if self.method.endswith("-krylov"):
            return "krylov"
        if self.method.endswith("-leja"):
            return "leja"
        return None


@dataclass
class RunResult:
    final_state: np.ndarray
    counter: OpCounter
    steps_taken: int
    diagnostics: list = field(default_factory=list)


def rk2_step(problem, u, tau: float) -> np.ndarray:
    """Explicit midpoint rule."""
    k1 = problem.rhs(u)
    mid = lincomb([1.0, 0.5 * tau], [u, k1])
    k2 = problem.rhs(mid)
    return lincomb([1.0, tau], [u, k2])


def rk4_step(problem, u, tau: float) -> np.ndarray:
    """Classical four-stage RK4."""
    k1 = problem.rhs(u)
    k2 = problem.rhs(lincomb([1.0, 0.5 * tau], [u, k1]))
    k3 = problem.rhs(lincomb([1.0, 0.5 * tau], [u, k2]))
    k4 = problem.rhs(lincomb([1.0, tau], [u, k3]))
    return lincomb(
        [1.0, tau / 6.0, tau / 3.0, tau / 3.0, tau / 6.0], [u, k1, k2, k3, k4]
    )


def _linearize(problem, u, backend):
    """Jacobian action frozen at ``u`` and, for Leja, its spectral bounds."""
    return problem.linearize(u), problem.spectral_bounds(u) if backend == "leja" else None


def _phi_action(applyJ, bounds, p, tau, v, tol, backend) -> PhiActionResult:
    req = PhiActionRequest(p=p, tau=tau, v=v, tol=tol, bounds=bounds)
    if backend == "krylov":
        return krylov_phi_action(applyJ, req)
    return leja_phi_action(applyJ, req)


def _require_converged(res: PhiActionResult, context: str) -> PhiActionResult:
    if not res.converged:
        raise PhiConvergenceError(f"phi evaluation failed to converge in {context}")
    return res


# Slack between the per-step error allowance and the tolerance handed to the
# phi evaluators, absorbing the looseness of their internal error estimates.
_PHI_SAFETY = 0.1


def _step_scale(u) -> float:
    """Reference magnitude for converting the prescribed tolerance into the
    absolute phi-evaluation accuracy of one step."""
    from .linalg import norm2

    unorm = norm2(u)
    return unorm if unorm > 0.0 else 1.0


def exprb_euler_step(problem, u, tau: float, tol: float, backend: str, stats=None) -> np.ndarray:
    """u + tau * phi_1(tau J) F(u).

    tol is the per-step relative error allowance; the phi evaluation receives
    the corresponding absolute accuracy (the result enters scaled by tau).
    """
    f = problem.rhs(u)
    tol_phi = _PHI_SAFETY * tol * _step_scale(u) / tau
    applyJ, bounds = _linearize(problem, u, backend)
    res = _require_converged(
        _phi_action(applyJ, bounds, 1, tau, f, tol_phi, backend), "exponential Euler step"
    )
    if stats is not None:
        stats.append(res)
    return lincomb([1.0, tau], [u, res.y])


def exprb42_step(problem, u, tau: float, tol: float, backend: str, stats=None) -> np.ndarray:
    """Two-stage fourth-order exponential Rosenbrock step.

    Stage:  U2 = u + (3/4) tau phi_1((3/4) tau J) F(u)   (direct phi_1 action)
    Update: u + tau phi_1(tau J) F(u) + (32/9) tau phi_3(tau J) (g(U2) - g(u)),
    evaluated as one augmented-operator combination with J frozen at u.

    tol is the per-step relative error allowance (see exprb_euler_step).
    """
    f = problem.rhs(u)
    tol_abs = _PHI_SAFETY * tol * _step_scale(u)
    applyJ, bounds = _linearize(problem, u, backend)
    stage = _require_converged(
        _phi_action(applyJ, bounds, 1, 0.75 * tau, f, tol_abs / (0.75 * tau), backend),
        "exprb42 stage",
    )
    U2 = lincomb([1.0, 0.75 * tau], [u, stage.y])
    f2 = problem.rhs(U2)
    dU = lincomb([1.0, -1.0], [U2, u])
    jdU = applyJ(dU)
    # g(U2) - g(u) with g(w) = F(w) - J u w
    gdiff = lincomb([1.0, -1.0, -1.0], [f2, f, jdU])
    w3 = scale(32.0 / (9.0 * tau**2), gdiff)
    combo = _require_converged(
        phi_linear_combination(applyJ, tau, [(1, f), (3, w3)], tol_abs, bounds, backend),
        "exprb42 update",
    )
    if stats is not None:
        stats.append(stage)
        stats.append(combo)
    return lincomb([1.0, 1.0], [u, combo.y])


def integrate(problem, config: MethodConfig, u0, t_end: float) -> RunResult:
    """Repeat the configured step to t_end with a fresh counter.

    The final step is shortened when t_end is not a multiple of tau.
    Aborts with InstabilityError when the max norm exceeds 1e12 or the state
    turns non-finite; phi-evaluation failures raise PhiConvergenceError.
    Both carry the partial counter for reporting.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    counter = OpCounter(problem.cost_table(), zeta=config.zeta)
    diagnostics = []
    steps = 0
    # Split the run tolerance evenly over the steps so phi-evaluation errors
    # accumulate to at most the prescribed relative accuracy.
    n_steps = max(1, math.ceil(t_end / config.tau - 1e-12))
    step_tol = None if config.tol is None else config.tol / n_steps
    with use_counter(counter):
        u = copy_vector(u0)
        t = 0.0
        try:
            while t < t_end * (1.0 - 1e-12):
                dt = min(config.tau, t_end - t)
                step_stats: list = []
                if config.method == "rk2":
                    u = rk2_step(problem, u, dt)
                elif config.method == "rk4":
                    u = rk4_step(problem, u, dt)
                elif config.method.startswith("exprb-euler"):
                    u = exprb_euler_step(
                        problem, u, dt, step_tol, config.backend, stats=step_stats
                    )
                else:
                    u = exprb42_step(
                        problem, u, dt, step_tol, config.backend, stats=step_stats
                    )
                t += dt
                steps += 1
                if step_stats:
                    diagnostics.append(
                        {
                            "t": t,
                            "phi_iterations": sum(r.iterations for r in step_stats),
                            "phi_substeps": max(r.substeps for r in step_stats),
                        }
                    )
                if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > INSTABILITY_THRESHOLD:
                    raise InstabilityError(
                        f"norm blow-up at t = {t:g} (step {steps})",
                        counter=counter,
                        steps=steps,
                    )
        except PhiConvergenceError as exc:
            exc.counter = counter
            exc.steps = steps
            raise
        except NonPositiveDensityError as exc:
            # density loss signals an unstable run, reported not hidden
            raise InstabilityError(str(exc), counter=counter, steps=steps) from exc
    return RunResult(final_state=u, counter=counter, steps_taken=steps, diagnostics=diagnostics)
