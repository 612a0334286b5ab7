"""Time-stepping schemes with per-run cost accounting.

Explicit Runge-Kutta (midpoint RK2 and classical RK4) and two exponential
Rosenbrock schemes: exponential Rosenbrock-Euler (second order) and the
two-stage fourth-order scheme with a phi_3 correction.  Exponential methods
evaluate phi-actions of the per-step frozen Jacobian through either the
Krylov or the Leja backend.

``METHODS`` is the one table of methods: each row names a step function and
a phi backend.  Rows without a backend are explicit and take no tolerance;
the others require a positive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import OpCounter, use_counter
from .linalg import copy_vector, lincomb, norm2, scale
from .problems import NonPositiveDensityError
from .matfunc import NotConverged, krylov_phi_action, leja_phi_action, phi_linear_combination

# name -> (step function name, phi backend or None for explicit RK).  Steps
# are looked up by name in the module globals when ``integrate`` runs, so a
# rebound module attribute (a wrapper, a monkeypatch) is the one called.
METHODS = {
    "rk2": ("rk2_step", None),
    "rk4": ("rk4_step", None),
    "exprb-euler-krylov": ("exprb_euler_step", "krylov"),
    "exprb-euler-leja": ("exprb_euler_step", "leja"),
    "exprb42-krylov": ("exprb42_step", "krylov"),
    "exprb42-leja": ("exprb42_step", "leja"),
}

INSTABILITY_THRESHOLD = 1e12


class IntegrationError(RuntimeError):
    """Base for aborted integrations; carries the partial counter and the
    number of completed steps."""

    def __init__(self, message, counter, steps):
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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive")
        if self.backend is None:
            self.tol = None
        elif self.tol is None or not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("exponential methods require a positive tol")

    @property
    def backend(self) -> str | None:
        return METHODS[self.method][1]


@dataclass
class RunResult:
    final_state: np.ndarray
    counter: OpCounter
    steps_taken: int


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


# Slack between the per-step error allowance and the tolerance handed to the
# phi evaluators, absorbing the looseness of their internal error estimates.
_PHI_SAFETY = 0.1


def _stage(problem, u, h: float, tol: float, backend: str):
    """The exprb-Euler stage u + h phi_1(h J) F(u), J frozen at u.

    tol is the per-step relative error allowance and tol_abs = _PHI_SAFETY
    tol |u| (|u| read as 1 for u = 0) its absolute counterpart; the phi action
    gets tol_abs / h, as its result enters scaled by h.  Returns the stage,
    F(u), J and tol_abs.  The phi entry point is looked up in the module
    globals when the call runs, so a rebound one is the one called.  An
    unknown backend raises ValueError before any counted work.
    """
    action = {"krylov": krylov_phi_action, "leja": leja_phi_action}.get(backend)
    if action is None:
        raise ValueError(f"unknown backend {backend!r}")
    f = problem.rhs(u)
    unorm = norm2(u)
    tol_abs = _PHI_SAFETY * tol * (unorm if unorm > 0.0 else 1.0)
    J = problem.linearize(u)
    stage = lincomb([1.0, h], [u, action(J, 1, h, f, tol_abs / h).y])
    return stage, f, J, tol_abs


def exprb_euler_step(problem, u, tau: float, tol: float, backend: str) -> np.ndarray:
    """u + tau * phi_1(tau J) F(u): the exprb-Euler stage with h = tau."""
    return _stage(problem, u, tau, tol, backend)[0]


def exprb42_step(problem, u, tau: float, tol: float, backend: str) -> np.ndarray:
    """Two-stage fourth-order exponential Rosenbrock step.

    Stage:  U2 = u + (3/4) tau phi_1((3/4) tau J) F(u)   (the exprb-Euler stage)
    Update: u + tau phi_1(tau J) F(u) + (32/9) tau phi_3(tau J) (g(U2) - g(u)),
    evaluated as one augmented-operator combination with J frozen at u.

    tol is the per-step relative error allowance (see _stage).
    """
    U2, f, J, tol_abs = _stage(problem, u, 0.75 * tau, tol, backend)
    f2 = problem.rhs(U2)
    dU = lincomb([1.0, -1.0], [U2, u])
    jdU = J(dU)
    # g(U2) - g(u) with g(w) = F(w) - J u w
    gdiff = lincomb([1.0, -1.0, -1.0], [f2, f, jdU])
    w3 = scale(32.0 / (9.0 * tau**2), gdiff)
    combo = phi_linear_combination(J, tau, [(1, f), (3, w3)], tol_abs, backend)
    return lincomb([1.0, 1.0], [u, combo.y])


def integrate(problem, config: MethodConfig, u0, t_end: float) -> RunResult:
    """Take n_steps = ceil(t_end / tau) configured steps, with a fresh counter.

    The ratio is read with a relative slack of 1e-12, so rounding in it adds
    no step.  The final step is shortened when t_end is not a multiple of tau.
    Aborts with InstabilityError when the max norm exceeds 1e12 or the state
    turns non-finite; a phi action that raises NotConverged becomes
    PhiConvergenceError.  Both carry the partial counter and the number of
    completed steps for reporting.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    counter = OpCounter(problem.dimension, problem.operator_costs)
    steps = 0
    step_name, backend = METHODS[config.method]
    step = globals()[step_name]
    # Split the run tolerance evenly over the steps so phi-evaluation errors
    # accumulate to at most the prescribed relative accuracy.
    n_steps = max(1, math.ceil(t_end / config.tau * (1.0 - 1e-12)))
    args = () if backend is None else (config.tol / n_steps, backend)
    with use_counter(counter):
        u = copy_vector(u0)
        t = 0.0
        try:
            while steps < n_steps:
                dt = min(config.tau, t_end - t)
                u = step(problem, u, dt, *args)
                t += dt
                steps += 1
                # NaN fails every comparison and inf exceeds the threshold,
                # so this one pass also catches a non-finite state
                if not np.max(np.abs(u)) <= INSTABILITY_THRESHOLD:
                    raise InstabilityError(
                        f"norm blow-up at t = {t:g} (step {steps})",
                        counter=counter,
                        steps=steps,
                    )
        except NotConverged as exc:
            raise PhiConvergenceError(
                f"phi action did not converge in step {steps + 1}, from t = {t:g}, "
                f"after {exc.applies} operator applications",
                counter=counter,
                steps=steps,
            ) from exc
        except NonPositiveDensityError as exc:
            # density loss signals an unstable run, reported not hidden
            raise InstabilityError(str(exc), counter=counter, steps=steps) from exc
    return RunResult(final_state=u, counter=counter, steps_taken=steps)
