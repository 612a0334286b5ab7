"""Results that do not depend on the unit of time.

``TimeScaled(problem, s)`` is the problem in a time unit 1/s as long: its
rhs and Jacobian are s F and s J and its spectral bounds s times the
problem's.  With tau and t_end divided by s, a run on it takes the same
steps as a run on the problem.  For a power of two s every scaling is exact
in floating point, so a method whose arithmetic commutes with the scaling
gives the same state, bit for bit, and the same counted events.  rk2, rk4
and both exprb-Euler rows do; the Krylov rows put Arnoldi's compiled
Gram-Schmidt passes under that exact scaling.

The exprb42 rows do not: their augmented operator does not scale its
nilpotent block with J, Leja widens its bounds by the row sums of that
operator's W columns and clamps them to at least 1, and the substep
fallback tightens tol by min(tau, 1)^p.  They are listed with the largest
relative state difference measured on these grids; the check keeps it from
growing unnoticed.
"""

import numpy as np
import pytest

from expbench.integrators import MethodConfig, integrate
from expbench.linalg import Linearization, SpectralBounds
from expbench.problems import AdvDiffProblem, NavierStokesProblem

SCALES = (0.5, 2.0, 8.0)
TOL = 1e-7
T_END = 0.5

PROBLEMS = {
    "advdiff-31": (lambda: AdvDiffProblem(31, ("const", 1.0 / 80.0)), (0.25, 0.125)),
    "advdiff-mixed-31": (lambda: AdvDiffProblem(31, "mixed"), (0.25, 0.125)),
    "ns-8": (lambda: NavierStokesProblem(8, 1e-3), (0.25,)),
}

UNIT_FREE = ("rk2", "rk4", "exprb-euler-krylov", "exprb-euler-leja")


class TimeScaled:
    """``problem`` with time measured in units 1/s as long: F -> s F,
    J -> s J, bounds -> s bounds.  Scaling records nothing, so a run counts
    the events of the problem's own primitives."""

    def __init__(self, problem, s):
        self.problem = problem
        self.s = s
        self.dimension = problem.dimension
        self.operator_costs = problem.operator_costs

    def initial_state(self):
        return self.problem.initial_state()

    def rhs(self, u):
        return self.s * self.problem.rhs(u)

    def linearize(self, u):
        J = self.problem.linearize(u)

        def bounds():
            return SpectralBounds(self.s * J.bounds.real_min, self.s * J.bounds.real_max)

        return Linearization(lambda w: self.s * J(w), bounds)


def run(problem, method, tau, s):
    pb = TimeScaled(problem, s) if s != 1.0 else problem
    result = integrate(pb, MethodConfig(method, tau=tau / s, tol=TOL), problem.initial_state(),
                       T_END / s)
    return result.final_state, result.counter.events


def cases(methods):
    return [(name, method, tau, s) for name, (_make, taus) in PROBLEMS.items()
            for method in methods for tau in taus for s in SCALES]


@pytest.mark.parametrize("name, method, tau, s", cases(UNIT_FREE))
def test_unit_free_rows_give_identical_states_and_counts(name, method, tau, s):
    problem = PROBLEMS[name][0]()
    state, events = run(problem, method, tau, 1.0)
    scaled_state, scaled_events = run(problem, method, tau, s)
    assert np.array_equal(scaled_state, state)
    assert scaled_events == events


# (grid, row) -> (largest relative 2-norm state difference, largest change
# in operator applications) over the taus and scales above, as measured
# when this test was written; the state bound below allows twice that
KNOWN_EXCEPTIONS = {
    ("advdiff-31", "exprb42-krylov"): (3.3e-9, 1),
    ("advdiff-31", "exprb42-leja"): (1.4e-15, 0),
    ("advdiff-mixed-31", "exprb42-krylov"): (1.8e-9, 0),
    ("advdiff-mixed-31", "exprb42-leja"): (2.7e-14, 0),
    ("ns-8", "exprb42-krylov"): (1.6e-10, 0),
    ("ns-8", "exprb42-leja"): (3.0e-13, 0),
}


@pytest.mark.parametrize("name, method, tau, s", cases(("exprb42-krylov", "exprb42-leja")))
def test_exprb42_rows_differ_by_no_more_than_measured(name, method, tau, s):
    problem = PROBLEMS[name][0]()
    state, events = run(problem, method, tau, 1.0)
    scaled_state, scaled_events = run(problem, method, tau, s)
    max_rel, max_applies = KNOWN_EXCEPTIONS[name, method]
    assert np.linalg.norm(scaled_state - state) <= 2 * max_rel * np.linalg.norm(state)
    applies = sum(abs(scaled_events.get(op, 0) - events.get(op, 0))
                  for op in problem.operator_costs)
    assert applies <= max_applies
