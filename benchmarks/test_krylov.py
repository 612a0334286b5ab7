"""Microbenchmarks of the Arnoldi and Leja Newton loops.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``).  Each benchmark runs outside any counter, so ``record`` is a
no-op and the timings are of the loops alone: at these sizes they are
mostly the Python overhead per inner product and vector update.
"""

import numpy as np
import pytest

from expbench import matfunc
from expbench.matfunc import arnoldi_extend, arnoldi_start, default_leja_sequence
from expbench.problems import AdvDiffProblem, advdiff_kappa, ns_linearize, shear_flow_init

ARNOLDI_STEPS = 40
N_ADVDIFF = 159
N_GRID = 40
NU = 1e-4


@pytest.fixture(scope="module")
def advdiff():
    return AdvDiffProblem(N_ADVDIFF, advdiff_kappa(("const", 1.0 / 80.0)))


@pytest.fixture(scope="module")
def ns_jacobian():
    rng = np.random.default_rng(0)
    state = shear_flow_init(N_GRID) + 1e-3 * rng.standard_normal(3 * N_GRID**2)
    return ns_linearize(state, N_GRID, NU), state


def arnoldi_steps(applyA, v):
    state = arnoldi_start(v)
    for _ in range(ARNOLDI_STEPS):
        arnoldi_extend(applyA, state)
    return state


def test_arnoldi_advdiff(benchmark, advdiff):
    state = benchmark(arnoldi_steps, advdiff.rhs, advdiff.initial_state())
    assert state.m == ARNOLDI_STEPS


def test_arnoldi_ns_frozen_jacobian(benchmark, ns_jacobian):
    applyJ, state = ns_jacobian
    basis = benchmark(arnoldi_steps, applyJ, state)
    assert basis.m == ARNOLDI_STEPS


def test_leja_newton_advdiff(benchmark, advdiff):
    c, gamma = matfunc._leja_interval(advdiff.spectral_bounds())
    points = default_leja_sequence().points
    x = advdiff.initial_state()
    y, applies, _est = benchmark(
        matfunc._leja_newton, advdiff.rhs, x, 0.05, 1e-7, 1, c, gamma, points
    )
    assert applies > 0
