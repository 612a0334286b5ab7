"""Microbenchmarks of the Arnoldi and Leja Newton loops.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``); ``tests/test_benchmarks_smoke.py`` runs it once with
``--benchmark-disable`` as a smoke test.

Each benchmark runs outside any counter, so ``record`` is a
no-op and the timings are of the loops alone: at these sizes they are
mostly the Python overhead per inner product and vector update.
"""

import numpy as np
import pytest

from expbench import matfunc
from expbench.problems import ns_linearize, shear_flow_init

ARNOLDI_STEPS = 40
N_GRID = 40
NU = 1e-4


@pytest.fixture(scope="module")
def ns_jacobian():
    rng = np.random.default_rng(0)
    state = shear_flow_init(N_GRID) + 1e-3 * rng.standard_normal(3 * N_GRID**2)
    return ns_linearize(state, N_GRID, NU), state


def test_arnoldi_advdiff(benchmark, arnoldi, advdiff):
    _V, _H, extended = benchmark(arnoldi, advdiff.rhs, advdiff.initial_state(), ARNOLDI_STEPS)
    assert extended == ARNOLDI_STEPS


def test_arnoldi_ns_frozen_jacobian(benchmark, arnoldi, ns_jacobian):
    applyJ, state = ns_jacobian
    _V, _H, extended = benchmark(arnoldi, applyJ, state, ARNOLDI_STEPS)
    assert extended == ARNOLDI_STEPS


def test_leja_newton_advdiff(benchmark, advdiff):
    x = advdiff.initial_state()
    y, applies, _est = benchmark(matfunc._leja_newton, advdiff.linearize(), x, 0.05, 1e-7, 1)
    assert applies > 0
