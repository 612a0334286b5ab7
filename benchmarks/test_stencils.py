"""Microbenchmarks of the Navier-Stokes stencil kernels at n = 40.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``).  Each benchmark runs outside any counter, so ``record`` is a
no-op and the timings are of the numerical work alone.
"""

import numpy as np
import pytest

from expbench.problems import ns_linearize, ns_rhs, shear_flow_init

N_GRID = 40
NU = 1e-4


@pytest.fixture(scope="module")
def state():
    rng = np.random.default_rng(0)
    return shear_flow_init(N_GRID) + 1e-3 * rng.standard_normal(3 * N_GRID**2)


def test_ns_rhs(benchmark, state):
    benchmark(ns_rhs, state, N_GRID, NU)


def test_frozen_jacobian_apply(benchmark, state):
    applyJ = ns_linearize(state, N_GRID, NU)
    w = np.random.default_rng(1).standard_normal(state.size)
    benchmark(applyJ, w)


def test_ns_linearize(benchmark, state):
    benchmark(ns_linearize, state, N_GRID, NU)


def test_linearization_bounds(benchmark, state):
    # what one Leja step pays: the bounds of a fresh linearization, whose
    # gradients are already computed (the setup is not timed)
    benchmark.pedantic(
        lambda J: J.bounds,
        setup=lambda: ((ns_linearize(state, N_GRID, NU),), {}),
        rounds=300,
    )
