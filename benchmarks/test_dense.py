"""Microbenchmarks of the dense kernels of the two evaluators.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``).  The inputs are those of the diffusion preset (n = 159,
kappa = 1/80, tau = 0.25): the Hessenberg matrix of an Arnoldi run on the
operator, and the Leja points shifted and scaled to its spectral interval.
Both kernels are one ``dense_expm``, on one BLAS thread.
"""

import numpy as np
import pytest

from expbench import matfunc
from expbench.matfunc import (
    arnoldi_extend,
    arnoldi_start,
    default_leja_sequence,
    divided_differences_exp,
    hessenberg_phi_e1,
)
from expbench.problems import AdvDiffProblem, advdiff_kappa

N_ADVDIFF = 159
TAU = 0.25


@pytest.fixture(scope="module")
def advdiff():
    return AdvDiffProblem(N_ADVDIFF, advdiff_kappa(("const", 1.0 / 80.0)))


@pytest.mark.parametrize("m", [20, 100])
def test_hessenberg_phi_e1(benchmark, advdiff, m):
    state = arnoldi_start(advdiff.initial_state())
    for _ in range(m):
        arnoldi_extend(advdiff.rhs, state)
    Hm = TAU * state.H[:m, :m]
    cols = benchmark(hessenberg_phi_e1, Hm, 3)
    assert cols.shape == (m, 4)
    assert np.all(np.isfinite(cols))


@pytest.mark.parametrize("count", [32, 128])
def test_divided_differences_exp(benchmark, advdiff, count):
    c, gamma = matfunc._leja_interval(advdiff.linearize().bounds)
    points = np.asarray(default_leja_sequence().points[:count]) + c / gamma
    dd = benchmark(divided_differences_exp, points, TAU * gamma, 1)
    assert dd.shape == (count,)
    assert np.all(np.isfinite(dd))
