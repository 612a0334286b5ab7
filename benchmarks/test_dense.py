"""Microbenchmarks of the dense kernels of the two evaluators.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``); ``tests/test_benchmarks_smoke.py`` runs it once with
``--benchmark-disable`` as a smoke test.

The inputs are those of the diffusion preset (n = 159,
kappa = 1/80, tau = 0.25): the Hessenberg matrix of an Arnoldi run on the
operator, and the Leja points shifted and scaled to its spectral interval.
Each kernel is one matrix exponential, on one BLAS thread: for the divided
differences a ``scipy.linalg.expm``, for the Hessenberg matrix scipy's Pade
kernels, which compute expm's result without its per-call checks.  The
Hessenberg case also runs through plain ``scipy.linalg.expm`` on the same
matrix, as the baseline that shows what the kernels save.
"""

import numpy as np
import pytest
import scipy.linalg

from expbench import matfunc
from expbench.matfunc import default_leja_sequence, divided_differences_exp, hessenberg_phi_e1

TAU = 0.25


@pytest.mark.parametrize("m", [20, 100])
def test_hessenberg_phi_e1(benchmark, arnoldi, advdiff, m):
    _V, H, extended = arnoldi(advdiff.rhs, advdiff.initial_state(), m)
    assert extended == m
    Hm = TAU * H[:m, :m]
    cols = benchmark(hessenberg_phi_e1, Hm, 3)
    assert cols.shape == (m, 4)
    assert np.all(np.isfinite(cols))


def expm_columns(Hm, q):
    """hessenberg_phi_e1's columns from plain scipy.linalg.expm."""
    m = Hm.shape[0]
    aug = np.zeros((m + q, m + q))
    aug[:m, :m] = Hm
    aug[0, m] = 1.0
    aug[m : m + q - 1, m + 1 :] = np.eye(q - 1)
    return scipy.linalg.expm(aug)[:m, [0, *range(m, m + q)]]


@pytest.mark.parametrize("m", [20, 100])
def test_hessenberg_phi_e1_through_expm(benchmark, arnoldi, advdiff, m):
    _V, H, _extended = arnoldi(advdiff.rhs, advdiff.initial_state(), m)
    Hm = TAU * H[:m, :m]
    cols = benchmark(expm_columns, Hm, 3)
    assert np.array_equal(cols, hessenberg_phi_e1(Hm, 3))


@pytest.mark.parametrize("count", [32, 128])
def test_divided_differences_exp(benchmark, advdiff, count):
    c, gamma = matfunc._leja_interval(advdiff.linearize().bounds)
    points = np.asarray(default_leja_sequence()[:count]) + c / gamma
    dd = benchmark(divided_differences_exp, points, TAU * gamma, 1)
    assert dd.shape == (count,)
    assert np.all(np.isfinite(dd))
