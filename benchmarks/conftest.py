"""Fixtures shared by the microbenchmarks."""

import numpy as np
import pytest

from expbench.linalg import norm2, scale
from expbench.matfunc import arnoldi_extend
from expbench.problems import AdvDiffProblem, NavierStokesProblem

N_ADVDIFF = 159
N_GRID = 40  # Navier-Stokes grid points per axis
NU = 1e-4


def _arnoldi(applyA, v, steps):
    """``steps`` Arnoldi extensions from v on arrays set up as _krylov_arnoldi
    sets them up: (V, H, number of extensions that did not break down)."""
    beta = norm2(v)
    V = np.empty((steps + 1, v.size))
    V[0] = scale(1.0 / beta, v)
    H = np.zeros((steps + 1, steps))
    extended = sum(arnoldi_extend(applyA, V, H, j, beta) for j in range(steps))
    return V, H, extended


@pytest.fixture(scope="session")
def arnoldi():
    return _arnoldi


@pytest.fixture(scope="session")
def advdiff():
    """The diffusion preset's operator: n = 159, kappa = 1/80."""
    return AdvDiffProblem(N_ADVDIFF, ("const", 1.0 / 80.0))


@pytest.fixture(scope="session")
def ns():
    """The Navier-Stokes problem of the NS benchmarks: n = 40, nu = 1e-4."""
    return NavierStokesProblem(N_GRID, NU)


@pytest.fixture(scope="session")
def ns_state(ns):
    """The Navier-Stokes state of the NS benchmarks: the n = 40 shear flow
    plus a 1e-3 normal perturbation drawn from seed 0."""
    rng = np.random.default_rng(0)
    return ns.initial_state() + 1e-3 * rng.standard_normal(3 * N_GRID**2)
