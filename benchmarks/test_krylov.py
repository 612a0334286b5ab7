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

from expbench import matfunc
from expbench.problems import ns_linearize

from conftest import N_GRID, NU

ARNOLDI_STEPS = 40


def test_arnoldi_advdiff(benchmark, arnoldi, advdiff):
    _V, _H, extended = benchmark(arnoldi, advdiff.rhs, advdiff.initial_state(), ARNOLDI_STEPS)
    assert extended == ARNOLDI_STEPS


def test_arnoldi_ns_frozen_jacobian(benchmark, arnoldi, ns_state):
    applyJ = ns_linearize(ns_state, N_GRID, NU)
    _V, _H, extended = benchmark(arnoldi, applyJ, ns_state, ARNOLDI_STEPS)
    assert extended == ARNOLDI_STEPS


def test_leja_newton_advdiff(benchmark, advdiff):
    x = advdiff.initial_state()
    y, applies, _est = benchmark(matfunc._leja_newton, advdiff.linearize(), x, 0.05, 1e-7, 1)
    assert applies > 0
