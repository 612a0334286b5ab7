"""Microbenchmarks of the Arnoldi and Leja Newton loops.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``); ``tests/test_benchmarks_smoke.py`` runs it once with
``--benchmark-disable`` as a smoke test.

Each benchmark runs outside any counter, so ``record`` is a
no-op and the timings are of the loops alone.  Arnoldi's Gram-Schmidt
passes run in one compiled loop, so an Arnoldi step costs the operator
apply, a few numpy calls and that loop; the Leja loop is Python and numpy,
a few calls per term.
"""

from expbench import matfunc

ARNOLDI_STEPS = 40


def test_arnoldi_advdiff(benchmark, arnoldi, advdiff):
    _V, _H, extended = benchmark(arnoldi, advdiff.rhs, advdiff.initial_state(), ARNOLDI_STEPS)
    assert extended == ARNOLDI_STEPS


def test_arnoldi_ns_frozen_jacobian(benchmark, arnoldi, ns, ns_state):
    applyJ = ns.linearize(ns_state)
    _V, _H, extended = benchmark(arnoldi, applyJ, ns_state, ARNOLDI_STEPS)
    assert extended == ARNOLDI_STEPS


def test_leja_newton_advdiff(benchmark, advdiff):
    x = advdiff.initial_state()
    y, applies, _est = benchmark(matfunc._leja_newton, advdiff.linearize(), x, 0.05, 1e-7, 1)
    assert applies > 0
