"""Microbenchmarks of the Navier-Stokes stencil kernels at n = 40, the
desk shear flow's grid, and at n = 160, the ``--full`` one's, where one
field (200 KiB) is above glibc's default mmap threshold of 128 KiB.

Run from the root of a checkout with

    pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (``testpaths`` names only
``tests``).  Each benchmark runs outside any counter, so ``record`` is a
no-op and the timings are of the numerical work alone.
"""

import numpy as np

from expbench.problems import ns_rhs


def test_ns_rhs(benchmark, ns, ns_state):
    benchmark(ns_rhs, ns_state, ns.n, ns.nu)


def test_frozen_jacobian_apply(benchmark, ns, ns_state):
    applyJ = ns.linearize(ns_state)
    w = np.random.default_rng(1).standard_normal(ns_state.size)
    benchmark(applyJ, w)


def test_ns_linearize(benchmark, ns, ns_state):
    benchmark(ns.linearize, ns_state)


def test_linearization_bounds(benchmark, ns, ns_state):
    # what one Leja step pays: the bounds of a fresh linearization, whose
    # gradients are already computed (the setup is not timed)
    benchmark.pedantic(
        lambda J: J.bounds,
        setup=lambda: ((ns.linearize(ns_state),), {}),
        rounds=300,
    )
