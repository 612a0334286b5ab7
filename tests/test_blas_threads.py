"""Runs, errors, references and the dense kernels use one BLAS thread, so
results do not depend on ``OPENBLAS_NUM_THREADS``, and each gives the
thread count back."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from expbench import linalg
from expbench.integrators import MethodConfig, integrate
from expbench.linalg import dense_expm
from expbench.problems import AdvDiffProblem

SRC = Path(__file__).resolve().parents[1] / "src"

# one exprb42-krylov cell of the diffusion preset, the advection-preset
# reference, and one exprb-euler-krylov step on a Navier-Stokes state of
# 12288 entries (where np.dot rounds differently on two threads) with its
# error_norm against the initial state, printed as the bytes of their
# float64 results
CELL_AND_REFERENCE = """
from expbench.harness import build_problem, compute_reference, error_norm, preset
from expbench.integrators import MethodConfig, integrate
from expbench.problems import NavierStokesProblem

diffusion = build_problem(preset("diffusion"))
config = MethodConfig("exprb42-krylov", tau=0.25, tol=1e-7)
cell = integrate(diffusion, config, diffusion.initial_state(), 1.0)
advection = preset("advection")
reference = compute_reference(build_problem(advection), advection.t_end)
ns = NavierStokesProblem(64, 1e-6)
u0 = ns.initial_state()
step = integrate(ns, MethodConfig("exprb-euler-krylov", tau=0.25, tol=1e-6), u0, 0.25)
print(cell.final_state.tobytes().hex())
print(reference.tobytes().hex())
print(step.final_state.tobytes().hex())
print(error_norm(step.final_state, u0).hex())
"""


def run_with_blas_threads(threads):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", CELL_AND_REFERENCE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.split()


def test_cell_and_reference_identical_for_one_and_two_blas_threads():
    one, two = run_with_blas_threads(1), run_with_blas_threads(2)
    assert len(one) == 4
    assert one == two


def test_both_openblas_thread_setters_found():
    assert len(linalg._BLAS_THREAD_SETTERS) == 2


def set_blas_threads(counts):
    """Set each setter's count; returns the counts they held before."""
    return [setter(n) for setter, n in zip(linalg._BLAS_THREAD_SETTERS, counts)]


def krylov_run():
    # a run whose dense_expm calls nest inside the run's own pin
    pb = AdvDiffProblem(16, "mixed")
    integrate(pb, MethodConfig("exprb-euler-krylov", tau=0.5, tol=1e-6), pb.initial_state(), 1.0)


@pytest.mark.parametrize("call", [lambda: dense_expm(np.eye(8)), krylov_run],
                         ids=["dense_expm", "integrate"])
def test_restores_the_blas_thread_count(call):
    saved = set_blas_threads([3, 3])
    try:
        call()
    finally:
        seen = set_blas_threads(saved)
    assert seen == [3, 3]


def test_concurrent_calls_restore_the_blas_thread_count():
    """The setters are process-wide: without the lock, one thread would save
    the 1 that another had set and restore it last, and a block would run
    on the count another had restored.  Two threads call dense_expm alone,
    two run integrate, whose dense_expm calls nest."""
    M = np.random.default_rng(0).standard_normal((20, 20))
    errors = []
    inside = []  # the counts each block found, read by setting the 1 they should be

    def work(call, reps):
        try:
            for _ in range(reps):
                call()
                with linalg._one_blas_thread():
                    inside.append(set_blas_threads([1, 1]))
        except Exception as exc:  # noqa: BLE001  (reported by the assert below)
            errors.append(exc)

    saved = set_blas_threads([3, 3])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(lambda: dense_expm(M), 100))
                   for _ in range(2)]
        threads += [threading.Thread(target=work, args=(krylov_run, 5)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        seen = set_blas_threads(saved)
    assert errors == []
    assert inside and all(counts == [1, 1] for counts in inside)
    assert seen == [3, 3]
