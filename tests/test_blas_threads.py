"""The dense kernels run on one BLAS thread, so results do not depend on
``OPENBLAS_NUM_THREADS``, and ``dense_expm`` gives the thread count back."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from expbench import linalg
from expbench.linalg import dense_expm

SRC = Path(__file__).resolve().parents[1] / "src"

# one exprb42-krylov cell of the diffusion preset and the advection-preset
# reference, printed as the bytes of their float64 results
CELL_AND_REFERENCE = """
from expbench.harness import build_problem, compute_reference, preset
from expbench.integrators import MethodConfig, integrate

diffusion = build_problem(preset("diffusion"))
config = MethodConfig("exprb42-krylov", tau=0.25, tol=1e-7)
cell = integrate(diffusion, config, diffusion.initial_state(), 1.0)
advection = preset("advection")
reference = compute_reference(build_problem(advection), advection.t_end)
print(cell.final_state.tobytes().hex())
print(reference.tobytes().hex())
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
    assert len(one) == 2
    assert one == two


def test_both_openblas_thread_setters_found():
    assert len(linalg._BLAS_THREAD_SETTERS) == 2


def set_blas_threads(counts):
    """Set each setter's count; returns the counts they held before."""
    return [setter(n) for setter, n in zip(linalg._BLAS_THREAD_SETTERS, counts)]


def test_dense_expm_restores_the_blas_thread_count():
    saved = set_blas_threads([3, 3])
    try:
        dense_expm(np.eye(8))
    finally:
        seen = set_blas_threads(saved)
    assert seen == [3, 3]


def test_concurrent_calls_restore_the_blas_thread_count():
    """The setters are process-wide: without the lock, one thread would save
    the 1 that another had set and restore it last."""
    M = np.random.default_rng(0).standard_normal((20, 20))
    errors = []

    def work():
        try:
            for _ in range(50):
                dense_expm(M)
        except Exception as exc:  # noqa: BLE001  (reported by the assert below)
            errors.append(exc)

    saved = set_blas_threads([3, 3])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        seen = set_blas_threads(saved)
    assert errors == []
    assert seen == [3, 3]
