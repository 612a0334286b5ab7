"""Importing ``expbench.linalg`` sets one BLAS thread for the process, so
results do not depend on ``OPENBLAS_NUM_THREADS``; runs in threads beside
each other keep their own counts."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from expbench import harness, linalg, matfunc
from expbench.integrators import MethodConfig, integrate
from expbench.problems import AdvDiffProblem, NavierStokesProblem

from conftest import use_cpus

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


# the count each OpenBLAS build holds once expbench.linalg is imported
IMPORT_PIN = """
from expbench import linalg
print(*[setter(1) for setter in linalg._BLAS_THREAD_SETTERS])
"""


def run_with_blas_threads(threads, script=CELL_AND_REFERENCE):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.split()


def test_cell_and_reference_identical_for_one_and_two_blas_threads():
    one, two = run_with_blas_threads(1), run_with_blas_threads(2)
    assert len(one) == 4
    assert one == two


def test_both_openblas_thread_setters_found():
    assert len(linalg._BLAS_THREAD_SETTERS) == 2


def test_import_sets_a_single_blas_thread():
    assert run_with_blas_threads(2, IMPORT_PIN) == ["1", "1"]


def blas_thread_counts():
    """The count each OpenBLAS build holds, read by setting the 1 it should hold."""
    return [setter(1) for setter in linalg._BLAS_THREAD_SETTERS]


def hessenberg_phi_counts(monkeypatch):
    """The counts inside the Krylov dense kernel's two paths: scipy's expm,
    which a matrix with a zero subdiagonal (the identity) goes to, and the
    Pade kernel that a Hessenberg matrix goes to."""
    seen = []
    expm, pade_UV_calc = scipy.linalg.expm, matfunc.pade_UV_calc

    def spy_expm(M):
        seen.append(("expm", blas_thread_counts()))
        return expm(M)

    def spy_pade(work, order):
        seen.append(("pade", blas_thread_counts()))
        return pade_UV_calc(work, order)

    monkeypatch.setattr(scipy.linalg, "expm", spy_expm)
    monkeypatch.setattr(matfunc, "pade_UV_calc", spy_pade)
    matfunc.hessenberg_phi_e1(np.eye(8), 1)
    matfunc.hessenberg_phi_e1(np.triu(np.ones((8, 8)), -1), 1)
    assert [path for path, _counts in seen] == ["expm", "pade"]
    return [counts for _path, counts in seen]


def integrate_counts(monkeypatch):
    seen = []

    class CountsInRhs(AdvDiffProblem):
        def rhs(self, u):
            seen.append(blas_thread_counts())
            return super().rhs(u)

    pb = CountsInRhs(16, "mixed")
    integrate(pb, MethodConfig("exprb-euler-krylov", tau=0.5, tol=1e-6), pb.initial_state(), 1.0)
    return seen


@pytest.mark.parametrize("run", [hessenberg_phi_counts, integrate_counts],
                         ids=["hessenberg_phi", "integrate"])
def test_calls_run_on_a_single_blas_thread(monkeypatch, run):
    """Inside each call and after it both builds hold one thread: no call
    sets or restores a count of its own."""
    seen = run(monkeypatch)
    assert seen and all(counts == [1, 1] for counts in seen)
    assert blas_thread_counts() == [1, 1]


def test_forked_sweep_worker_runs_on_a_single_blas_thread(monkeypatch, tmp_path):
    seen = tmp_path / "seen"
    run_cell = harness._run_cell

    def spy(config, **kwargs):
        counts = blas_thread_counts()
        with open(seen, "a") as fh:
            fh.write(f"{os.getpid()} {counts}\n")
        return run_cell(config, **kwargs)

    monkeypatch.setattr(harness, "_run_cell", spy)
    use_cpus(monkeypatch, 2)
    spec = harness.ExperimentSpec(
        problem="advdiff", n=16, methods=("rk4", "exprb-euler-krylov"), taus=(0.25,),
        tols=(1e-4,), zetas=(1.0,), t_end=0.5,
    )
    assert len(harness.run_experiment(spec)) == 2
    pids, counts = zip(*(line.split(" ", 1) for line in seen.read_text().splitlines()))
    assert str(os.getpid()) not in pids
    assert counts == ("[1, 1]", "[1, 1]")


class MeetInRhs:
    """A problem whose first rhs call in each of ``parties`` threads waits
    for the others' first, so the runs on it are in progress at once."""

    def __init__(self, problem, parties):
        self.problem = problem
        self.met = threading.local()
        self.barrier = threading.Barrier(parties, timeout=10)

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def rhs(self, u):
        if not getattr(self.met, "done", False):
            self.met.done = True
            self.barrier.wait()
        return self.problem.rhs(u)


def assert_concurrent_runs_match_serial_runs(make_problem, configs, t_end):
    """Each config integrated in its own thread, all on one shared problem,
    gives the state and counted events of a serial run on a fresh one."""

    def run(problem, config):
        result = integrate(problem, config, problem.initial_state(), t_end)
        return result.final_state.tobytes(), result.counter.events

    serial = [run(make_problem(), config) for config in configs]
    problem = MeetInRhs(make_problem(), len(configs))
    concurrent = [None] * len(configs)
    errors = []

    def work(i):
        try:
            concurrent[i] = run(problem, configs[i])
        except Exception as exc:  # noqa: BLE001  (reported by the assert below)
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert concurrent == serial


def test_concurrent_runs_match_serial_runs():
    """Two integrate calls in two threads overlap; each run counts on its
    own context-variable counter, so each gives a serial run's state and
    counted events."""
    configs = [MethodConfig("exprb42-krylov", tau=1 / 32, tol=1e-7),
               MethodConfig("exprb-euler-leja", tau=1 / 32, tol=1e-7)]
    assert_concurrent_runs_match_serial_runs(lambda: AdvDiffProblem(31, "mixed"), configs, 1.0)


def test_concurrent_navier_stokes_runs_match_serial_runs():
    """Four runs at once on one Navier-Stokes problem, two of each method:
    ``ns_rhs`` and the Jacobian applies keep their scratch per thread, so
    no run sees another's intermediate stacks."""
    configs = [MethodConfig("exprb-euler-leja", tau=1 / 16, tol=1e-7),
               MethodConfig("exprb42-krylov", tau=1 / 16, tol=1e-7)] * 2
    assert_concurrent_runs_match_serial_runs(lambda: NavierStokesProblem(8, 1e-4), configs, 0.5)
