"""Experiment runner: work-precision sweeps, reference solutions, and what a
sweep writes, which only this module states: the CSV columns
(``CSV_PRIMITIVES`` in order, ``CSV_HEADER``) and one number format, ``_fmt``.

An experiment is the Cartesian product of (method, tau, tol, zeta) on one
problem instance.  Every cell integrates to t_end, measures the relative
l2 error against a reference solution and captures the operation counter.
A cell whose error is finite but above 1 keeps it, with converged false;
unstable, non-convergent or non-finite cells are recorded with the "inf"
error sentinel rather than dropped.

The cells of a sweep are independent integrations, and each one's results
depend on nothing that runs beside it, so ``run_experiment`` runs them on
forked worker processes, one per available CPU, and assembles the records
in the parent in grid order: the CSVs are byte-identical to a run of one
cell after another.  The step-halving passes of the Navier-Stokes
reference are independent integrations too: ``compute_reference`` runs
them on the same kind of pool and compares them in the parent in pass
order, so it returns the pass that one pass after another would return,
bit for bit.  See ``_fork_pool`` for when work stays in-process.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace

import numpy as np
import scipy.linalg

from .counting import use_counter
from .integrators import IntegrationError, MethodConfig, METHODS, integrate, rk4_step
from .problems import AdvDiffProblem, NavierStokesProblem

CSV_PRIMITIVES = ("matvec", "jacvec", "rhs", "dot", "lincomb", "scale", "fetch", "store")
CSV_HEADER = ",".join(
    ("method", "tau", "tol", "zeta", "error", "total_cost", "steps", *CSV_PRIMITIVES, "converged")
)

REFERENCE_DENSE_CAP = 512
REFERENCE_STEP_CAP = 2**20
REFERENCE_RTOL = 1e-10


class ReferenceNotConverged(RuntimeError):
    """The NS reference's halving passes reached REFERENCE_STEP_CAP."""


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """One sweep over (method, tau, tol, zeta) on one problem.  The defaults
    are the paper's grid, which the presets and ``expbench run`` use."""

    problem: str  # "advdiff" | "ns"
    n: int
    taus: tuple
    t_end: float
    methods: tuple = tuple(METHODS)
    tols: tuple = (1e-4, 1e-7)
    zetas: tuple = (1.0, 10.0)
    kappa: object = ("const", 1.0 / 80.0)  # advdiff only
    nu: float = 1e-6  # ns only

    def __post_init__(self):
        if self.problem not in ("advdiff", "ns"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if not (self.methods and self.taus and self.tols and self.zetas):
            raise ValueError("methods, taus, tols and zetas must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not all(math.isfinite(t) and t > 0 for t in self.taus):
            raise ValueError("tau values must be finite and positive")
        if not all(math.isfinite(t) and t > 0 for t in self.tols):
            raise ValueError("tol values must be finite and positive")
        if not all(math.isfinite(z) and z >= 0 for z in self.zetas):
            raise ValueError("zeta values must be finite and non-negative")
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be finite and positive")


@dataclass
class WorkPrecisionRecord:
    method: str
    tau: float
    tol: float
    zeta: float
    error: float
    total_cost: float
    steps: int
    counts: dict
    converged: bool


def build_problem(spec: ExperimentSpec):
    if spec.problem == "advdiff":
        return AdvDiffProblem(spec.n, spec.kappa)
    return NavierStokesProblem(spec.n, spec.nu)


def error_norm(u, ref) -> float:
    """Relative discrete l2 error over the full state."""
    u = np.asarray(u, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if u.shape != ref.shape:
        raise ValueError("length mismatch")
    rnorm = float(np.linalg.norm(ref))
    if rnorm == 0.0:
        raise ValueError("reference norm is zero")
    return float(np.linalg.norm(u - ref)) / rnorm


def compute_reference(problem, t_end: float, tau_hint: float | None = None) -> np.ndarray:
    """Reference solution at t_end.

    Linear 1D problem: exact dense propagator exp(t_end L) u0, for at
    most REFERENCE_DENSE_CAP (512) points; more raise ValueError.
    Navier-Stokes: uncounted RK4, pass k with steps of (tau_hint / 16) / 2^k
    (tau_hint defaults to t_end / 64), until two neighbouring passes differ
    by less than 1e-10 in relative l2; a pass of more than
    REFERENCE_STEP_CAP steps raises ReferenceNotConverged instead.

    Each pass integrates from u0 on its own, so the passes run on forked
    workers (see ``_fork_pool``), and this process compares them strictly
    in pass order.  It returns the first pass that is within 1e-10 of the
    one before, and an exception, from a pass or the cap, is raised only
    at the pass where one pass after another would reach it: the result is
    that of the serial loop, bit for bit.  The order in which passes are
    submitted decides only the wall time: passes 0, 1 and 2 first, then
    the last pass that the difference of passes 0 and 1 predicts, then the
    passes between.  Passes past a prediction that was too low run one at a
    time.  On return or raise, passes still queued are cancelled and passes
    still running stop at their next step.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    if tau_hint is not None and not (math.isfinite(tau_hint) and tau_hint > 0):
        raise ValueError(f"tau_hint must be finite and positive, got {tau_hint!r}")
    u0 = problem.initial_state()
    if t_end == 0.0:
        return u0
    if isinstance(problem, AdvDiffProblem):
        if problem.n > REFERENCE_DENSE_CAP:
            raise ValueError(f"problem dimension {problem.n} exceeds cap {REFERENCE_DENSE_CAP}")
        return scipy.linalg.expm(t_end * problem.to_dense()) @ u0
    tau = (tau_hint if tau_hint is not None else t_end / 64.0) / 16.0
    steps = []  # the step count of each pass; only the last exceeds the cap
    while not steps or steps[-1] <= REFERENCE_STEP_CAP:
        steps.append(max(1, math.ceil(t_end / tau)))
        tau /= 2.0
    stop = multiprocessing.get_context("fork").Event()
    run_pass = functools.partial(_reference_pass, problem=problem, u0=u0, t_end=t_end, stop=stop)
    with _fork_pool(run_pass, len(steps) - 1) as submit:
        try:
            return _first_converged_pass(submit, steps)
        finally:
            stop.set()  # a pass still running is not needed: end it now


def _first_converged_pass(submit, steps):
    """The first pass that ``submit`` runs within REFERENCE_RTOL of the
    pass before, compared in pass order (see compute_reference)."""
    passes = {}

    def start(*ks):
        for k in ks:
            if k not in passes:
                passes[k] = submit(steps[k])

    start(*range(min(3, len(steps) - 1)))
    prev = None
    for k, n in enumerate(steps):
        if n > REFERENCE_STEP_CAP:
            raise ReferenceNotConverged(
                f"reference solution did not converge within step cap "
                f"{REFERENCE_STEP_CAP}: pass {k} needs {n} steps"
            )
        start(k)
        u = passes[k].result()
        if prev is not None:
            diff = error_norm(u, prev)
            if diff < REFERENCE_RTOL:
                return u
            if k == 1 and (last := _predict_last_pass(diff, steps)) is not None:
                start(last, *range(3, last))
        prev = u


def _reference_pass(steps, problem, u0, t_end, stop):
    """u0 advanced to t_end by ``steps`` uncounted RK4 steps, or None if
    ``stop`` is set first."""
    dt = t_end / steps
    u = u0.copy()
    with use_counter(None):
        for _k in range(steps):
            if stop.is_set():
                return None
            u = rk4_step(problem, u, dt)
    return u


def _predict_last_pass(diff, steps):
    """The pass whose difference from the one before should first fall
    below REFERENCE_RTOL, given ``diff`` between passes 0 and 1: RK4's
    error falls about 16-fold with each halving.  None when ``diff`` is not
    finite or that pass would exceed the step cap."""
    if not math.isfinite(diff):
        return None
    last = 2 + math.floor(math.log(diff, 16) - math.log(REFERENCE_RTOL, 16))
    return last if last < len(steps) - 1 else None


def run_experiment(spec: ExperimentSpec, reference=None, problem=None):
    """All work-precision records for the spec, in grid iteration order.

    zeta only re-weights the inner-product cost, so each (method, tau, tol)
    cell is integrated once and its counter re-totaled per zeta.  Explicit
    methods store tol None, so their cell serves every tol of the grid.

    The distinct cells run on forked workers, at most one per cell and
    per CPU, or in this process (see ``_fork_pool``).  Each worker keeps
    its own divided-difference cache.  Only (error, counter, steps,
    converged) comes back; the records are built here in grid order, so
    the CSV is byte-identical to an in-process sweep.  An exception other
    than ``IntegrationError`` propagates with its own type, from the first
    failing cell in grid order, and every worker has exited before this
    function returns or raises.
    """
    if problem is None:
        problem = build_problem(spec)
    if reference is None:
        reference = compute_reference(problem, spec.t_end, tau_hint=min(spec.taus))
    grid = [
        (tol, MethodConfig(method=method, tau=tau, tol=tol))
        for method, tau, tol in itertools.product(spec.methods, spec.taus, spec.tols)
    ]
    cells = {astuple(config): config for _tol, config in grid}
    cell = functools.partial(
        _run_cell, problem=problem, u0=problem.initial_state(), t_end=spec.t_end,
        reference=reference,
    )
    with _fork_pool(cell, len(cells)) as submit:
        futures = [submit(config) for config in cells.values()]
        results = dict(zip(cells, [future.result() for future in futures]))
    records = []
    for tol, config in grid:
        error, counter, steps, converged = results[astuple(config)]
        for zeta in spec.zetas:
            records.append(
                WorkPrecisionRecord(
                    method=config.method,
                    tau=config.tau,
                    tol=tol,
                    zeta=zeta,
                    error=error,
                    total_cost=counter.total_cost(zeta),
                    steps=steps,
                    counts={p: counter.count(p) for p in CSV_PRIMITIVES},
                    converged=converged,
                )
            )
    return records


def _run_cell(config, problem, u0, t_end, reference):
    try:
        result = integrate(problem, config, u0, t_end)
    except IntegrationError as exc:
        return math.inf, exc.counter, exc.steps, False
    err = error_norm(result.final_state, reference)
    if not math.isfinite(err) or err > 1.0:
        # stable arithmetic but no meaningful accuracy: flag as not converged
        return (err if math.isfinite(err) else math.inf), result.counter, result.steps_taken, False
    return err, result.counter, result.steps_taken, True


# The package's own integrate, inside a tuple: perfbench's span tracer
# rebinds every module attribute that holds the function, a plain alias too.
_PACKAGE_INTEGRATE = (integrate,)


@contextlib.contextmanager
def _fork_pool(fn, jobs: int):
    """Yield ``submit(arg)``, which returns a future of ``fn(arg)``.

    ``fn`` runs on ``min(cpus, jobs)`` worker processes forked from this
    one, so it inherits what ``fn`` holds (the problem, ``u0``, the
    reference, the Leja points if this process generated them); only
    ``arg`` and the result cross a pipe.  ``cpus`` counts
    ``os.sched_getaffinity(0)``, or is 1 where Python lacks it (macOS).
    It runs in this process instead, when the future's result is asked
    for, with one CPU, and when the ``integrate`` this module calls is not
    the package's own: a caller that rebound it (a tracer, a spy) keeps its
    effects in this process's memory, where a worker's would be lost.  A
    worker that dies raises BrokenProcessPool from its futures.  When the
    block exits, queued calls are cancelled and every worker has exited.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, jobs)
    if workers < 2 or integrate is not _PACKAGE_INTEGRATE[0]:
        yield functools.partial(_Deferred, fn)
        return
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit, initargs=(fn,),
    )
    try:
        yield functools.partial(pool.submit, _run_inherited)
    finally:
        pool.shutdown(cancel_futures=True)


class _Deferred:
    """In-process stand-in for a future: ``result()`` calls ``fn(arg)``."""

    def __init__(self, fn, arg):
        self.fn, self.arg = fn, arg

    def result(self):
        return self.fn(self.arg)


_inherited = None  # in a forked worker: the function its pool runs


def _inherit(fn) -> None:
    global _inherited
    _inherited = fn


def _run_inherited(arg):
    return _inherited(arg)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(records, path) -> None:
    """Deterministic CSV serialization (grid iteration order, 17 digits)."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            counts = r.counts
            row = [
                r.method,
                _fmt(r.tau),
                _fmt(r.tol),
                _fmt(r.zeta),
                _fmt(r.error),
                _fmt(r.total_cost),
                str(r.steps),
            ]
            row += [str(counts.get(p, 0)) for p in CSV_PRIMITIVES]
            row.append("true" if r.converged else "false")
            fh.write(",".join(row) + "\n")


def read_csv(path):
    """Round-trip helper: parse a results CSV back into records."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                WorkPrecisionRecord(
                    method=row["method"],
                    tau=float(row["tau"]),
                    tol=float(row["tol"]),
                    zeta=float(row["zeta"]),
                    error=float(row["error"]),
                    total_cost=float(row["total_cost"]),
                    steps=int(row["steps"]),
                    counts={p: int(row[p]) for p in CSV_PRIMITIVES},
                    converged=row["converged"] == "true",
                )
            )
    return records


def dump_fields(problem: NavierStokesProblem, state, outdir) -> None:
    """Write rho.csv, u.csv, v.csv, omega.csv as n x n comma-separated grids."""
    os.makedirs(outdir, exist_ok=True)
    rho, u, v, omega = problem.fields(state)
    for name, grid in (("rho", rho), ("u", u), ("v", v), ("omega", omega)):
        with open(os.path.join(outdir, f"{name}.csv"), "w") as fh:
            for row in grid:
                fh.write(",".join(map(_fmt, row)) + "\n")


# ---------------------------------------------------------------------------
# presets


def _tau_grid(tau_max: float, count: int) -> tuple:
    return tuple(tau_max / 2**m for m in range(count))


def _desk(problem, n, taus, **fields) -> ExperimentSpec:
    return ExperimentSpec(problem=problem, n=n, taus=taus, t_end=1.0, **fields)


# name -> (desk-scale spec, the fields that ``full`` changes)
PRESETS = {
    "diffusion": (
        _desk("advdiff", 159, _tau_grid(0.25, 5), kappa=("const", 1.0 / 80.0)),
        {"taus": _tau_grid(0.25, 9)},
    ),
    "advection": (
        _desk("advdiff", 159, _tau_grid(0.25, 5), kappa=("const", 1.0 / 2560.0)),
        {"taus": _tau_grid(0.25, 9)},
    ),
    "mixed": (
        _desk("advdiff", 159, _tau_grid(0.1, 4), kappa="mixed"),
        {"taus": _tau_grid(0.1, 7)},
    ),
    "shearflow": (
        _desk("ns", 40, _tau_grid(1.0, 8), nu=1e-6),
        {"n": 160, "t_end": 12.0},
    ),
}


def preset(name: str, full: bool = False) -> ExperimentSpec:
    """Named experiment presets mirroring the benchmark setups.

    Desk-scale defaults keep runtimes in the minutes range; ``full`` enables
    the full-scale parameters (finer tau grids, n = 160 / t_end = 12 for the
    shear flow).
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    spec, full_fields = PRESETS[name]
    return replace(spec, **full_fields) if full else spec
