"""What perfbench/ relies on in expbench, checked without editing perfbench/.

The benchmark builds its grids with ``workloads.build_spec`` and traces a
sweep by rebinding module attributes (``spans.Tracer``).  A step reached
through anything other than the module globals escapes the tracer, and the
traced step count then reads 0 although every CSV stays the same.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from expbench import harness
from expbench.integrators import METHODS, MethodConfig, integrate
from expbench.problems import AdvDiffProblem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


# (layer module, name) of every function whose spans a per-layer metric
# counts: the tracer wraps only public functions defined in their layer
# module, so a name that moved out of it would make its metric read 0.
# spans.PRIMITIVES still names ``dot``, a test helper now; its metrics read 0
# like those of every LAYER_MAP name with no function behind it
TRACED = (
    [("linalg", f) for f in spans.PRIMITIVES if f != "dot"]
    + [("matfunc", f) for f in spans.PHI_FUNCS]
    + [("integrators", f) for f in spans.STEP_FUNCS]
    + [
        ("problems", "ns_rhs"),
        ("harness", "compute_reference"),
        ("integrators", "integrate"),
        ("matfunc", "arnoldi_extend"),
        ("matfunc", "divided_differences_exp"),
        ("counting", "record"),
    ]
)

# what worker.py and workloads.py call by attribute
CALLED = (
    ("harness", "preset"),
    ("harness", "build_problem"),
    ("harness", "compute_reference"),
    ("harness", "run_experiment"),
    ("harness", "write_csv"),
    ("harness", "read_csv"),
    ("matfunc", "default_leja_sequence"),
)


@pytest.mark.parametrize("layer,name", TRACED)
def test_traced_name_is_a_public_function_of_its_layer(layer, name):
    assert layer in spans.LAYERS
    module = importlib.import_module(f"expbench.{layer}")
    obj = getattr(module, name, None)
    assert isinstance(obj, types.FunctionType)
    assert obj.__module__ == module.__name__


@pytest.mark.parametrize("layer,name", CALLED)
def test_name_the_worker_calls_exists(layer, name):
    module = importlib.import_module(f"expbench.{layer}")
    assert callable(getattr(module, name, None))


def test_tracer_sees_the_1d_operator_of_a_problem_built_before_install():
    # the worker builds the problem before it installs the tracer
    pb = AdvDiffProblem(16, "mixed")
    tracer = spans.Tracer()
    tracer.install()
    try:
        pb.rhs(np.ones(16))
        pb.linearize()(np.ones(16))
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["linalg.apply_operator.calls"] == 2


def test_every_workload_builds_a_permuted_spec():
    for name in workloads.WORKLOADS:
        spec = workloads.build_spec(harness, name, 1)
        assert sorted(spec.methods) == sorted(METHODS)


def test_every_workload_states_one_state_length():
    # the benchmark recomputes L for its zeta-identity check; it must be the
    # L that a run's counter totals with
    for name in workloads.WORKLOADS:
        spec = workloads.build_spec(harness, name, 1)
        problem = harness.build_problem(spec)
        u0 = problem.initial_state()
        run = integrate(problem, MethodConfig(method="rk2", tau=1e-6), u0, 1e-6)
        assert workloads.state_length(spec) == run.counter.state_len


def traced_sweep(methods) -> spans.Tracer:
    """The tracer of one small advdiff sweep over ``methods``."""
    spec = harness.ExperimentSpec(
        problem="advdiff",
        n=31,
        methods=methods,
        taus=(0.125,),
        tols=(1e-6,),
        zetas=(1.0,),
        t_end=0.25,
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        harness.run_experiment(spec)
    finally:
        tracer.uninstall()
    return tracer


def test_layer_metrics_cover_the_layer_map():
    # a LAYER_MAP name whose function is gone from expbench reads 0, not a
    # KeyError: perfbench keeps reporting it until its map changes
    layers = traced_sweep(("rk2", "exprb-euler-krylov")).layer_metrics()
    derived = {"harness.wall_ns_per_memop", "trace.overhead_s"}
    assert set(layers) == {name for name, *_ in spans.LAYER_MAP} - derived
    for gone in ("linalg.dot", "linalg.dense_phi", "problems.ns_jacobian_action"):
        assert layers[f"{gone}.calls"] == 0
        assert layers[f"{gone}.s"] == 0.0
    assert layers["integrators.integrate.calls"] == 2


def test_tracer_sees_every_step_and_phi_action():
    tracer = traced_sweep(tuple(METHODS))
    layers = tracer.layer_metrics()
    assert layers["integrators.integrate.calls"] == 6
    assert layers["integrators.step.calls"] == 12
    assert layers["matfunc.phi_action.calls"] > 0
    # every phi span gets a backend, which spans._phi_info reads from the
    # entry point's name or its ``backend`` parameter
    assert len(tracer.phi) == layers["matfunc.phi_action.calls"]
    assert layers["matfunc.phi_action.krylov_s"] > 0
    assert layers["matfunc.phi_action.leja_s"] > 0
