"""What perfbench/ relies on in expbench, checked without editing perfbench/.

The benchmark builds its grids with ``workloads.build_spec`` and traces a
sweep by rebinding module attributes (``spans.Tracer``).  A step reached
through anything other than the module globals escapes the tracer, and the
traced step count then reads 0 although every CSV stays the same.
"""

import sys
from pathlib import Path

from expbench import harness
from expbench.integrators import METHODS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_workload_builds_a_permuted_spec():
    for name in workloads.WORKLOADS:
        spec = workloads.build_spec(harness, name, 1)
        assert sorted(spec.methods) == sorted(METHODS)


def test_every_workload_states_one_state_length():
    # the benchmark recomputes L for its zeta-identity check; it must be the
    # L the problem's cost table totals with
    for name in workloads.WORKLOADS:
        spec = workloads.build_spec(harness, name, 1)
        problem = harness.build_problem(spec)
        L = workloads.state_length(spec)
        assert L == problem.dimension == problem.cost_table().state_len


def test_tracer_sees_every_step_and_phi_action():
    spec = harness.ExperimentSpec(
        problem="advdiff",
        n=31,
        methods=tuple(METHODS),
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
    layers = tracer.layer_metrics()
    assert layers["integrators.integrate.calls"] == 6
    assert layers["integrators.step.calls"] == 12
    assert layers["matfunc.phi_action.calls"] > 0
    # every phi span gets a backend, which spans._phi_info reads from the
    # entry point's name or its ``backend`` parameter
    assert len(tracer.phi) == layers["matfunc.phi_action.calls"]
    assert layers["matfunc.phi_action.krylov_s"] > 0
    assert layers["matfunc.phi_action.leja_s"] > 0
