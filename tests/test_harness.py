import itertools
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
import scipy.linalg

from expbench import harness, integrators, matfunc
from expbench.counting import OpCounter, use_counter
from expbench.harness import (
    CSV_HEADER,
    CSV_PRIMITIVES,
    PRESETS,
    ExperimentSpec,
    WorkPrecisionRecord,
    build_problem,
    compute_reference,
    dump_fields,
    error_norm,
    preset,
    read_csv,
    run_experiment,
    write_csv,
)
from expbench.integrators import METHODS, MethodConfig, integrate
from expbench.problems import AdvDiffProblem, NavierStokesProblem

from conftest import use_cpus


def small_spec(**overrides):
    base = dict(
        problem="advdiff",
        n=16,
        kappa=("const", 1.0 / 80.0),
        methods=("rk4", "exprb-euler-krylov"),
        taus=(0.25, 0.125),
        tols=(1e-4, 1e-7),
        zetas=(1.0, 10.0),
        t_end=0.5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(problem="heat")
        with pytest.raises(ValueError):
            small_spec(methods=())
        with pytest.raises(ValueError):
            small_spec(methods=("euler",))
        with pytest.raises(ValueError):
            small_spec(taus=(0.0,))
        with pytest.raises(ValueError):
            small_spec(t_end=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # none of these can run: a negative zeta gives a negative
            # total_cost and a nan one a nan cost, tol 0 fails only after
            # the reference solve, and nan slips past a ``<= 0`` check
            ("zetas", (1.0, -5.0), "zeta"),
            ("zetas", (math.nan,), "zeta"),
            ("zetas", (math.inf,), "zeta"),
            ("tols", (1e-4, 0.0), "tol"),
            ("tols", (math.nan,), "tol"),
            ("tols", (math.inf,), "tol"),
            ("taus", (math.nan,), "tau"),
            ("taus", (math.inf,), "tau"),
            ("t_end", math.nan, "t_end"),
        ],
    )
    def test_rejects_grid_values_it_cannot_run(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**{field: value})

    def test_zero_zeta_is_a_valid_weight(self):
        assert small_spec(zetas=(0.0,)).zetas == (0.0,)

    def test_build_problem(self):
        assert isinstance(build_problem(small_spec()), AdvDiffProblem)
        assert isinstance(
            build_problem(small_spec(problem="ns", n=8)), NavierStokesProblem
        )


class TestErrorNorm:
    def test_exact_match(self):
        r = np.array([1.0, 2.0])
        assert error_norm(r, r) == 0.0

    def test_double_reference(self):
        r = np.array([1.0, 2.0])
        assert error_norm(2.0 * r, r) == pytest.approx(1.0)

    def test_single_component_perturbation(self):
        r = np.array([3.0, 4.0])
        eps = 1e-3
        u = r.copy()
        u[0] += eps
        assert error_norm(u, r) == pytest.approx(eps / 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            error_norm(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            error_norm(np.ones(2), np.ones(3))


def serial_reference(problem, t_end, tau_hint):
    """The NS reference computed one halving pass after another.  Returns
    the reference and its pass index, or raises RuntimeError("pass k") at
    the pass that exceeds the step cap."""
    u0 = problem.initial_state()
    tau = tau_hint / 16.0
    prev = None
    for k in itertools.count():
        steps = max(1, math.ceil(t_end / tau))
        if steps > harness.REFERENCE_STEP_CAP:
            raise RuntimeError(f"pass {k}")
        dt = t_end / steps
        u = u0.copy()
        for _k in range(steps):
            u = integrators.rk4_step(problem, u, dt)
        if prev is not None and error_norm(u, prev) < 1e-10:
            return u, k
        prev = u
        tau /= 2.0


class PassFault(Exception):
    """An exception that a reference pass raises."""


def spy_passes(monkeypatch, path, fault_steps=None):
    """Append "pid steps" of each reference pass to ``path``; the pass of
    ``fault_steps`` steps raises PassFault."""
    run_pass = harness._reference_pass

    def spy(steps, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {steps}\n")
        if steps == fault_steps:
            raise PassFault(f"{steps} steps")
        return run_pass(steps, **kwargs)

    monkeypatch.setattr(harness, "_reference_pass", spy)


class TestComputeReference:
    # on PROBLEM to t_end 0.25, hints 0.125, 0.25, 1 and 2 converge at
    # pass 1, 2, 4 and 5; hint 1 takes 4, 8, 16, ... steps.  The NS
    # reference's passes run on forked workers; the result, or the
    # exception, must be that of one pass after another.
    PROBLEM = NavierStokesProblem(8, 1e-4)

    def test_zero_horizon_returns_initial_state(self):
        pb = build_problem(small_spec())
        assert np.array_equal(compute_reference(pb, 0.0), pb.initial_state())

    def test_linear_problem_uses_exact_propagator(self):
        pb = build_problem(small_spec())
        ref = compute_reference(pb, 0.5)
        exact = scipy.linalg.expm(0.5 * pb.to_dense()) @ pb.initial_state()
        assert np.allclose(ref, exact, atol=1e-14)

    def test_single_point_reference_is_a_scalar_exponential(self):
        pb = AdvDiffProblem(1, "mixed")
        expected = math.exp(0.5 * pb.diag[0]) * pb.initial_state()
        ref = compute_reference(pb, 0.5)
        assert ref.shape == (1,)
        assert ref[0] == pytest.approx(expected[0], rel=1e-14)

    def test_dense_reference_rejects_more_than_512_points(self):
        pb = build_problem(small_spec(n=513))
        with pytest.raises(ValueError, match="exceeds cap 512"):
            compute_reference(pb, 0.5)

    def test_dense_reference_accepts_512_points(self):
        assert harness.REFERENCE_DENSE_CAP == 512
        pb = AdvDiffProblem(512, ("const", 1.0 / 80.0))
        ref = compute_reference(pb, 0.01)
        assert ref.shape == (512,) and np.all(np.isfinite(ref))

    def test_nonlinear_reference_self_consistent(self):
        pb = NavierStokesProblem(8, 1e-4)
        ref = compute_reference(pb, 0.25, tau_hint=0.25)
        finer = compute_reference(pb, 0.25, tau_hint=0.125)
        assert error_norm(ref, finer) < 1e-9

    @pytest.mark.parametrize(
        "problem, t_end, tau_hint, message",
        [
            # before these checks, a negative or infinite hint returned a
            # one-step "reference", 0 and nan raised ZeroDivisionError and
            # "cannot convert float NaN", and t_end = -1 integrated backwards
            (NavierStokesProblem(8, 1e-4), 0.25, -0.25, "tau_hint"),
            (NavierStokesProblem(8, 1e-4), 0.25, math.inf, "tau_hint"),
            (NavierStokesProblem(8, 1e-4), 0.25, 0.0, "tau_hint"),
            (NavierStokesProblem(8, 1e-4), 0.25, math.nan, "tau_hint"),
            (NavierStokesProblem(8, 1e-4), math.nan, None, "t_end"),
            (NavierStokesProblem(8, 1e-4), math.inf, None, "t_end"),
            (AdvDiffProblem(16, ("const", 1.0 / 80.0)), -1.0, None, "t_end"),
        ],
    )
    def test_rejects_arguments_it_cannot_solve_for(self, problem, t_end, tau_hint, message, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "rk4_step", no_work)
        monkeypatch.setattr(scipy.linalg, "expm", no_work)
        with pytest.raises(ValueError, match=message):
            compute_reference(problem, t_end, tau_hint=tau_hint)


    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("offset", [0, -1, 1], ids=["predicted", "too-low", "too-high"])
    @pytest.mark.parametrize("tau_hint", [0.125, 0.25, 1.0, 2.0])
    def test_reference_is_the_serial_one(self, tau_hint, offset, cpus, monkeypatch):
        oracle, last = serial_reference(self.PROBLEM, 0.25, tau_hint)
        predict = harness._predict_last_pass
        predicted = []

        def forced(diff, steps):
            predicted.append(predict(diff, steps))
            return predicted[-1] + offset

        monkeypatch.setattr(harness, "_predict_last_pass", forced)
        use_cpus(monkeypatch, cpus)
        ref = compute_reference(self.PROBLEM, 0.25, tau_hint=tau_hint)
        assert np.array_equal(ref, oracle)
        assert predicted == ([] if last == 1 else [last])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("cap", [2, 8, 32])
    def test_step_cap_raises_at_the_serial_pass(self, cap, cpus, monkeypatch):
        monkeypatch.setattr(harness, "REFERENCE_STEP_CAP", cap)
        with pytest.raises(RuntimeError) as serial:
            serial_reference(self.PROBLEM, 0.25, 1.0)
        use_cpus(monkeypatch, cpus)
        with pytest.raises(harness.ReferenceNotConverged, match=f"{serial.value} needs"):
            compute_reference(self.PROBLEM, 0.25, tau_hint=1.0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fault_pass", [2, 4, 5])
    def test_failing_pass_raises_only_where_the_serial_loop_reaches_it(
        self, fault_pass, cpus, monkeypatch, tmp_path
    ):
        # hint 1 converges at pass 4; a prediction one too high submits
        # pass 5 too, so on two CPUs its fault happens and must be ignored
        predict = harness._predict_last_pass
        monkeypatch.setattr(harness, "_predict_last_pass", lambda d, s: predict(d, s) + 1)
        spy_passes(monkeypatch, tmp_path / "passes", fault_steps=4 * 2**fault_pass)
        use_cpus(monkeypatch, cpus)
        if fault_pass <= 4:
            with pytest.raises(PassFault, match=f"{4 * 2**fault_pass} steps"):
                compute_reference(self.PROBLEM, 0.25, tau_hint=1.0)
        else:
            ref = compute_reference(self.PROBLEM, 0.25, tau_hint=1.0)
            assert np.array_equal(ref, serial_reference(self.PROBLEM, 0.25, 1.0)[0])
        ran = [int(line.split()[1]) for line in (tmp_path / "passes").read_text().splitlines()]
        assert (4 * 2**fault_pass in ran) == (cpus == 2 or fault_pass <= 4)
        assert multiprocessing.active_children() == []

    def test_running_pass_past_the_returned_one_is_stopped(self, monkeypatch, tmp_path):
        # hint 0.125 converges at pass 1, but pass 2 (128 steps) is submitted
        # with passes 0 and 1; here it waits until the stop comes
        run_pass = harness._reference_pass

        def spy(steps, stop, **kwargs):
            if steps != 128:
                return run_pass(steps, stop=stop, **kwargs)
            stopped = stop.wait(20)
            result = run_pass(steps, stop=stop, **kwargs)
            (tmp_path / "stopped").write_text(f"{stopped} {result is None}")
            return result

        monkeypatch.setattr(harness, "_reference_pass", spy)
        use_cpus(monkeypatch, 2)
        ref = compute_reference(self.PROBLEM, 0.25, tau_hint=0.125)
        assert (tmp_path / "stopped").read_text() == "True True"
        assert np.array_equal(ref, serial_reference(self.PROBLEM, 0.25, 0.125)[0])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("rebound", [False, True])
    def test_passes_run_in_workers_unless_integrate_is_rebound(self, rebound, monkeypatch, tmp_path):
        if rebound:
            monkeypatch.setattr(harness, "integrate", lambda *args: None)
        spy_passes(monkeypatch, tmp_path / "passes")
        use_cpus(monkeypatch, 2)
        ref = compute_reference(self.PROBLEM, 0.25, tau_hint=1.0)
        assert np.array_equal(ref, serial_reference(self.PROBLEM, 0.25, 1.0)[0])
        pids = {line.split()[0] for line in (tmp_path / "passes").read_text().splitlines()}
        if rebound:
            assert pids == {str(os.getpid())}
        else:
            assert str(os.getpid()) not in pids

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_reference_is_uncounted(self, cpus, monkeypatch):
        use_cpus(monkeypatch, cpus)
        counter = OpCounter(self.PROBLEM.dimension, self.PROBLEM.operator_costs)
        with use_counter(counter):
            compute_reference(self.PROBLEM, 0.25, tau_hint=1.0)
        assert counter.events == {}


class TestRunExperiment:
    def test_record_grid_shape(self):
        spec = small_spec()
        records = run_experiment(spec)
        assert len(records) == 2 * 2 * 2 * 2
        # grid iteration order: method, tau, tol, zeta
        assert [r.method for r in records[:8]] == ["rk4"] * 8
        assert records[0].zeta == 1.0 and records[1].zeta == 10.0

    def test_zeta_only_reweights_dots(self):
        records = run_experiment(small_spec())
        for a, b in zip(records[::2], records[1::2]):
            assert a.counts == b.counts
            assert b.total_cost - a.total_cost == pytest.approx(
                9.0 * a.counts["dot"] * 2 * 16
            )

    def test_each_record_counts_every_csv_primitive_in_order(self):
        spec = small_spec(methods=("rk4",), taus=(0.125,), tols=(1e-4,))
        records = run_experiment(spec)
        pb = build_problem(spec)
        cell = integrate(pb, MethodConfig(method="rk4", tau=0.125), pb.initial_state(), spec.t_end)
        assert [r.zeta for r in records] == [1.0, 10.0]
        for r in records:
            assert list(r.counts) == list(CSV_PRIMITIVES)
            assert r.counts["matvec"] == cell.counter.count("matvec") == 4 * r.steps
            assert r.counts["jacvec"] == r.counts["rhs"] == 0
        # the two zeta records of one cell hold equal but distinct dicts
        assert records[0].counts == records[1].counts
        assert records[0].counts is not records[1].counts

    def test_unstable_cells_flagged_with_inf(self):
        spec = small_spec(
            n=159,
            methods=("rk2", "exprb-euler-krylov"),
            taus=(0.25,),
            tols=(1e-7,),
            zetas=(1.0,),
            t_end=1.0,
        )
        records = run_experiment(spec)
        by_method = {r.method: r for r in records}
        assert not by_method["rk2"].converged
        assert math.isinf(by_method["rk2"].error)
        assert by_method["exprb-euler-krylov"].converged
        assert by_method["exprb-euler-krylov"].error < 1e-5

    @pytest.mark.parametrize("flip", [False, True], ids=["nan", "negated"])
    def test_caller_reference_classifies_each_cell(self, flip):
        """Against the negated true reference every error stays finite, near
        2, and unconverged; against an all-NaN one every error is inf."""
        spec = small_spec(
            methods=tuple(m for m, (_step, backend) in METHODS.items() if backend),
            taus=(0.25,), tols=(1e-7,), zetas=(1.0,),
        )
        pb = build_problem(spec)
        reference = -compute_reference(pb, spec.t_end) if flip else np.full(pb.n, np.nan)
        records = run_experiment(spec, reference=reference, problem=pb)
        assert [r.method for r in records] == list(spec.methods)
        for r in records:
            assert not r.converged
            if flip:
                assert 1.0 < r.error < 3.0
            else:
                assert r.error == math.inf

    def test_tightening_tolerance_is_monotone(self):
        spec = small_spec(
            n=63,
            methods=("exprb-euler-leja", "exprb-euler-krylov"),
            taus=(0.25,),
            tols=(1e-4, 1e-7),
            zetas=(1.0,),
            t_end=1.0,
        )
        records = run_experiment(spec)
        for method in spec.methods:
            loose, tight = [r for r in records if r.method == method]
            assert (loose.tol, tight.tol) == (1e-4, 1e-7)
            assert tight.error <= loose.error
            assert tight.total_cost >= loose.total_cost

    def test_explicit_cells_run_once_per_tau(self, monkeypatch):
        calls = []
        real = harness.integrate

        def counting(problem, config, u0, t_end):
            calls.append((config.method, config.tau, config.tol))
            return real(problem, config, u0, t_end)

        monkeypatch.setattr(harness, "integrate", counting)
        spec = small_spec(methods=("rk4", "exprb-euler-leja"), zetas=(1.0,))
        records = run_experiment(spec)
        assert calls == [("rk4", tau, None) for tau in spec.taus] + [
            ("exprb-euler-leja", tau, tol) for tau in spec.taus for tol in spec.tols
        ]
        rk = [r for r in records if r.method == "rk4"]
        assert [r.tol for r in rk] == [1e-4, 1e-7, 1e-4, 1e-7]
        for loose, tight in zip(rk[::2], rk[1::2]):
            assert (loose.error, loose.total_cost, loose.steps, loose.counts, loose.converged) == (
                tight.error, tight.total_cost, tight.steps, tight.counts, tight.converged
            )


def record_cell_pids(monkeypatch, path):
    """Append the pid of the process that runs each cell to ``path``."""
    run_cell = harness._run_cell

    def spy(config, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_cell(config, **kwargs)

    monkeypatch.setattr(harness, "_run_cell", spy)


class CellFault(Exception):
    """An exception a cell raises that is not an IntegrationError."""


class TestParallelSweep:
    """The cells of a sweep run on forked workers, one per available CPU;
    the records, and so the CSV, are those of an in-process sweep."""

    @pytest.mark.parametrize(
        "spec",
        [
            # all six methods on the stiff phi_1 case of test_matfunc (n = 159,
            # tau = 1): with one substep allowed its exponential cells fail
            # with PhiConvergenceError, rk2 at tau = 1/4 blows up to inf, rk4
            # at tau = 1 stays finite with an error above 1, and some
            # exponential cells at tau = 1/4 converge
            ExperimentSpec(
                problem="advdiff", n=159, kappa=("const", 1.0 / 80.0), methods=tuple(METHODS),
                taus=(1.0, 0.25), tols=(1e-4, 1e-7), zetas=(1.0, 10.0), t_end=1.0,
            ),
            ExperimentSpec(
                problem="ns", n=8, nu=1e-4, methods=tuple(METHODS), taus=(0.25, 0.125),
                tols=(1e-6,), zetas=(1.0, 10.0), t_end=0.25,
            ),
        ],
        ids=["advdiff", "ns"],
    )
    def test_parallel_csv_is_byte_identical_to_in_process(self, spec, monkeypatch, tmp_path):
        monkeypatch.setattr(matfunc, "SUBSTEP_CAP", 1)
        problem = build_problem(spec)
        reference = compute_reference(problem, spec.t_end, tau_hint=min(spec.taus))
        cells = len({(m, tau, integrators.MethodConfig(m, tau, tol).tol)
                     for m in spec.methods for tau in spec.taus for tol in spec.tols})
        out = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            pids = tmp_path / f"pids-{cpus}"
            record_cell_pids(monkeypatch, pids)
            records = run_experiment(spec, reference=reference, problem=problem)
            seen = pids.read_text().split()
            assert len(seen) == cells
            if cpus == 1:
                assert set(seen) == {str(os.getpid())}
            else:
                assert str(os.getpid()) not in seen
            out[cpus] = tmp_path / f"cpus-{cpus}.csv"
            write_csv(records, out[cpus])
        assert out[1].read_bytes() == out[2].read_bytes()
        if spec.problem == "advdiff":
            by_cell = {(r.method, r.tau, r.tol): r for r in records}
            stiff = by_cell[("exprb-euler-krylov", 1.0, 1e-7)]
            assert (stiff.error, stiff.steps, stiff.converged) == (math.inf, 0, False)
            unstable = by_cell[("rk2", 0.25, 1e-7)]
            assert math.isinf(unstable.error) and unstable.steps > 0
            assert any(r.converged for r in records)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_no_worker_outlives_the_sweep(self, cpus, monkeypatch):
        use_cpus(monkeypatch, cpus)
        records = run_experiment(small_spec(taus=(0.25,), tols=(1e-4,)))
        assert len(records) == 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_cell_in_grid_order_raises_its_own_type(self, cpus, monkeypatch):
        # rk2 fails at once, rk4 (first in grid order) only after a pause,
        # so on two workers the rk2 failure arrives first
        def fail(name, pause):
            def step(*args):
                time.sleep(pause)
                raise CellFault(name)

            return step

        monkeypatch.setattr(integrators, "rk4_step", fail("rk4", 0.3))
        monkeypatch.setattr(integrators, "rk2_step", fail("rk2", 0.0))
        use_cpus(monkeypatch, cpus)
        with pytest.raises(CellFault, match="rk4"):
            run_experiment(small_spec(methods=("rk4", "rk2"), taus=(0.25,)))
        assert multiprocessing.active_children() == []


def test_sweep_and_reference_run_in_process_without_sched_getaffinity(monkeypatch, tmp_path):
    # Python on macOS has no os.sched_getaffinity; the pool then counts one CPU
    spec = small_spec()
    use_cpus(monkeypatch, 1)
    write_csv(run_experiment(spec), tmp_path / "one-cpu.csv")
    monkeypatch.delattr(os, "sched_getaffinity")
    record_cell_pids(monkeypatch, tmp_path / "pids")
    write_csv(run_experiment(spec), tmp_path / "no-affinity.csv")
    assert set((tmp_path / "pids").read_text().split()) == {str(os.getpid())}
    assert (tmp_path / "no-affinity.csv").read_bytes() == (tmp_path / "one-cpu.csv").read_bytes()
    problem = TestComputeReference.PROBLEM
    oracle, _ = serial_reference(problem, 0.25, 1.0)
    assert np.array_equal(compute_reference(problem, 0.25, tau_hint=1.0), oracle)


class TestCsv:
    def test_header_only_for_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_roundtrip(self, tmp_path):
        records = run_experiment(small_spec(taus=(0.25,), tols=(1e-4,), zetas=(1.0,)))
        path = tmp_path / "out.csv"
        write_csv(records, path)
        back = read_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.method == b.method
            assert a.tau == b.tau
            assert a.error == b.error
            assert a.total_cost == b.total_cost
            assert a.counts == b.counts
            assert a.converged == b.converged

    def test_inf_sentinel_serialized(self, tmp_path):
        rec = WorkPrecisionRecord(
            method="rk2", tau=0.25, tol=1e-4, zeta=1.0, error=math.inf,
            total_cost=10.0, steps=2, counts=dict.fromkeys(CSV_PRIMITIVES, 0), converged=False,
        )
        path = tmp_path / "inf.csv"
        write_csv([rec], path)
        text = path.read_text().splitlines()[1]
        assert ",inf," in text
        assert text.endswith("false")
        assert math.isinf(read_csv(path)[0].error)

    def test_record_missing_a_count_is_refused(self, tmp_path):
        # a missing count is not written as a counted 0
        counts = dict.fromkeys(CSV_PRIMITIVES, 0)
        del counts["lincomb"]
        rec = WorkPrecisionRecord(
            method="rk2", tau=0.25, tol=1e-4, zeta=1.0, error=0.5,
            total_cost=10.0, steps=2, counts=counts, converged=True,
        )
        with pytest.raises(KeyError):
            write_csv([rec], tmp_path / "missing.csv")

    def test_determinism(self, tmp_path):
        spec = small_spec(taus=(0.25,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(spec), p1)
        write_csv(run_experiment(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDumpFields:
    def test_writes_four_grids(self, tmp_path):
        pb = NavierStokesProblem(8, 1e-6)
        out = tmp_path / "fields"
        dump_fields(pb, pb.initial_state(), out)
        for name in ("rho", "u", "v", "omega"):
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 8
            assert all(len(line.split(",")) == 8 for line in lines)

    def test_grids_round_trip_exactly(self, tmp_path):
        pb = NavierStokesProblem(8, 1e-4)
        rng = np.random.default_rng(7)
        state = pb.initial_state() + 1e-3 * rng.standard_normal(pb.dimension)
        dump_fields(pb, state, tmp_path)
        for name, grid in zip(("rho", "u", "v", "omega"), pb.fields(state)):
            assert np.array_equal(np.loadtxt(tmp_path / f"{name}.csv", delimiter=","), grid)


class TestPresets:
    def test_known_presets_are_valid(self):
        assert tuple(PRESETS) == ("diffusion", "advection", "mixed", "shearflow")
        for name in PRESETS:
            spec = preset(name)
            assert spec.taus and spec.methods

    def test_diffusion_parameters(self):
        spec = preset("diffusion")
        assert spec.problem == "advdiff"
        assert spec.n == 159
        assert spec.kappa == ("const", 1.0 / 80.0)
        assert max(spec.taus) == 0.25
        assert spec.tols == (1e-4, 1e-7)
        assert spec.zetas == (1.0, 10.0)

    def test_shearflow_full_scale(self):
        desk = preset("shearflow")
        full = preset("shearflow", full=True)
        assert desk.n == 40 and desk.t_end == 1.0
        assert full.n == 160 and full.t_end == 12.0
        assert max(full.taus) == 1.0

    @pytest.mark.parametrize(
        "name, desk_taus, full_taus",
        [("diffusion", 5, 9), ("advection", 5, 9), ("mixed", 4, 7), ("shearflow", 8, 8)],
    )
    def test_full_changes_only_the_scale(self, name, desk_taus, full_taus):
        desk, full = preset(name), preset(name, full=True)
        assert (len(desk.taus), len(full.taus)) == (desk_taus, full_taus)
        assert full.taus[:desk_taus] == desk.taus
        same = ("problem", "kappa", "nu", "methods", "tols", "zetas")
        assert all(getattr(full, f) == getattr(desk, f) for f in same)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("turbulence")
