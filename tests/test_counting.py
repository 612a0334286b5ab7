import numpy as np
import pytest

from expbench import counting
from expbench.counting import CSV_PRIMITIVES, CountingError, OpCounter, use_counter
from expbench.integrators import MethodConfig, integrate
from expbench.linalg import lincomb
from expbench.problems import AdvDiffProblem, NavierStokesProblem

from conftest import DenseLinearProblem, dot, fresh_counter


def problem_counter(problem):
    return OpCounter(problem.dimension, problem.operator_costs)


def advdiff_counter(n):
    return problem_counter(AdvDiffProblem(n, ("const", 1.0 / 80.0)))


def ns_counter(n):
    return problem_counter(NavierStokesProblem(n, 1e-4))


class TestUnitCosts:
    def test_nonpositive_size_rejected(self):
        with pytest.raises(CountingError):
            OpCounter(0, {"matvec": 2})

    def test_1d_unit_costs(self):
        t = advdiff_counter(159)
        assert t.state_len == 159
        assert t.unit_cost("matvec") == 318  # 2n
        assert t.unit_cost("dot") == 318
        assert t.unit_cost("scale") == 318
        assert t.unit_cost("fetch") == 159
        assert t.unit_cost("store") == 159
        assert t.unit_cost("lincomb", k=2) == 3 * 159

    def test_ns_unit_costs(self):
        N = 160 * 160
        t = ns_counter(160)
        assert t.state_len == 3 * N
        assert t.unit_cost("jacvec") == 21 * N == 537600
        assert t.unit_cost("rhs") == 12 * N
        assert t.unit_cost("dot") == 6 * N
        assert t.unit_cost("scale") == 6 * N
        assert t.unit_cost("lincomb", k=2) == 9 * N

    def test_primitive_not_priced(self):
        with pytest.raises(CountingError):
            advdiff_counter(10).unit_cost("jacvec")
        with pytest.raises(CountingError):
            ns_counter(10).unit_cost("matvec")

    def test_lincomb_requires_k(self):
        with pytest.raises(CountingError):
            advdiff_counter(10).unit_cost("lincomb")


@pytest.mark.parametrize(
    "problem, operator_units",
    [
        (AdvDiffProblem(31, ("const", 1.0 / 80.0)), {"matvec": 2 * 31}),
        (NavierStokesProblem(8, 1e-4), {"jacvec": 21 * 64, "rhs": 12 * 64}),
        (DenseLinearProblem(-np.eye(5)), {"matvec": 2 * 5}),
    ],
    ids=["advdiff", "ns", "dense"],
)
def test_run_counter_takes_state_length_and_costs_from_the_problem(problem, operator_units):
    L = problem.dimension
    c = integrate(problem, MethodConfig(method="rk2", tau=1e-3), np.full(L, 0.5), 1e-3).counter
    assert c.state_len == L
    for primitive, units in operator_units.items():
        assert c.unit_cost(primitive) == units
    assert c.unit_cost("dot") == c.unit_cost("scale") == 2 * L
    for k in (1, 2, 5):
        assert c.unit_cost("lincomb", k=k) == (k + 1) * L


class TestOpCounter:
    def test_empty_total_is_zero(self):
        assert fresh_counter().total_cost(1.0) == 0

    def test_two_matvecs_one_dot(self):
        c = fresh_counter(n=10)
        c.record("matvec")
        c.record("matvec")
        c.record("dot")
        assert c.total_cost(zeta=1.0) == 60
        assert c.total_cost(zeta=10.0) == 240

    def test_dot_weighting(self):
        c = fresh_counter(n=100)
        c.record("dot")
        assert c.total_cost(10.0) == 2000

    def test_zeta_identity(self):
        c = fresh_counter(n=37)
        for _ in range(5):
            c.record("dot")
        c.record("matvec")
        c.record("lincomb", k=3)
        assert c.total_cost(10.0) - c.total_cost(1.0) == 9 * 5 * 2 * 37

    def test_invalid_primitive_rejected(self):
        c = fresh_counter()
        with pytest.raises(CountingError):
            c.record("jacvec")
        with pytest.raises(CountingError):
            c.record("lincomb")  # missing k

    def test_breakdown_covers_all_csv_primitives(self):
        c = fresh_counter()
        c.record("matvec")
        b = c.breakdown()
        assert set(b) == set(CSV_PRIMITIVES)
        assert b["matvec"] == 1
        assert b["dot"] == 0

    def test_lincomb_cost_accumulates(self):
        c = fresh_counter(n=10)
        c.record("lincomb", k=2)
        c.record("lincomb", k=5)
        assert c.tally == 3 + 6
        assert c.total_cost(1.0) == (3 + 6) * 10


class TestBulkRecord:
    def test_times_equals_repeated_single_records(self):
        bulk, single = fresh_counter(n=7), fresh_counter(n=7)
        bulk.record("dot", times=5)
        for _ in range(5):
            single.record("dot")
        assert bulk.events == single.events == {"dot": 5}
        for zeta in (1.0, 10.0):
            assert bulk.total_cost(zeta) == single.total_cost(zeta)

    def test_lincomb_cost_scales_with_times(self):
        c = fresh_counter()
        c.record("lincomb", k=2, times=3)
        assert c.tally == 9
        assert c.count("lincomb") == 3

    def test_zero_times_records_nothing(self):
        c = fresh_counter()
        c.record("dot", times=0)
        c.record("lincomb", k=2, times=0)
        assert c.events == {}
        assert c.tally == 0

    def test_invalid_bulk_records_rejected(self):
        c = fresh_counter()
        with pytest.raises(CountingError):
            c.record("dot", times=-1)
        with pytest.raises(CountingError):
            c.record("jacvec", times=2)
        assert c.events == {}
        assert c.tally == 0

    def test_module_record_passes_times_through(self):
        c = fresh_counter()
        with use_counter(c):
            counting.record("lincomb", k=3, times=2)
            counting.record("dot", times=4)
        assert c.events == {"lincomb": 2, "dot": 4}
        assert c.tally == 8

    def test_module_record_without_counter_is_noop(self):
        assert counting._ACTIVE.get() is None
        counting.record("dot", times=3)


class TestActiveCounter:
    def test_record_without_counter_is_noop(self):
        # counted primitives must work outside any run context
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_context_binding_and_determinism(self):
        def run():
            c = fresh_counter(n=2)
            with use_counter(c):
                dot([1.0, 2.0], [3.0, 4.0])
                lincomb([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
            return c

        a, b = run(), run()
        assert a.events == b.events
        assert a.total_cost(1.0) == b.total_cost(1.0)
        assert a.count("dot") == 1
        assert a.count("lincomb") == 1

    def test_nested_contexts_restore_previous(self):
        outer = fresh_counter(n=2)
        inner = fresh_counter(n=2)
        with use_counter(outer):
            dot([1.0], [1.0])
            with use_counter(inner):
                dot([1.0], [1.0])
            dot([1.0], [1.0])
        assert outer.count("dot") == 2
        assert inner.count("dot") == 1
