import pytest

from expbench import counting
from expbench.counting import (
    ADVDIFF_1D,
    NAVIER_STOKES_2D,
    CSV_PRIMITIVES,
    CostTable,
    CountingError,
    OpCounter,
    use_counter,
)
from expbench.linalg import dot, lincomb

from conftest import fresh_counter


class TestCostTable:
    def test_unknown_table_rejected(self):
        with pytest.raises(CountingError):
            CostTable("unknown", 10)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(CountingError):
            CostTable(ADVDIFF_1D, 0)

    def test_1d_unit_costs(self):
        t = CostTable(ADVDIFF_1D, 159)
        assert t.unit_cost("matvec") == 318  # 2n
        assert t.unit_cost("dot") == 318
        assert t.unit_cost("scale") == 318
        assert t.unit_cost("fetch") == 159
        assert t.unit_cost("store") == 159
        assert t.unit_cost("lincomb", k=2) == 3 * 159

    def test_ns_unit_costs(self):
        N = 160 * 160
        t = CostTable(NAVIER_STOKES_2D, N)
        assert t.state_len == 3 * N
        assert t.unit_cost("jacvec") == 21 * N == 537600
        assert t.unit_cost("rhs") == 12 * N
        assert t.unit_cost("dot") == 6 * N
        assert t.unit_cost("scale") == 6 * N
        assert t.unit_cost("lincomb", k=2) == 9 * N

    def test_primitive_not_in_table(self):
        with pytest.raises(CountingError):
            CostTable(ADVDIFF_1D, 10).unit_cost("jacvec")
        with pytest.raises(CountingError):
            CostTable(NAVIER_STOKES_2D, 10).unit_cost("matvec")

    def test_lincomb_requires_k(self):
        with pytest.raises(CountingError):
            CostTable(ADVDIFF_1D, 10).unit_cost("lincomb")


class TestOpCounter:
    def test_empty_total_is_zero(self):
        assert fresh_counter().total_cost() == 0

    def test_two_matvecs_one_dot(self):
        c = fresh_counter(n=10)
        c.record("matvec")
        c.record("matvec")
        c.record("dot")
        assert c.total_cost(zeta=1.0) == 60
        assert c.total_cost(zeta=10.0) == 240

    def test_dot_weighting(self):
        c = fresh_counter(n=100, zeta=10.0)
        c.record("dot")
        assert c.total_cost() == 2000

    def test_zeta_identity(self):
        c = fresh_counter(n=37)
        for _ in range(5):
            c.record("dot")
        c.record("matvec")
        c.record("lincomb", k=3)
        assert c.total_cost(10.0) - c.total_cost(1.0) == 9 * c.dot_base_cost()
        assert c.dot_base_cost() == 5 * 2 * 37

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

    def test_lincomb_weight_accumulates(self):
        c = fresh_counter(n=10)
        c.record("lincomb", k=2)
        c.record("lincomb", k=5)
        assert c.lincomb_weight == 3 + 6
        assert c.total_cost() == (3 + 6) * 10


class TestBulkRecord:
    def test_times_equals_repeated_single_records(self):
        bulk, single = fresh_counter(n=7), fresh_counter(n=7)
        bulk.record("dot", times=5)
        for _ in range(5):
            single.record("dot")
        assert bulk.events == single.events == {"dot": 5}
        for zeta in (1.0, 10.0):
            assert bulk.total_cost(zeta) == single.total_cost(zeta)

    def test_lincomb_weight_scales_with_times(self):
        c = fresh_counter()
        c.record("lincomb", k=2, times=3)
        assert c.lincomb_weight == 9
        assert c.count("lincomb") == 3

    def test_zero_times_records_nothing(self):
        c = fresh_counter()
        c.record("dot", times=0)
        c.record("lincomb", k=2, times=0)
        assert c.events == {}
        assert c.lincomb_weight == 0

    def test_invalid_bulk_records_rejected(self):
        c = fresh_counter()
        with pytest.raises(CountingError):
            c.record("dot", times=-1)
        with pytest.raises(CountingError):
            c.record("jacvec", times=2)
        assert c.events == {}
        assert c.lincomb_weight == 0

    def test_module_record_passes_times_through(self):
        c = fresh_counter()
        with use_counter(c):
            counting.record("lincomb", k=3, times=2)
            counting.record("dot", times=4)
        assert c.events == {"lincomb": 2, "dot": 4}
        assert c.lincomb_weight == 8

    def test_module_record_without_counter_is_noop(self):
        assert counting.active_counter() is None
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
        assert a.total_cost() == b.total_cost()
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
