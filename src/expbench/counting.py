"""Hardware-independent memory-operation cost model.

Every algorithm in this package is instrumented at the level of counted
primitives (stencil matvec, Jacobian action, right-hand side evaluation,
inner product, scalar multiply, linear combination, plain fetch/store).
Each primitive has a fixed memory-operation cost per call, a whole number
of state-vector lengths L.  The vector primitives cost the same on every
problem; each problem states the costs of its own operator primitives in
its ``operator_costs``, and a run's ``OpCounter(problem.dimension,
problem.operator_costs)`` prices every event it records.  Inner products
are additionally weighted by ``zeta``, the argument of ``total_cost``,
which models the cost of reductions on distributed machines (zeta = 1 for
a desktop, zeta = 10 as a representative supercomputer value).  The
event counts do not depend on zeta, so one run is totalled for any number
of zeta values.

Small dense work (Hessenberg matrix functions, divided differences) is
deliberately NOT counted: only state-vector-sized memory traffic enters
the model, dense m-by-m work is assumed cache resident.

``record(primitive, k, times)`` records ``times`` identical events in one
call; a loop that performs the same primitive many times (the Gram-Schmidt
passes of Arnoldi, the terms of a Newton series) records them in bulk.  The
tally is the same as ``times`` single records.  ``count`` reads the events
of one primitive; which counts a sweep reports is stated in ``harness``.
"""

from __future__ import annotations

import contextlib
import contextvars

# Cost per call of the vector primitives shared by every problem, in units
# of L.  A linear combination of k vectors costs k + 1.
_VECTOR_COSTS = {"fetch": 1, "store": 1, "scale": 2, "dot": 2}


class CountingError(ValueError):
    """Raised when a primitive is recorded that the counter does not price."""


class OpCounter:
    """Tally of the counted primitive events of one run, priced per call.

    ``state_len`` is the state-vector length L; ``operator_costs`` maps each
    of the problem's own operator primitives to its cost per call in units
    of L, and ``units`` merges them with the shared vector costs.  ``tally``
    is the summed cost, in units of L, of every event but the inner
    products, which ``total_cost`` weights by zeta.
    """

    def __init__(self, state_len: int, operator_costs: dict):
        if state_len < 1:
            raise CountingError("state length must be positive")
        self.state_len = state_len
        self.units = {**_VECTOR_COSTS, **operator_costs}
        self.events = {}
        self.tally = 0

    def weight(self, primitive: str, k: int | None = None) -> int:
        """Cost of one call of ``primitive`` in units of L.

        ``k`` is required for lincomb (number of combined vectors).
        """
        if primitive == "lincomb":
            if k is None or k < 1:
                raise CountingError("lincomb requires k >= 1")
            return k + 1
        try:
            return self.units[primitive]
        except KeyError:
            raise CountingError(f"primitive {primitive!r} is not priced by this counter") from None

    def unit_cost(self, primitive: str, k: int | None = None) -> int:
        """Memory operations for one call of ``primitive``."""
        return self.weight(primitive, k) * self.state_len

    def record(self, primitive: str, k: int | None = None, times: int = 1) -> None:
        """Record ``times`` events of ``primitive`` (``k`` vectors for lincomb).

        Equivalent to ``times`` single records; ``times = 0`` records nothing.
        """
        weight = self.weight(primitive, k)
        if times < 0:
            raise CountingError("times must be non-negative")
        if times:
            self.events[primitive] = self.events.get(primitive, 0) + times
            if primitive != "dot":
                self.tally += times * weight

    def count(self, primitive: str) -> int:
        return self.events.get(primitive, 0)

    def total_cost(self, zeta: float) -> float:
        """Memory operations of all events, inner products weighted by zeta."""
        return self.tally * self.state_len + zeta * (self.count("dot") * self.unit_cost("dot"))


_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("active_op_counter", default=None)


@contextlib.contextmanager
def use_counter(counter: OpCounter | None):
    """Bind ``counter`` as the active counter for the enclosed block."""
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def record(primitive: str, k: int | None = None, times: int = 1) -> None:
    """Record ``times`` events on the active counter, if any."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.record(primitive, k, times)
