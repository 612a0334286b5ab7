"""Hardware-independent memory-operation cost model.

Every algorithm in this package is instrumented at the level of counted
primitives (stencil matvec, Jacobian action, right-hand side evaluation,
inner product, scalar multiply, linear combination, plain fetch/store).
Each primitive has a fixed memory-operation cost per call, parametrized by
the problem size.  Inner products are additionally weighted by ``zeta``,
which models the cost of reductions on distributed machines (zeta = 1 for
a desktop, zeta = 10 as a representative supercomputer value).

Small dense work (Hessenberg matrix functions, divided differences) is
deliberately NOT counted: only state-vector-sized memory traffic enters
the model, dense m-by-m work is assumed cache resident.

``record(primitive, k, times)`` records ``times`` identical events in one
call; a loop that performs the same primitive many times (the Gram-Schmidt
passes of Arnoldi, the terms of a Newton series) records them in bulk.  The
tally is the same as ``times`` single records.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field

ADVDIFF_1D = "advdiff-1d"
NAVIER_STOKES_2D = "navier-stokes-2d"

# Cost per primitive in units of the state-vector length L (L = n for the
# 1D problem, L = 3N for Navier-Stokes).  lincomb, jacvec and rhs are
# handled separately below.
_UNIT_COSTS = {
    "fetch": 1,
    "store": 1,
    "scale": 2,
    "dot": 2,
    "matvec": 2,
}

_PRIMITIVES = {
    ADVDIFF_1D: frozenset({"fetch", "store", "scale", "dot", "matvec", "lincomb"}),
    NAVIER_STOKES_2D: frozenset(
        {"fetch", "store", "scale", "dot", "lincomb", "jacvec", "rhs"}
    ),
}

CSV_PRIMITIVES = ("matvec", "jacvec", "rhs", "dot", "lincomb", "scale", "fetch", "store")


class CountingError(ValueError):
    """Raised when a primitive is recorded against a table that lacks it."""


@dataclass(frozen=True)
class CostTable:
    """Per-primitive memory-operation costs for one of the two problems.

    ``n`` is the number of grid unknowns per component: the number of
    interior points for the 1D problem, or N = n**2 for Navier-Stokes.
    """

    table_id: str
    n: int

    def __post_init__(self):
        if self.table_id not in _PRIMITIVES:
            raise CountingError(f"unknown cost table {self.table_id!r}")
        if self.n < 1:
            raise CountingError("grid size must be positive")

    @property
    def state_len(self) -> int:
        if self.table_id == ADVDIFF_1D:
            return self.n
        return 3 * self.n

    @property
    def primitives(self) -> frozenset:
        return _PRIMITIVES[self.table_id]

    def unit_cost(self, primitive: str, k: int | None = None) -> int:
        """Memory operations for one call of ``primitive``.

        ``k`` is required for lincomb (number of combined vectors).
        """
        if primitive not in self.primitives:
            raise CountingError(
                f"primitive {primitive!r} is not part of table {self.table_id!r}"
            )
        L = self.state_len
        if primitive == "lincomb":
            if k is None or k < 1:
                raise CountingError("lincomb requires k >= 1")
            return (k + 1) * L
        if primitive == "jacvec":
            return 7 * L  # 21 N
        if primitive == "rhs":
            return 4 * L  # 12 N
        return _UNIT_COSTS[primitive] * L


@dataclass
class OpCounter:
    """Tally of counted primitive events for a single run context.

    ``total_cost`` is the zeta-weighted sum of the per-event costs; the
    event counts themselves are independent of zeta, so the total can be
    re-evaluated for any zeta after the run.
    """

    table: CostTable
    zeta: float = 1.0
    events: dict = field(default_factory=dict)
    lincomb_weight: int = 0  # sum of (k + 1) over all lincomb events

    def record(self, primitive: str, k: int | None = None, times: int = 1) -> None:
        """Record ``times`` events of ``primitive`` (``k`` vectors for lincomb).

        Equivalent to ``times`` single records; ``times = 0`` records nothing.
        """
        if primitive not in _PRIMITIVES[self.table.table_id]:
            raise CountingError(
                f"primitive {primitive!r} is not part of table {self.table.table_id!r}"
            )
        if times < 0:
            raise CountingError("times must be non-negative")
        if primitive == "lincomb":
            if k is None or k < 1:
                raise CountingError("lincomb requires k >= 1")
            self.lincomb_weight += times * (k + 1)
        if times:
            self.events[primitive] = self.events.get(primitive, 0) + times

    def count(self, primitive: str) -> int:
        return self.events.get(primitive, 0)

    def dot_base_cost(self) -> int:
        """Unweighted memory cost of all recorded inner products."""
        return self.count("dot") * self.table.unit_cost("dot")

    def total_cost(self, zeta: float | None = None) -> float:
        if zeta is None:
            zeta = self.zeta
        L = self.table.state_len
        total = self.lincomb_weight * L
        for primitive, cnt in self.events.items():
            if primitive in ("lincomb", "dot"):
                continue
            total += cnt * self.table.unit_cost(primitive)
        return total + zeta * self.dot_base_cost()

    def breakdown(self) -> dict:
        """Event counts for every CSV primitive (zero if never recorded)."""
        return {p: self.count(p) for p in CSV_PRIMITIVES}


_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("active_op_counter", default=None)


@contextlib.contextmanager
def use_counter(counter: OpCounter | None):
    """Bind ``counter`` as the active counter for the enclosed block."""
    token = _ACTIVE.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE.reset(token)


def active_counter() -> OpCounter | None:
    return _ACTIVE.get()


def record(primitive: str, k: int | None = None, times: int = 1) -> None:
    """Record ``times`` events on the active counter, if any."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.record(primitive, k, times)
