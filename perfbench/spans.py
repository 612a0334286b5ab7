"""Span tracer that wraps the public functions of the expbench modules.

The program is not edited: every public function defined in a layer module
is replaced, in every expbench module that binds it (``from .x import y``
binds one function under several module names), by a wrapper that records
a span.  A span holds the function, start and end time, the parent span and
the cell id (the index of the ``integrate`` call it ran under, -1 outside
any cell).  Spans are kept in compact in-memory arrays and written out once
when the traced run ends.

Self time is a span's duration minus the durations of its direct children.
The wrapper's own cost lands in the self time of the parent span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("counting", "linalg", "problems", "matfunc", "integrators", "harness")

STEP_FUNCS = ("rk2_step", "rk4_step", "exprb_euler_step", "exprb42_step")
PHI_FUNCS = ("krylov_phi_action", "leja_phi_action", "phi_linear_combination")
PRIMITIVES = ("lincomb", "dot", "scale", "apply_operator")
NS_FUNCS = ("ns_rhs", "ns_jacobian_action", "ns_spectral_bounds")

# Per-layer metrics of the traced run: (name, unit, end-to-end metric it
# should move, workloads where it should move, workloads where it should
# not).  BENCHMARK.json lists the same names and units.
LAYER_MAP = (
    ("harness.compute_reference.s", "s", "run_s", "shearflow-2d", "diffusion-1d advection-1d"),
    ("harness.wall_ns_per_memop", "ns", "sweep_s", "all", ""),
    ("integrators.integrate.calls", "count", "sweep_s", "all", ""),
    ("integrators.integrate.s", "s", "sweep_s", "all", ""),
    ("integrators.step.calls", "count", "sweep_s", "all", ""),
    ("integrators.step.self_s", "s", "sweep_s", "all", ""),
    ("matfunc.phi_action.calls", "count", "sweep_s", "all", ""),
    ("matfunc.phi_action.s", "s", "sweep_s", "all", ""),
    ("matfunc.phi_action.self_s", "s", "sweep_s", "all", ""),
    ("matfunc.phi_action.krylov_s", "s", "sweep_s", "all", ""),
    ("matfunc.phi_action.leja_s", "s", "sweep_s", "all", ""),
    ("matfunc.phi_action.applies", "count", "memops", "all", ""),
    ("matfunc.phi_action.substepped", "count", "sweep_s", "advection-1d", "diffusion-1d"),
    ("matfunc.phi_action.substeps_max", "count", "sweep_s", "advection-1d", "diffusion-1d"),
    ("matfunc.arnoldi_extend.calls", "count", "sweep_s memops_zeta10", "diffusion-1d shearflow-2d", ""),
    ("matfunc.arnoldi_extend.self_s", "s", "sweep_s memops_zeta10", "diffusion-1d shearflow-2d", ""),
    ("matfunc.divided_differences_exp.calls", "count", "sweep_s", "shearflow-2d advection-1d", ""),
    ("matfunc.divided_differences_exp.s", "s", "sweep_s", "shearflow-2d advection-1d", ""),
    ("matfunc.dd_per_leja_action", "dd/action", "sweep_s", "shearflow-2d advection-1d", ""),
    ("linalg.dense_phi.calls", "count", "sweep_s", "diffusion-1d", "shearflow-2d"),
    ("linalg.dense_phi.s", "s", "sweep_s", "diffusion-1d", "shearflow-2d"),
    ("linalg.dense_phi.krylov_s", "s", "sweep_s", "diffusion-1d", "shearflow-2d"),
) + tuple(
    (f"linalg.{f}.{k}", u, "sweep_s", "diffusion-1d advection-1d", "")
    for f in PRIMITIVES
    for k, u in (("calls", "count"), ("s", "s"))
) + tuple(
    (f"problems.{f}.{k}", u, "sweep_s run_s", "shearflow-2d", "diffusion-1d advection-1d")
    for f in NS_FUNCS
    for k, u in (("calls", "count"), ("s", "s"))
) + (
    ("counting.record.calls", "count", "sweep_s", "diffusion-1d", ""),
    ("counting.record.s", "s", "sweep_s", "diffusion-1d", ""),
    ("trace.overhead_s", "s", "", "", ""),
)


def _phi_info(name, sig, args, kwargs, result):
    """(backend, iterations, substeps) of one phi-action call."""
    if name == "krylov_phi_action":
        backend = "krylov"
    elif name == "leja_phi_action":
        backend = "leja"
    else:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        backend = bound.arguments["backend"]
    return backend, result.iterations, result.substeps


class Tracer:
    """Records spans of the wrapped expbench functions while installed."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.current = -1
        self.current_cell = -1
        self.n_cells = 0
        self.phi: dict = {}  # span index -> (backend, iterations, substeps)
        self._originals: list = []  # (module, attribute, original object)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"expbench.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "expbench" and not mod_name.startswith("expbench."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in self._originals:
            setattr(module, attr, obj)
        self._originals.clear()

    def _wrap(self, fn, name):
        fn_id = self.name_ids.setdefault(name, len(self.names))
        if fn_id == len(self.names):
            self.names.append(name)
        short = name.rsplit(".", 1)[1]
        sig = inspect.signature(fn) if short in PHI_FUNCS else None
        is_cell = name == "integrators.integrate"
        clock = time.perf_counter
        tracer = self
        fns, starts, ends, parents, cells = self.fn, self.start, self.end, self.parent, self.cell

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fn_id)
            parents.append(tracer.current)
            prev, prev_cell = tracer.current, tracer.current_cell
            if is_cell:
                tracer.current_cell = tracer.n_cells
                tracer.n_cells += 1
            cells.append(tracer.current_cell)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                tracer.current = prev
                tracer.current_cell = prev_cell
            if sig is not None:
                tracer.phi[idx] = _phi_info(short, sig, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "cell": np.frombuffer(self.cell, dtype=np.int32),
        }

    def save(self, path) -> None:
        """Write every span as arrays, with ``names`` mapping ``fn`` ids."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Every per-layer metric of LAYER_MAP except the two that the parent
        process derives from untraced runs: harness.wall_ns_per_memop and
        trace.overhead_s."""
        a = self.arrays()
        fn, parent = a["fn"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child

        def mask(layer, *funcs):
            ids = [self.name_ids[f"{layer}.{f}"] for f in funcs if f"{layer}.{f}" in self.name_ids]
            return np.isin(fn, ids)

        out = {}

        def put(prefix, m, total=True, self_s=False):
            out[f"{prefix}.calls"] = int(m.sum())
            if total:
                out[f"{prefix}.s"] = float(dur[m].sum())
            if self_s:
                out[f"{prefix}.self_s"] = float(self_time[m].sum())

        out["harness.compute_reference.s"] = float(dur[mask("harness", "compute_reference")].sum())
        put("integrators.integrate", mask("integrators", "integrate"))
        # steps of the sweep only: the NS reference solve also calls rk4_step
        steps = mask("integrators", *STEP_FUNCS) & (a["cell"] >= 0)
        put("integrators.step", steps, total=False, self_s=True)
        put("matfunc.phi_action", mask("matfunc", *PHI_FUNCS), self_s=True)
        info = self.phi
        for backend in ("krylov", "leja"):
            idx = [i for i, (b, _it, _s) in info.items() if b == backend]
            out[f"matfunc.phi_action.{backend}_s"] = float(dur[idx].sum())
        out["matfunc.phi_action.applies"] = sum(it for _b, it, _s in info.values())
        out["matfunc.phi_action.substepped"] = sum(1 for _b, _it, s in info.values() if s > 1)
        out["matfunc.phi_action.substeps_max"] = max((s for _b, _it, s in info.values()), default=0)
        put("matfunc.arnoldi_extend", mask("matfunc", "arnoldi_extend"), total=False, self_s=True)
        dd = mask("matfunc", "divided_differences_exp")
        put("matfunc.divided_differences_exp", dd)
        leja_actions = sum(1 for b, _it, _s in info.values() if b == "leja")
        out["matfunc.dd_per_leja_action"] = int(dd.sum()) / leja_actions if leja_actions else 0.0
        dense = mask("linalg", "dense_phi")
        put("linalg.dense_phi", dense)
        dd_spans = set(np.flatnonzero(dd).tolist())
        outside_dd = 0.0
        for i in np.flatnonzero(dense).tolist():
            p = int(parent[i])
            while p >= 0 and p not in dd_spans:
                p = int(parent[p])
            if p < 0:
                outside_dd += float(dur[i])
        out["linalg.dense_phi.krylov_s"] = outside_dd
        for f in PRIMITIVES:
            put(f"linalg.{f}", mask("linalg", f))
        for f in NS_FUNCS:
            put(f"problems.{f}", mask("problems", f))
        put("counting.record", mask("counting", "record"))
        return out
