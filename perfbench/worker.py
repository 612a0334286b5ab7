"""One benchmark repetition in a fresh process.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace --out DIR

Prints one JSON object as its last line of output.

``setup`` times import, ``build_problem`` and ``default_leja_sequence()``
and stops.  ``run`` does the same, then times what a user waits for in
``expbench preset``: the reference, the sweep and the CSV write.  ``trace``
runs like ``run`` with every public expbench function wrapped by the span
tracer.  After the timed part, ``run`` and ``trace`` check the CSV output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# CSV columns that hold counts, or the grid keys that identify a row; the
# counts digest covers exactly these.
COUNTED_COLUMNS = (
    "method", "tau", "tol", "zeta", "total_cost", "steps",
    "matvec", "jacvec", "rhs", "dot", "lincomb", "scale", "fetch", "store",
)
RK_METHODS = ("rk2", "rk4")


def counts_digest(csv_path) -> str:
    """sha256 of the counted columns, rows sorted by (method, tau, tol, zeta)."""
    with open(csv_path, newline="") as fh:
        rows = [[row[c] for c in COUNTED_COLUMNS] for row in csv.DictReader(fh)]
    rows.sort(key=lambda r: (r[0], float(r[1]), float(r[2]), float(r[3])))
    text = "\n".join(",".join(r) for r in [list(COUNTED_COLUMNS)] + rows) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_records(records, reread, state_len):
    """Violations per (method, tau, tol) cell; an empty dict means all pass.

    - every record survives write_csv/read_csv unchanged,
    - total_cost(10) - total_cost(1) == 9 * 2L * dot, from the CSV counts,
    - every exponential-method cell converged with a finite error.
    """
    bad: dict = {}

    def fail(r, why):
        bad.setdefault(f"{r.method} tau={r.tau:g} tol={r.tol:g}", []).append(why)

    if len(reread) != len(records):
        for r in records:
            fail(r, "CSV row count differs from the records")
        return bad
    fields = ("method", "tau", "tol", "zeta", "error", "total_cost", "steps", "counts", "converged")
    for r, back in zip(records, reread):
        for f in fields:
            if getattr(r, f) != getattr(back, f):
                fail(r, f"{f} changed in the CSV round trip")
    by_cell: dict = {}
    for r in reread:
        by_cell.setdefault((r.method, r.tau, r.tol), {})[r.zeta] = r
    for (method, _tau, _tol), zetas in by_cell.items():
        z1, z10 = zetas.get(1.0), zetas.get(10.0)
        if z1 is None or z10 is None:
            fail(next(iter(zetas.values())), "missing zeta=1 or zeta=10 record")
        elif z10.total_cost - z1.total_cost != 9 * 2 * state_len * z1.counts["dot"]:
            fail(z1, "total_cost(10) - total_cost(1) != 9 * 2L * dot")
        if method not in RK_METHODS:
            for r in zetas.values():
                if not (r.converged and math.isfinite(r.error)):
                    fail(r, "exponential cell not converged or error not finite")
    return bad


def summarize(records) -> dict:
    zeta1 = [r for r in records if r.zeta == 1.0]
    logs = [
        math.log10(r.error) for r in zeta1
        if r.method not in RK_METHODS and math.isfinite(r.error) and r.error > 0
    ]
    log_mean = sum(logs) / len(logs) if logs else math.inf
    return {
        "memops": sum(r.total_cost for r in zeta1),
        "memops_zeta10": sum(r.total_cost for r in records if r.zeta == 10.0),
        "error_geomean": 10**log_mean,
        "log10_error_mean": log_mean,
    }


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for pkg in (numpy, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(handle, sym, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads = getter()
                    break
        env[f"{pkg.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        env[f"{pkg.__name__}_blas_threads"] = threads
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from expbench import harness, matfunc

    spec = workloads.build_spec(harness, args.workload, args.seed)
    problem = harness.build_problem(spec)
    matfunc.default_leja_sequence()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"expbench imported from {harness.__file__}, not from {SRC}")
    result = {
        "setup_s": setup_s,
        "cells": len({(m, tau, tol) for m in spec.methods for tau in spec.taus for tol in spec.tols}),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    tag = f"{args.workload}-{args.mode}"  # each run overwrites the last one's files
    csv_path = os.path.join(args.out, tag + ".csv")
    error = None
    t1 = time.perf_counter()
    try:
        reference = harness.compute_reference(problem, spec.t_end, tau_hint=min(spec.taus))
        t2 = time.perf_counter()
        records = harness.run_experiment(spec, reference=reference, problem=problem)
        t3 = time.perf_counter()
        harness.write_csv(records, csv_path)
        t4 = time.perf_counter()
    except Exception:  # an escaping exception fails every cell of the run
        error = traceback.format_exc()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        tracer.save(os.path.join(args.out, tag + "-spans.npz"))
        result["layers"] = tracer.layer_metrics()

    result["methods"] = list(spec.methods)
    result["taus"] = list(spec.taus)
    result["env"] = environment()
    if error is not None:
        result["error"] = error
        result["violations"] = {"run": [error]}
        print(json.dumps(result))
        return 0
    reread = harness.read_csv(csv_path)
    result.update(
        run_s=t4 - t1,
        reference_s=t2 - t1,
        sweep_s=t3 - t2,
        peak_rss_mb=peak_rss_mb,
        digest=counts_digest(csv_path),
        violations=check_records(records, reread, workloads.state_length(spec)),
        **summarize(records),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
