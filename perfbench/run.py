"""Work-precision benchmark of expbench: wall time, counted memops, a layer trace.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload diffusion-1d --seed 1 --seconds 30 --trace 0

Load is one process running one cell at a time.  Every repetition runs in
a fresh worker process (worker.py), one after another, so no cache or lazy
state carries over from one repetition to the next.  BLAS threading is left
as the environment sets it and is reported.

``--trace 0`` prints the end-to-end metrics:
  setup_s        import + build_problem + default_leja_sequence() in a fresh
                 process; median over every worker started in the run
  run_s          reference + sweep + CSV write, as ``expbench preset`` does
  sweep_s        run_experiment with the reference given
  peak_rss_mb    peak resident set size of a repetition's process
  memops         sum of total_cost over the zeta=1 records
  memops_zeta10  the same sum over the zeta=10 records
  error_geomean  geometric mean error of the exponential-method records at
                 zeta=1 (10 ** the mean log10 error)
Timings are medians over the repetitions that fit in ``--seconds`` (at
least one).  ``--trace 1`` adds one traced repetition after the untraced
ones and prints the per-layer metrics of spans.LAYER_MAP.

A cell is one (method, tau, tol) integration.  It fails when its output
check fails (see worker.check_records) or when an exception escapes the
run.  The result is correct when no cell failed, every worker finished and
the counts digest is the same in every repetition, traced or not.  A digest
that differs from the one recorded for the seed commit in baseline.json is
reported, not failed: counts may change when CHANGES.md explains why.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

import spans  # noqa: E402  (sibling modules, found through sys.path[0])
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_WORKERS = 4  # setup-only workers, after one unmeasured warm-up
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("memops", "memops"),
    ("memops_zeta10", "memops"),
    ("error_geomean", "rel"),
)


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, mode, started):
    remaining = TIME_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise WorkerFailed(f"no time left for a {mode} worker")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode, "--out", OUT,
    ]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the time limit") from exc
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "expbench", "__init__.py")):
        print(f"error: no expbench sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    try:
        start_worker(args, "setup", started)  # warm-up: byte-compiles, fills the file cache
        setup_runs = [start_worker(args, "setup", started)[0] for _ in range(SETUP_WORKERS)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps, failures = [], []
    window = time.perf_counter()
    last_wall = 0.0
    while not reps or time.perf_counter() - window + last_wall <= args.seconds:
        try:
            rep, last_wall = start_worker(args, "run", started)
        except WorkerFailed as exc:
            failures.append(str(exc))
            break
        reps.append(rep)
    traced = None
    if args.trace and not failures:
        try:
            traced, _wall = start_worker(args, "trace", started)
        except WorkerFailed as exc:
            failures.append(str(exc))

    runs = reps + ([traced] if traced else [])
    setups = [r["setup_s"] for r in setup_runs]
    cells = setup_runs[0]["cells"]
    attempted = cells * (len(runs) + len(failures))
    failed = cells * len(failures)
    violations = {}
    for rep in runs:
        setups.append(rep["setup_s"])
        if "error" in rep:
            failed += cells
        else:
            failed += len(rep["violations"])
        violations.update(rep["violations"])
    ok_runs = [r for r in runs if "error" not in r]
    ok_reps = [r for r in reps if "error" not in r]
    digests = sorted({r["digest"] for r in ok_runs})
    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh).get(args.workload)

    values = {"setup_s": statistics.median(setups)}
    for key in ("run_s", "sweep_s", "peak_rss_mb", "memops", "memops_zeta10", "error_geomean"):
        values[key] = statistics.median(r[key] for r in ok_reps) if ok_reps else None
    correct = failed == 0 and not failures and len(digests) == 1 and None not in values.values()

    if args.trace:
        metrics = {}
        if traced is not None and "error" not in traced and ok_reps:
            layers = dict(traced["layers"])
            layers["harness.wall_ns_per_memop"] = 1e9 * values["sweep_s"] / values["memops"]
            layers["trace.overhead_s"] = traced["run_s"] - values["run_s"]
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit, *_ in spans.LAYER_MAP}
        else:
            correct = False
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = runs[0]["env"] if runs else {}
    env["git_commit"] = git_commit()
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f"{' + 1 traced' if traced else ''}  setup samples {len(setups)}")
    print(f"methods {runs[0]['methods'] if runs else '?'}  taus {runs[0]['taus'] if runs else '?'}")
    print("environment " + json.dumps(env, sort_keys=True))
    for rep in ok_reps:
        print(f"  repetition: run_s {rep['run_s']:.3f}  reference_s {rep['reference_s']:.3f}"
              f"  sweep_s {rep['sweep_s']:.3f}  setup_s {rep['setup_s']:.3f}")
    for name, unit in END_TO_END:
        if values[name] is not None:
            print(f"{name:16s} {values[name]:.6g} {unit}")
    if ok_runs:
        print(f"log10_error_mean {ok_runs[0]['log10_error_mean']:.6g} (log10 of error_geomean)")
    if traced and "run_s" in traced:
        print(f"traced run_s     {traced['run_s']:.6g} s")
    for digest in digests:
        drift = "matches the seed commit" if digest == baseline else f"DRIFT from seed commit {baseline}"
        print(f"counts digest {digest} ({drift})")
    if len(digests) > 1:
        print("error: the counts digest differs between repetitions")
    for cell, why in sorted(violations.items()):
        print(f"FAILED {cell}: {'; '.join(why)}")
    for why in failures:
        print(f"FAILED worker: {why}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
