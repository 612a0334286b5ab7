"""Benchmark command line interface.

Subcommands:
  run      one experiment grid with explicit parameters, CSV output
  preset   named experiment presets (diffusion, advection, mixed, shearflow)
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    PRESETS,
    ExperimentSpec,
    ReferenceNotConverged,
    build_problem,
    dump_fields,
    preset,
    run_experiment,
    write_csv,
)
from .integrators import METHODS, IntegrationError, MethodConfig, integrate
from .problems import NonPositiveDensityError


def _parse_kappa(text: str):
    if text == "mixed":
        return "mixed"
    if text.startswith("const:"):
        return ("const", float(text.split(":", 1)[1]))
    raise argparse.ArgumentTypeError("kappa must be 'mixed' or 'const:<value>'")


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_methods(text: str) -> tuple:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}"
            )
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expbench",
        description="Work-precision benchmarks for exponential integrators "
        "on advection-dominated problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a fully specified experiment grid")
    run.add_argument("--problem", choices=("advdiff", "ns"), required=True)
    run.add_argument("--kappa", type=_parse_kappa, default=ExperimentSpec.kappa,
                     help="advdiff diffusion profile: const:<v> or mixed")
    run.add_argument("--nu", type=float, default=ExperimentSpec.nu,
                     help="NS kinematic viscosity")
    run.add_argument("--n", type=int, required=True, help="grid points (per axis for ns)")
    run.add_argument("--methods", type=_parse_methods, default=ExperimentSpec.methods)
    run.add_argument("--tau", type=_parse_floats, required=True)
    run.add_argument("--tol", type=_parse_floats, default=ExperimentSpec.tols)
    run.add_argument("--zeta", type=_parse_floats, default=ExperimentSpec.zetas)
    run.add_argument("--t-end", type=float, required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--dump-fields", metavar="DIR", default=None,
                     help="write rho/u/v/omega grids of the first cell's final state")

    pre = sub.add_parser("preset", help="run a named preset")
    pre.add_argument("--name", choices=tuple(PRESETS), required=True)
    pre.add_argument("--out", required=True)
    pre.add_argument("--full", action="store_true",
                     help="full-scale parameters (slow)")
    pre.add_argument("--dump-fields", metavar="DIR", default=None)
    return parser


def _do_run(spec: ExperimentSpec, out, dump_dir) -> int:
    if dump_dir is not None and spec.problem != "ns":
        print("--dump-fields is only meaningful for the ns problem", file=sys.stderr)
        return 2
    problem = build_problem(spec)
    records = run_experiment(spec, problem=problem)
    write_csv(records, out)
    print(f"wrote {len(records)} records to {out}")
    if dump_dir is not None:
        config = MethodConfig(method=spec.methods[0], tau=spec.taus[0], tol=spec.tols[0])
        result = integrate(problem, config, problem.initial_state(), spec.t_end)
        dump_fields(problem, result.final_state, dump_dir)
        print(f"wrote field snapshots to {dump_dir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec = ExperimentSpec(
                problem=args.problem,
                n=args.n,
                kappa=args.kappa,
                nu=args.nu,
                methods=args.methods,
                taus=args.tau,
                tols=args.tol,
                zetas=args.zeta,
                t_end=args.t_end,
            )
        else:
            spec = preset(args.name, full=args.full)
        return _do_run(spec, args.out, args.dump_fields)
    # integrate turns a cell's NonPositiveDensityError into InstabilityError,
    # so one that gets here is from the reference solve
    except NonPositiveDensityError as exc:
        print(f"error: reference solve failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, IntegrationError, ReferenceNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
