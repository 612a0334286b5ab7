import dataclasses
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from expbench import cli, harness
from expbench.cli import build_parser, main
from expbench.harness import ExperimentSpec, preset, read_csv
from expbench.integrators import METHODS

from conftest import use_cpus

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class TestParser:
    def test_run_arguments(self):
        args = build_parser().parse_args(
            [
                "run", "--problem", "advdiff", "--kappa", "const:0.0125",
                "--n", "16", "--methods", "rk4,exprb-euler-krylov",
                "--tau", "0.25,0.125", "--tol", "1e-4", "--zeta", "1,10",
                "--t-end", "0.5", "--out", "x.csv",
            ]
        )
        assert args.command == "run"
        assert args.kappa == ("const", 0.0125)
        assert args.methods == ("rk4", "exprb-euler-krylov")
        assert args.tau == (0.25, 0.125)
        assert args.zeta == (1.0, 10.0)

    def test_mixed_kappa_and_preset(self):
        args = build_parser().parse_args(
            ["run", "--problem", "advdiff", "--kappa", "mixed", "--n", "8",
             "--tau", "0.1", "--t-end", "1", "--out", "x.csv"]
        )
        assert args.kappa == "mixed"
        args = build_parser().parse_args(["preset", "--name", "diffusion", "--out", "y.csv"])
        assert args.name == "diffusion"

    def test_run_defaults_are_the_spec_defaults(self, monkeypatch):
        # the default grid is stated once, by ExperimentSpec, and is the
        # grid of the diffusion preset
        specs = []
        monkeypatch.setattr(cli, "_do_run", lambda spec, out, dump_dir: specs.append(spec) or 0)
        code = main(["run", "--problem", "advdiff", "--n", "8", "--tau", "0.1",
                     "--t-end", "1", "--out", "x.csv"])
        assert code == 0
        (spec,) = specs
        defaults = {
            f.name: f.default for f in dataclasses.fields(ExperimentSpec)
            if f.default is not dataclasses.MISSING
        }
        assert set(defaults) == {"methods", "tols", "zetas", "kappa", "nu"}
        assert {name: getattr(spec, name) for name in defaults} == defaults
        assert spec.methods == tuple(METHODS)
        diffusion = preset("diffusion")
        assert (spec.tols, spec.zetas, spec.kappa) == (
            diffusion.tols, diffusion.zetas, diffusion.kappa
        )

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--problem", "advdiff", "--n", "8", "--methods", "euler",
                 "--tau", "0.1", "--t-end", "1", "--out", "x.csv"]
            )

    def test_invalid_kappa_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--problem", "advdiff", "--kappa", "linear", "--n", "8",
                 "--tau", "0.1", "--t-end", "1", "--out", "x.csv"]
            )


class TestEndToEnd:
    @pytest.mark.parametrize(
        "problem_args",
        [
            ["--problem", "advdiff", "--kappa", "const:nan", "--n", "16"],
            ["--problem", "advdiff", "--kappa", "const:inf", "--n", "16"],
            ["--problem", "ns", "--nu", "nan", "--n", "8"],
            ["--problem", "ns", "--nu", "inf", "--n", "8"],
        ],
    )
    def test_non_finite_coefficient_rejected_before_the_sweep(self, tmp_path, capsys, problem_args):
        out = tmp_path / "run.csv"
        code = main(
            ["run", *problem_args, "--methods", "rk4", "--tau", "0.01",
             "--t-end", "0.01", "--out", str(out)]
        )
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            [
                "run", "--problem", "advdiff", "--n", "16",
                "--methods", "rk4,exprb-euler-krylov", "--tau", "0.1",
                "--tol", "1e-6", "--zeta", "1", "--t-end", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        records = read_csv(out)
        assert len(records) == 2
        assert all(r.converged for r in records)

    def test_ns_run_with_field_dump(self, tmp_path):
        out = tmp_path / "ns.csv"
        fields = tmp_path / "fields"
        code = main(
            [
                "run", "--problem", "ns", "--n", "8", "--nu", "1e-4",
                "--methods", "rk4", "--tau", "0.05", "--tol", "1e-6",
                "--zeta", "1", "--t-end", "0.25", "--out", str(out),
                "--dump-fields", str(fields),
            ]
        )
        assert code == 0
        for name in ("rho", "u", "v", "omega"):
            assert (fields / f"{name}.csv").exists()

    def test_field_dump_rejected_for_1d_problem(self, tmp_path):
        code = main(
            [
                "run", "--problem", "advdiff", "--n", "8", "--methods", "rk4",
                "--tau", "0.25", "--t-end", "0.25",
                "--out", str(tmp_path / "x.csv"),
                "--dump-fields", str(tmp_path / "fields"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "fields").exists()

    def test_preset_field_dump_rejected_before_the_sweep(self, tmp_path):
        code = main(
            ["preset", "--name", "diffusion", "--out", str(tmp_path / "d.csv"),
             "--dump-fields", str(tmp_path / "fields")]
        )
        assert code == 2
        assert not (tmp_path / "d.csv").exists()

    def test_unstable_dump_cell_reported_as_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            [
                "run", "--problem", "ns", "--n", "8", "--nu", "1e-6",
                "--methods", "rk4", "--tau", "1", "--t-end", "2",
                "--out", str(out), "--dump-fields", str(tmp_path / "fields"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: density is not positive" in err
        assert "reference" not in err
        assert all(math.isinf(r.error) for r in read_csv(out))
        assert not (tmp_path / "fields").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "problem_args, cap, message",
        [
            # at nu = 100 the reference's first macro step, t_end / 64, is far
            # outside the stability region of its midpoint stages, which lose
            # density inside the rhs
            (["--nu", "100", "--tau", "0.25", "--t-end", "0.25"], None, "density is not positive"),
            # the reference to 0.25 takes 13 macro steps
            (["--nu", "1e-4", "--tau", "0.25", "--t-end", "0.25"], 8, "within step cap 8"),
        ],
        ids=["density", "step-cap"],
    )
    def test_failed_reference_reported_as_error(
        self, tmp_path, capsys, monkeypatch, problem_args, cap, message, cpus
    ):
        if cap is not None:
            monkeypatch.setattr(harness, "REFERENCE_STEP_CAP", cap)
        use_cpus(monkeypatch, cpus)
        out = tmp_path / "x.csv"
        code = main(["run", "--problem", "ns", "--n", "8", *problem_args,
                     "--methods", "rk4", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "reference" in err
        assert not out.exists()


def test_runs_as_a_module_from_a_checkout():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "expbench", "--help"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: expbench")


def test_readme_cli_examples_parse():
    """Every ``expbench ...`` command of README's CLI code block, with its
    backslash continuation lines joined, is accepted by the parser."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.strip() for line in lines if line.strip().startswith("expbench ")]
    assert commands
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_csv_columns_match_the_header():
    """The column line under README's "Output CSV columns" is the header
    that ``write_csv`` writes."""
    text = (ROOT / "README.md").read_text()
    line = text.split("Output CSV columns:\n", 1)[1].splitlines()[0]
    assert line == f"`{harness.CSV_HEADER}`."
