"""Golden digests of the counted CSV columns on three small grids.

Every ``METHODS`` row runs on two small advection-diffusion grids (constant
and mixed kappa) and a small Navier-Stokes grid, with both tolerances.  The
digest covers the columns that the cost model produces (everything but
``error``), so a change to the evaluators that moves a single counted event,
a step count or a converged flag shows here.  A change that is meant to move the counts must
say why and update the digest.
"""

import hashlib

import pytest

from expbench.harness import CSV_HEADER, ExperimentSpec, run_experiment, write_csv
from expbench.integrators import METHODS

from conftest import openblas_corename

COUNTED = [c for c in CSV_HEADER.split(",") if c != "error"]

GRIDS = {
    "advdiff-31": (
        dict(problem="advdiff", n=31, kappa=("const", 1.0 / 80.0), taus=(0.25, 0.125), t_end=0.5),
        "4af768a57a6039438f8195b6d47b7f60aee40a6b798765f58d32463f5aa1d6aa",
    ),
    "advdiff-mixed-31": (
        dict(problem="advdiff", n=31, kappa="mixed", taus=(0.25, 0.125), t_end=0.5),
        "d9bc9e66f45a3b79d81ac1149a2e10ddb57af9dc86b9fdef2a47533fed93a841",
    ),
    "ns-8": (
        dict(problem="ns", n=8, nu=1e-3, taus=(0.25,), t_end=0.5),
        "9baf2d8efe56ff5b4ceeda52605df1bcf4fa4f0caffc8e4ad71e45b38106330a",
    ),
}


def counted_columns(path) -> str:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [header.index(c) for c in COUNTED]
    return "\n".join(",".join(row.split(",")[i] for i in keep) for row in lines) + "\n"


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_counted_columns_match_golden_digest(grid, tmp_path):
    params, digest = GRIDS[grid]
    spec = ExperimentSpec(methods=tuple(METHODS), tols=(1e-4, 1e-7), zetas=(1.0, 10.0), **params)
    path = tmp_path / "out.csv"
    write_csv(run_experiment(spec), path)
    assert hashlib.sha256(counted_columns(path).encode()).hexdigest() == digest, (
        f"counted columns of {grid} moved; OpenBLAS runs its {openblas_corename()} "
        "kernels here, and the digests were recorded under SkylakeX"
    )
