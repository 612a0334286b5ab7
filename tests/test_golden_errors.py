"""Golden digests of the ``error`` column on the three grids of
``test_golden_counts``.

The counted digests leave out ``error``, so a change to the evaluators that
keeps every counted event but moves a result by one ulp passes them.  These
digests cover that column alone, written with 17 significant digits: a
change that is meant to keep results bit-identical must keep them, and one
that is meant to move results must say why and update them.
"""

import hashlib

import pytest

from expbench.harness import ExperimentSpec, run_experiment, write_csv
from expbench.integrators import METHODS

from conftest import openblas_corename
from test_golden_counts import GRIDS

ERROR_DIGESTS = {
    "advdiff-31": "3e511b54f54c8f18c6d82fc17b8af14e17a5350e427051add03b16ff3badaf02",
    "advdiff-mixed-31": "fba74d9b85fe79acbf19303c706efebf49e9f8511ceb8ae56b411067c3d1e554",
    "ns-8": "cd381c818ecc00ddd52020f52f193b69cd1ba6f35583d60cf59f65e92b581a52",
}


def error_column(path) -> str:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("error")
    return "\n".join(row.split(",")[col] for row in lines) + "\n"


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_error_column_matches_golden_digest(grid, tmp_path):
    params, _counted_digest = GRIDS[grid]
    spec = ExperimentSpec(methods=tuple(METHODS), tols=(1e-4, 1e-7), zetas=(1.0, 10.0), **params)
    path = tmp_path / "out.csv"
    write_csv(run_experiment(spec), path)
    assert hashlib.sha256(error_column(path).encode()).hexdigest() == ERROR_DIGESTS[grid], (
        f"error column of {grid} moved; OpenBLAS runs its {openblas_corename()} "
        "kernels here, and the digests were recorded under SkylakeX"
    )
