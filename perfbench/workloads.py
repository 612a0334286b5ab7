"""Workload definitions: which preset grid each benchmark workload runs.

Each workload is a desk preset as ``expbench preset`` builds it.  The
shear-flow workload keeps only the three largest of its eight step sizes
(1, 1/2, 1/4): the full desk grid (~60 s on 2 cores, ~13 s of it the RK4
reference) does not fit the benchmark's per-run budget, and the smaller
steps repeat the NS-stencil-dominated work the larger ones exercise.

The seed permutes the order of methods and step sizes handed to
``ExperimentSpec``.  The order decides which Leja divided-difference cache
entries survive a cache clear, so it moves wall time but, by construction
of the program, never the counted CSV columns.
"""

from __future__ import annotations

import dataclasses
import random

# name -> (preset name, number of leading step sizes kept, or None for all)
WORKLOADS = {
    "diffusion-1d": ("diffusion", None),
    "advection-1d": ("advection", None),
    "shearflow-2d": ("shearflow", 3),
}


def build_spec(harness, workload: str, seed: int):
    """The permuted ``ExperimentSpec`` for ``workload`` under ``seed``."""
    preset_name, n_taus = WORKLOADS[workload]
    spec = harness.preset(preset_name)
    taus = spec.taus if n_taus is None else spec.taus[:n_taus]
    rng = random.Random(seed)
    methods = tuple(rng.sample(spec.methods, len(spec.methods)))
    taus = tuple(rng.sample(taus, len(taus)))
    return dataclasses.replace(spec, methods=methods, taus=taus)


def state_length(spec) -> int:
    """Length L of the state vector, recomputed independently of the program."""
    return spec.n if spec.problem == "advdiff" else 3 * spec.n**2
