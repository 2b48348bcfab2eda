"""Experiment assembly, grids (one fold: ``run_grid``) and per-figure tables."""

from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    SCHEMES,
    run_experiment,
    estimate_rtt,
)
from repro.harness.sweep import average_over_seeds, run_grid, sweep_loads

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "SCHEMES",
    "run_experiment",
    "estimate_rtt",
    "run_grid",
    "sweep_loads",
    "average_over_seeds",
]
