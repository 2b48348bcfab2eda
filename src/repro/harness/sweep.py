"""Parameter grids: (name x x-value x seed) runs averaged over seeds.

The paper runs each point with three random seeds and reports the average.
Every grid in the evaluation (Figures 4-8) is folded by one function,
:func:`run_grid`: it submits the whole names x xs x seeds product to
:func:`repro.runner.run_jobs` as one batch and averages each requested
payload key over the seeds of every point.  :func:`sweep_loads` (scheme x
load) and :func:`average_over_seeds` (one point) are its two common shapes.

A grid runs on parallel worker processes and resumes from an on-disk
result cache when given a :class:`~repro.runner.RunnerConfig`::

    series = sweep_loads(base, schemes, loads, seeds=(1, 2, 3),
                         runner=RunnerConfig(jobs=8, cache_dir=".cache"))

Metrics are keys of the scalar payload a job computes: any of
:data:`repro.harness.metrics.METRIC_KEYS` for experiment jobs,
``goodput_bps`` for incast jobs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Callable, Dict, Optional, Sequence

from repro.harness.experiment import ExperimentConfig
from repro.harness.metrics import METRIC_KEYS
from repro.harness.report import Series
from repro.runner import JobSpec, RunnerConfig, run_jobs
from repro.telemetry import Telemetry

#: the payload keys a job of each kind reports
_PAYLOAD_KEYS: Dict[str, Sequence[str]] = {
    "experiment": METRIC_KEYS,
    "incast": ("goodput_bps",),
}


def run_grid(
    make_job: Callable[[str, float, int], JobSpec],
    names: Sequence[str],
    xs: Sequence[float],
    seeds: Sequence[int],
    keys: Sequence[str],
    runner: Optional[RunnerConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, Series]:
    """Run ``make_job(name, x, seed)`` over the grid; ``{key: Series}``.

    Each series maps a name to ``[(x, mean over seeds), ...]``.  The whole
    grid is one :func:`run_jobs` batch, so with ``runner.jobs > 1`` every
    point runs concurrently.  A point with a failed job is NaN and raises
    a :class:`RuntimeWarning`.  An unknown key raises :class:`ValueError`
    before anything runs.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [make_job(name, x, seed) for name in names for x in xs for seed in seeds]
    for kind in {spec.kind for spec in specs}:
        for key in keys:
            if key not in _PAYLOAD_KEYS[kind]:
                raise ValueError(
                    f"unknown metric key {key!r} for {kind} jobs "
                    f"(expected one of {tuple(_PAYLOAD_KEYS[kind])})"
                )
    results = iter(run_jobs(specs, runner=runner, telemetry=telemetry))
    grid: Dict[str, Series] = {key: {name: [] for name in names} for key in keys}
    for name in names:
        for x in xs:
            point = [next(results) for _seed in seeds]
            failed = next((r for r in point if r.metrics is None), None)
            if failed is not None:
                warnings.warn(
                    f"job {failed.spec.label!r} failed ({failed.error}); "
                    f"its grid point is NaN",
                    RuntimeWarning,
                    stacklevel=3,
                )
            for key in keys:
                mean = (
                    float("nan") if failed is not None
                    else sum(float(r.metrics[key]) for r in point) / len(point)
                )
                grid[key][name].append((x, mean))
    return grid


def average_over_seeds(
    base: ExperimentConfig,
    seeds: Sequence[int],
    metric: str = "avg_fct",
    telemetry: Optional[Telemetry] = None,
    runner: Optional[RunnerConfig] = None,
) -> float:
    """Run ``base`` once per seed and average the metric (paper protocol).

    When a ``telemetry`` scope is given, every run reports into it (one
    manifest per run, shared counters/events).  ``runner`` selects
    parallelism and caching; None keeps the serial, uncached behaviour.
    """
    grid = run_grid(
        lambda _scheme, _load, seed: JobSpec.experiment(replace(base, seed=seed)),
        [base.scheme], [base.load], seeds, [metric], runner, telemetry,
    )
    return grid[metric][base.scheme][0][1]


def sweep_loads(
    base: ExperimentConfig,
    schemes: Sequence[str],
    loads: Sequence[float],
    seeds: Sequence[int] = (1,),
    metric: str = "avg_fct",
    telemetry: Optional[Telemetry] = None,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Produce {scheme: [(load, metric), ...]} — one figure's line series."""
    grid = run_grid(
        lambda scheme, load, seed: JobSpec.experiment(
            replace(base, scheme=scheme, load=load, seed=seed)
        ),
        schemes, loads, seeds, [metric], runner, telemetry,
    )
    return grid[metric]


def series_equal(a: Series, b: Series) -> bool:
    """Bit-exact equality of two sweep series (NaN compares equal to NaN).

    The serial-vs-parallel determinism guarantee is stated in these terms:
    ``jobs=1`` and ``jobs=N`` must produce series for which this holds.
    """
    if set(a) != set(b):
        return False
    for scheme, points in a.items():
        other = b[scheme]
        if len(points) != len(other):
            return False
        for (load_a, value_a), (load_b, value_b) in zip(points, other):
            if load_a != load_b:
                return False
            if math.isnan(value_a) and math.isnan(value_b):
                continue
            if value_a != value_b:
                return False
    return True
