"""Shared benchmark plumbing.

Every benchmark regenerates one table/figure of the paper and prints the
series it produces (scheme x load -> metric), so `pytest benchmarks/
--benchmark-only -s` doubles as the paper-reproduction report.  Figures are
expensive whole-simulation sweeps, so each runs exactly once
(``benchmark.pedantic(rounds=1, iterations=1)``).

Set ``REPRO_BENCH_QUALITY=full`` for paper-grade statistics (slower).
"""

import os

from repro.harness.figures import FigureQuality

FULL = os.environ.get("REPRO_BENCH_QUALITY", "quick") == "full"


def bench_quality() -> FigureQuality:
    """CI-speed by default; REPRO_BENCH_QUALITY=full for paper-grade runs.

    The horizon (jobs per client) matters: the schemes separate through
    sustained backlog on the bottleneck, which needs hundreds of jobs per
    connection to accumulate (the paper ran 50K).
    """
    if FULL:
        return FigureQuality(
            loads=(0.1, 0.3, 0.5, 0.6, 0.7, 0.8),
            seeds=(1, 2, 3),
            jobs_per_client=600,
        )
    return FigureQuality(loads=(0.3, 0.5, 0.7), seeds=(1,), jobs_per_client=200)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive figure function exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

