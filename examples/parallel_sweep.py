#!/usr/bin/env python3
"""Parallel, cached sweeps through repro.runner.

Runs the asymmetric ECMP-vs-Clove load sweep twice with the same cache
directory: the first pass executes every (scheme, load, seed) point on a
pool of worker processes; the second pass is served entirely from the
on-disk result cache and finishes in milliseconds.  Interrupting the first
pass (Ctrl-C) and re-running demonstrates resume — completed points are
never recomputed.

Run:  python examples/parallel_sweep.py [workers] [cache_dir]
"""

import sys
import time

from repro.harness.experiment import ExperimentConfig
from repro.harness.report import render_table
from repro.harness.sweep import sweep_loads
from repro.runner import ResultCache, RunnerConfig

SCHEMES = ("ecmp", "clove-ecn")
LOADS = (0.3, 0.5, 0.7)
SEEDS = (1, 2)


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    cache_dir = sys.argv[2] if len(sys.argv) > 2 else ".sweep-cache"
    base = ExperimentConfig(asymmetric=True, jobs_per_client=30)
    runner = RunnerConfig(jobs=jobs, cache_dir=cache_dir, progress=True)
    n_points = len(SCHEMES) * len(LOADS) * len(SEEDS)

    print(f"Sweeping {n_points} points on {jobs} workers (cache: {cache_dir})")
    start = time.perf_counter()
    series = sweep_loads(base, SCHEMES, LOADS, seeds=SEEDS, runner=runner)
    cold_s = time.perf_counter() - start
    print(render_table(series))
    print(f"cold pass: {cold_s:.1f}s")

    start = time.perf_counter()
    sweep_loads(base, SCHEMES, LOADS, seeds=SEEDS, runner=runner)
    warm_s = time.perf_counter() - start
    print(f"warm pass: {warm_s:.3f}s — {len(ResultCache(cache_dir))} cached "
          f"points, nothing re-executed")


if __name__ == "__main__":
    main()
