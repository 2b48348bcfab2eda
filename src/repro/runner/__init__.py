"""Parallel, cached, resumable experiment execution.

Every paper figure is a ``(scheme x load x seed)`` grid of independent
points — embarrassing parallelism the serial harness left on the table.
This package supplies the execution layer:

* :class:`JobSpec` — one runnable unit (an experiment point or an incast
  run) with a deterministic content **fingerprint** (stable hash of the
  config plus a schema version tag);
* :class:`ResultCache` — an append-only JSONL cache keyed by fingerprint,
  so re-running a sweep skips completed points and an interrupted grid
  resumes where it stopped;
* :func:`run_jobs` — a ``ProcessPoolExecutor``-backed pool with per-job
  timeouts, bounded retry on worker crash, graceful serial fallback, a
  stderr progress reporter, and telemetry merging (workers ship their
  scope back; the parent absorbs it).

Grids reach the runner through one fold,
:func:`repro.harness.sweep.run_grid`, which every sweep and figure driver
calls.  Typical use::

    from repro.harness.sweep import sweep_loads
    from repro.runner import RunnerConfig

    series = sweep_loads(
        base, ["ecmp", "clove-ecn"], [0.3, 0.5, 0.7], seeds=(1, 2, 3),
        runner=RunnerConfig(jobs=8, cache_dir=".repro-cache", progress=True),
    )

or from the CLI: ``python -m repro sweep -j 8 --cache-dir .repro-cache``.
"""

from repro.runner.cache import CACHE_FILENAME, ResultCache
from repro.runner.job import (
    JOB_KINDS,
    JobSpec,
    SCHEMA_VERSION,
    canonicalize,
    fingerprint_payload,
)
from repro.runner.pool import JobResult, RunnerConfig, fork_available, run_jobs
from repro.runner.progress import ProgressReporter
from repro.runner.worker import execute_job, pool_worker

__all__ = [
    "CACHE_FILENAME",
    "JOB_KINDS",
    "JobResult",
    "JobSpec",
    "ProgressReporter",
    "ResultCache",
    "RunnerConfig",
    "SCHEMA_VERSION",
    "canonicalize",
    "execute_job",
    "fingerprint_payload",
    "fork_available",
    "pool_worker",
    "run_jobs",
]
