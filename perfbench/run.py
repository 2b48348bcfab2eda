"""The repository benchmark: run one workload, print its metrics.

    python3 perfbench/run.py --workload ecn-asym --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, one table
    python3 perfbench/run.py --workload int-sym --trace 1   # per-layer table

A run turns ``--seed`` into a panel of workload seeds and runs one
experiment per panel seed, each in a fresh process (``worker.py``), one
after another; once the panel is done it repeats panel seeds while the
``--seconds`` budget lasts.  With ``--trace 0`` it reports the end-to-end
host metrics (medians over the experiments); with ``--trace 1`` it
alternates untraced and traced experiments of the first panel seed and
reports the per-layer metrics of the traced ones.  Every experiment's
output is checked (see README.md); the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402

WORKER = HERE / "worker.py"
#: one experiment may not take longer than this (seconds); with START_LIMIT
#: it keeps a run under 180 s however slow the machine is
WORKER_TIMEOUT = 60.0
#: no new experiment starts after this much of a run has passed (seconds)
START_LIMIT = 110.0


class BenchError(RuntimeError):
    """An experiment could not run; ``code`` is the exit status to use."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


def panel_seeds(seed: int) -> List[int]:
    """The workload seeds a run with ``--seed seed`` uses (disjoint per seed)."""
    return [seed * catalogue.PANEL + i for i in range(catalogue.PANEL)]


def spawn(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Run one experiment in a fresh process; returns its record."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    spawned = time.monotonic()
    try:
        done = subprocess.run(command + ["--spawned", repr(spawned)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} seed {seed}: no result after "
                         f"{exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(
            f"{workload} seed {seed}: worker exited {done.returncode}\n"
            + done.stderr[-2000:],
            code=2 if done.returncode == 2 else 1,
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _fingerprint_key(record: Dict[str, Any]) -> str:
    return json.dumps(record["fingerprint"], sort_keys=True)


def _record_checks(records: List[Dict[str, Any]]) -> List[str]:
    """Each experiment's own checks, plus fingerprint equality per seed."""
    checks: List[str] = []
    by_seed: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        by_seed.setdefault(record["seed"], []).append(record)
        checks.extend(f"seed {record['seed']}: {c}" for c in record["checks"])
    for seed, group in by_seed.items():
        if len({_fingerprint_key(r) for r in group}) > 1:
            checks.append(f"seed {seed}: simulated fingerprint differs between "
                          "runs of the same seed (traced or not)")
    return checks


def _loop(plan: List[Any], seconds: float, minimum: int, run) -> List[Any]:
    """Run ``plan`` items cyclically: at least ``minimum``, then more while
    the next one (estimated by the last of its position) fits ``seconds``."""
    started = time.monotonic()
    durations: Dict[int, float] = {}
    results = []
    index = 0
    while True:
        slot = index % len(plan)
        elapsed = time.monotonic() - started
        if index >= minimum and (elapsed + durations.get(slot, 0.0) > seconds
                                 or elapsed > START_LIMIT):
            break
        began = time.monotonic()
        results.append(run(plan[slot]))
        durations[slot] = time.monotonic() - began
        index += 1
    return results


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """End-to-end metrics of one run (untraced experiments)."""
    panel = panel_seeds(seed)
    records = _loop(panel, seconds, len(panel),
                    lambda s: spawn(workload, s, trace=False))
    # run_s and peak_rss_mb weigh every panel seed once: how much work and
    # memory an experiment takes depends on its seed, and a mean over the
    # panel averages that out.
    def panel_mean(key: str) -> float:
        return statistics.fmean(
            statistics.median(r[key] for r in records if r["seed"] == s)
            for s in panel)

    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "run_s": panel_mean("run_s"),
        "pkts_per_s": statistics.median(
            r["fingerprint"]["nic_packets"] / r["run_s"] for r in records),
        "peak_rss_mb": panel_mean("peak_rss_mb"),
    }
    return _result(workload, seed, records, values)


def measure_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Per-layer metrics of one run: untraced and traced experiments of the
    first panel seed, alternating, at least one of each."""
    first = panel_seeds(seed)[0]
    records = _loop([False, True], seconds, 2,
                    lambda trace: spawn(workload, first, trace=trace))
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    checks = []
    values: Dict[str, float] = {}
    for name, _, _ in catalogue.per_layer():
        if name == "trace.overhead":
            continue
        samples = [r["layers"][name] for r in traced]
        if name in catalogue.TIMED:
            values[name] = statistics.median(samples)
        else:
            if len(set(samples)) > 1:
                checks.append(f"per-layer count {name} differs between traced "
                              f"runs of seed {first}: {samples}")
            values[name] = samples[0]
    values["trace.overhead"] = (statistics.median(r["run_s"] for r in traced)
                                / statistics.median(r["run_s"] for r in plain))
    return _result(workload, seed, records, values, checks)


def _result(workload: str, seed: int, records: List[Dict[str, Any]],
            values: Dict[str, float], checks: Optional[List[str]] = None
            ) -> Dict[str, Any]:
    units = catalogue.units()
    checks = list(checks or []) + _record_checks(records)
    fingerprints = {}
    for record in records:
        fingerprints.setdefault(str(record["seed"]), record["fingerprint"])
    return {
        "workload": workload,
        "seed": seed,
        "experiments": len(records),
        "fingerprints": fingerprints,
        "checks": checks,
        "correct": not checks,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def summary_line(result: Dict[str, Any]) -> str:
    """The result line: correct, attempted, failed, metrics."""
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def print_table(result: Dict[str, Any]) -> None:
    """Human-readable report of one run (fingerprints, checks, metrics)."""
    print(f"# {result['workload']}  --seed {result['seed']}  "
          f"experiments {result['experiments']}  "
          f"flows {result['attempted']} failed {result['failed']}")
    for seed, fingerprint in result["fingerprints"].items():
        print(f"fingerprint seed={seed} {json.dumps(fingerprint, sort_keys=True)}")
    for check in result["checks"]:
        print(f"CHECK FAILED: {check}")
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:<16} {name:<40} {metric['value']:>14.6g} "
              f"{metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [name for name, _ in catalogue.WORKLOADS]
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=names)
    target.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result(s) as JSON here")
    args = parser.parse_args(argv)

    measure_one = measure_traced if args.trace else measure
    results = []
    try:
        for workload in (names if args.all else [args.workload]):
            result = measure_one(workload, args.seed, args.seconds)
            print_table(result)
            sys.stdout.flush()
            results.append(result)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return exc.code
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if not args.all:
        print(summary_line(results[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
