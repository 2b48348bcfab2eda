"""Compare two saved benchmark results (``run.py --out FILE``).

    python3 perfbench/run.py --all --seed 1001 --out base.json   # parent commit
    python3 perfbench/run.py --all --seed 1001 --out change.json # the change
    python3 perfbench/compare.py base.json change.json

Both files must come from the same command line (same seed, seconds and
trace setting).  Host-time metrics are printed with their relative change
and, for end-to-end metrics, the benchmark's bound.  Simulated quantities
and counts (the fingerprints and every per-layer metric that is not a host
time) repeat exactly for a seed, so they are compared exactly: any
difference is listed as a finding, never as noise.  Exits 1 when an exact
quantity changed or an end-to-end metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalogue  # noqa: E402


def _by_workload(path: str) -> Dict[str, dict]:
    return {result["workload"]: result
            for result in json.loads(Path(path).read_text())}


def compare(base: Dict[str, dict], change: Dict[str, dict]) -> List[str]:
    """Print the comparison; return the findings that fail it."""
    bounds = {name: (better, bound)
              for name, _, better, bound in catalogue.END_TO_END}
    findings: List[str] = []
    for workload in base:
        if workload not in change:
            findings.append(f"{workload}: missing from the second file")
            continue
        old, new = base[workload], change[workload]
        if old["fingerprints"] != new["fingerprints"]:
            findings.append(f"{workload}: simulated fingerprint changed: "
                            f"{old['fingerprints']} -> {new['fingerprints']}")
        for name, metric in old["metrics"].items():
            a = metric["value"]
            b = new["metrics"][name]["value"]
            if name in bounds:
                better, bound = bounds[name]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                verdict = "WORSE" if worse > bound else "ok"
                print(f"{workload:<16} {name:<40} {a:>12.6g} {b:>12.6g} "
                      f"{(b - a) / a:+8.1%}  bound {bound:.0%} {verdict}")
                if worse > bound:
                    findings.append(f"{workload}: {name} worse by {worse:.1%}")
            elif name in catalogue.TIMED:
                change_pct = (b - a) / a if a else 0.0
                print(f"{workload:<16} {name:<40} {a:>12.6g} {b:>12.6g} "
                      f"{change_pct:+8.1%}")
            elif a != b:
                print(f"{workload:<16} {name:<40} {a:>12.6g} {b:>12.6g} CHANGED")
                findings.append(f"{workload}: {name} {a!r} -> {b!r}")
    return findings


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    findings = compare(_by_workload(argv[0]), _by_workload(argv[1]))
    for finding in findings:
        print(f"FINDING: {finding}")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
