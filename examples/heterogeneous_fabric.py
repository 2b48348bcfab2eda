#!/usr/bin/env python3
"""Asymmetry from heterogeneous equipment, not failures (Section 2).

The paper notes that large deployments see asymmetry even without failures
— e.g. switch ports from different vendors negotiating different speeds.
This example degrades one spine-leaf cable to a quarter of its nominal
rate (ECMP still treats it as equal-cost) and compares how the schemes
cope with the resulting *partial* asymmetry, which is subtler than the
evaluation's binary cable failure.

Run:  python examples/heterogeneous_fabric.py
"""

from repro import ExperimentConfig
from repro.chaos import degraded
from repro.harness.experiment import run_experiment
from repro.harness.report import render_bar_chart


def main() -> None:
    print("Heterogeneous fabric: one S2-L2 cable at 25% of nominal rate")
    print("Web-search workload at 60% load, 2 seeds averaged")
    print()
    results = {}
    for scheme in ("ecmp", "edge-flowlet", "clove-ecn", "conga"):
        values = []
        for seed in (1, 2):
            result = run_experiment(
                ExperimentConfig(
                    scheme=scheme, load=0.6, seed=seed,
                    jobs_per_client=150, flow_scale=1 / 40,
                    chaos=degraded("L2", "S2", 0, factor=0.25),
                ),
            )
            values.append(result.avg_fct * 1000)
        results[scheme] = sum(values) / len(values)
    print(render_bar_chart(results, unit=" ms avg FCT"))
    print()
    print("The congestion-aware schemes route around the slow cable;")
    print("static hashing keeps sending it a full quarter of the traffic.")


if __name__ == "__main__":
    main()
