"""What the benchmark measures: workloads and metrics, with units.

``BENCHMARK.json`` at the repository root is this catalogue written out
(``python3 perfbench/catalogue.py > BENCHMARK.json``); a test keeps the two
equal.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from tracer import LAYERS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: seconds one run measures (the default of run.py --seconds)
RUN_SECONDS = 30

#: experiments per seed panel: a run derives this many workload seeds from
#: its --seed and runs each in a fresh process (see run.py)
PANEL = 6

#: (name, why) — see README.md for the longer rationale
WORKLOADS: List[Tuple[str, str]] = [
    ("ecn-asym",
     "Clove-ECN, web-search at load 0.7, one L2-S2 cable down (Fig 4b/8b): "
     "most core work (echo-driven weight cuts, flowlets, WRR, discovery)"),
    ("int-sym",
     "Clove-INT, web-search at load 0.7, symmetric: the only workload that "
     "reads the DRE, and the vswitch carries an echo on most packets"),
    ("incast-mptcp",
     "partition-aggregate fan-in of 8 x 2 MB requests over guest MPTCP and "
     "edge ECMP (Fig 7): most transport work, core bypassed"),
    ("flap-telemetry",
     "Clove-ECN with a cable flapping in the traffic window, health monitor, "
     "telemetry and causal tracing on, reports recomputed from the records"),
]

#: (name, unit, better, bound); host-time metrics of the untraced runs
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("pkts_per_s", "pkt/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: per-layer metrics beyond each layer's self_s and calls_per_pkt:
#: (name, unit, better)
_EXTRA: List[Tuple[str, str, str]] = [
    ("sim.events_per_pkt", "events/pkt", "lower"),
    ("sim.cancels_per_pkt", "cancels/pkt", "lower"),
    ("net.queue.drops", "count", "lower"),
    ("net.queue.ce_marks", "count", "lower"),
    ("net.queue.mean_delay_us", "us", "lower"),
    ("net.queue.peak_pkts", "pkts", "lower"),
    ("net.switch.hops_per_pkt", "hops/pkt", "lower"),
    ("net.hashing.memo_miss_ratio", "ratio", "lower"),
    ("net.dre.records_per_pkt", "records/pkt", "lower"),
    ("net.dre.reads_per_record", "ratio", "higher"),
    ("net.packet.allocs_per_pkt", "allocs/pkt", "lower"),
    ("hypervisor.vswitch.echoes_per_pkt", "echoes/pkt", "lower"),
    ("hypervisor.vswitch.echo_apply_ratio", "ratio", "higher"),
    ("core.flowlet.new_ratio", "ratio", "lower"),
    ("core.weights.reductions", "count", "lower"),
    ("core.discovery.probe_share", "ratio", "lower"),
    ("transport.retx_frac", "ratio", "lower"),
    ("transport.rto_count", "count", "lower"),
    ("transport.reorder_frac", "ratio", "lower"),
    ("topology.build_s", "s", "lower"),
    ("telemetry.records_per_pkt", "records/pkt", "lower"),
    ("chaos.report_s", "s", "lower"),
    ("workloads.fct_p50_us", "us", "lower"),
    ("workloads.fct_p95_us", "us", "lower"),
    ("workloads.goodput_gbps", "Gb/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

#: per-layer metrics measured as host time; every other per-layer metric is
#: a simulated quantity or a count and repeats exactly for a given seed
TIMED = frozenset(
    [f"{layer}.self_s" for layer in LAYERS]
    + ["topology.build_s", "chaos.report_s", "trace.overhead", "trace.coverage"]
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    metrics: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.calls_per_pkt", "calls/pkt", "lower"))
    return metrics + _EXTRA


def units() -> Dict[str, str]:
    """Metric name -> unit, end-to-end and per-layer."""
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
