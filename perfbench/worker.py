"""One benchmark experiment in this (fresh) process.

Run by ``run.py``, one process per experiment::

    python3 perfbench/worker.py --workload ecn-asym --seed 7 --trace 0 \
        --spawned <time.monotonic() of the parent just before it started us>

Prints one JSON object on its last stdout line: host timings (``setup_s``,
``run_s``, ``peak_rss_mb``), flow counts, the simulated fingerprint, the
output checks that failed, and with ``--trace 1`` the per-layer metrics of
the traced run.  ``repro`` is imported from ``src/`` of the checkout this
file sits in, and from nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Patcher, Tracer, LAYERS  # noqa: E402

#: where trace mode writes its span arrays (inside the checkout; gitignored)
SPAN_DIR = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def import_repro() -> None:
    """Import ``repro`` from ``<checkout>/src``; raise SetupError otherwise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SetupError(f"repro imported from {location}, not from {src}")
    # Everything the workloads call, imported before any timing or wrapping.
    import repro.chaos.metrics  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.harness.incast  # noqa: F401
    import repro.telemetry.core  # noqa: F401
    import repro.transport.dctcp  # noqa: F401


# ----------------------------------------------------------------------
# The probe: the few hooks every run needs (untraced runs included)
# ----------------------------------------------------------------------
class Probe:
    """Captures the simulator, fabric and hosts, the first ``Simulator.run``
    instant, and per-response completion times of the incast workload.
    Its hooks fire once per run chunk, host, fabric or incast response, so
    they cost nothing measurable."""

    def __init__(self) -> None:
        self.patches = Patcher()
        self.sim = None
        self.net = None
        self.build_s = 0.0
        self.hosts: List[Any] = []
        self.first_run_monotonic: Optional[float] = None
        self.first_run_perf: Optional[float] = None
        self.incast: Any = None
        self.incast_fcts: List[float] = []
        self.incast_started = 0
        self._request_at = 0.0

    def install(self) -> None:
        from repro.hypervisor.host import Host
        from repro.sim.engine import Simulator
        from repro.topology import leafspine
        from repro.workloads.incast import IncastWorkload

        probe = self
        run = Simulator.__dict__["run"]

        def first_run(sim, *args, **kwargs):
            if probe.first_run_perf is None:
                probe.first_run_monotonic = time.monotonic()
                probe.first_run_perf = time.perf_counter()
                probe.sim = sim
            return run(sim, *args, **kwargs)

        self.patches.patch(Simulator, "run", first_run)

        host_init = Host.__dict__["__init__"]

        def capture_host(host, *args, **kwargs):
            host_init(host, *args, **kwargs)
            probe.hosts.append(host)

        self.patches.patch(Host, "__init__", capture_host)

        def capture_net(build: Callable) -> Callable:
            def build_and_capture(*args, **kwargs):
                started = time.perf_counter()
                probe.net = build(*args, **kwargs)
                probe.build_s += time.perf_counter() - started
                return probe.net
            return build_and_capture

        self.patches.patch_function(leafspine, "build_leaf_spine", capture_net)

        issue = IncastWorkload.__dict__["_issue_request"]
        complete = IncastWorkload.__dict__["_on_flow_complete"]

        def issue_request(workload):
            probe.incast = workload
            probe._request_at = workload.sim.now
            issue(workload)
            probe.incast_started += workload._pending

        def flow_complete(workload):
            probe.incast_fcts.append(workload.sim.now - probe._request_at)
            complete(workload)

        self.patches.patch(IncastWorkload, "_issue_request", issue_request)
        self.patches.patch(IncastWorkload, "_on_flow_complete", flow_complete)

    def uninstall(self) -> None:
        self.patches.restore()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _percentile(sorted_values: List[float], q: float) -> float:
    from repro.metrics.collector import percentile

    return percentile(sorted_values, q) if sorted_values else 0.0


def _poisson_outcome(result) -> Dict[str, Any]:
    jobs = result.collector.jobs
    done = [job for job in jobs if job.completion is not None]
    fcts = sorted(job.completion - job.arrival for job in done)
    goodput = 0.0
    if done:
        span = max(job.completion for job in done) - min(job.arrival for job in jobs)
        goodput = sum(job.size for job in done) * 8.0 / span
    return {"started": len(jobs), "completed": len(done), "fcts": fcts,
            "goodput_bps": goodput}


def _experiment(**fields) -> Callable[..., Dict[str, Any]]:
    def run(seed: int, call: Callable, probe: Probe) -> Dict[str, Any]:
        from repro.harness.experiment import ExperimentConfig, run_experiment

        result = call(run_experiment,
                      ExperimentConfig(seed=seed, jobs_per_client=30, **fields))
        return _poisson_outcome(result)
    return run


def _flap_telemetry(seed: int, call: Callable, probe: Probe) -> Dict[str, Any]:
    """Clove-ECN with a flapping fabric cable, health monitor and telemetry
    plus causal tracing on; the reports are then computed both from the
    in-process result and from the exported record stream."""
    from repro.chaos import metrics as reports
    from repro.chaos.plan import flap
    from repro.harness.experiment import ExperimentConfig, run_experiment
    from repro.telemetry import Telemetry
    from repro.telemetry.core import load_jsonl

    telemetry = Telemetry()
    config = ExperimentConfig(
        scheme="clove-ecn", load=0.7, seed=seed, jobs_per_client=30,
        # The 240 flows arrive between 20 and about 24 ms of simulated time;
        # both outages fall inside that window for every seed.
        chaos=flap(start=0.0215, period=0.001, downtime=0.0005, flaps=2),
        health=True, failover_delay_s=0.05,
    )
    result = call(run_experiment, config, telemetry=telemetry)
    outcome = _poisson_outcome(result)

    SPAN_DIR.mkdir(exist_ok=True)
    artifact = SPAN_DIR / f"flap-telemetry-{seed}.jsonl"
    telemetry.export_jsonl(str(artifact))
    dump = load_jsonl(str(artifact))
    artifact.unlink()
    records = dump["events"] + dump["manifests"]
    counters = dump["counters"]

    started = time.perf_counter()
    live = {
        "recovery": reports.recovery_from_result(result),
        "health": reports.health_from_result(result),
        "controlplane": reports.controlplane_from_result(result),
    }
    offline = {
        "recovery": reports.recovery_from_records(records),
        "health": reports.health_from_records(records, counters=counters),
        "controlplane": reports.controlplane_from_records(records,
                                                          counters=counters),
    }
    outcome["report_s"] = time.perf_counter() - started
    checks = []
    for name in live:
        if not _same_report(live[name], offline[name]):
            checks.append(f"{name} report from records != from result: "
                          f"{offline[name]} vs {live[name]}")
    recovery = live["recovery"]
    if recovery is None or recovery.fault_flows <= 0:
        checks.append("fault window does not overlap traffic (fault_flows == 0)")
    outcome["checks"] = checks
    return outcome


def _same_report(a: Any, b: Any) -> bool:
    """Equal reports (both None, or equal ``to_dict()`` by :func:`_same_value`)."""
    if a is None or b is None:
        return a is None and b is None
    return _same_value(a.to_dict(), b.to_dict())


def _same_value(a: Any, b: Any) -> bool:
    """Structural equality where NaN equals NaN and floats may differ in the
    last bits (the offline reports sum the same numbers in another order)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    return a == b


#: requests and bytes per incast run (partition-aggregate, Figure 7 shape)
INCAST_REQUESTS = 8
INCAST_FANOUT = 8


def _incast_mptcp(seed: int, call: Callable, probe: Probe) -> Dict[str, Any]:
    from repro.harness.incast import run_incast

    goodput = call(run_incast, scheme="mptcp", fanout=INCAST_FANOUT, seed=seed,
                   n_requests=INCAST_REQUESTS, total_bytes=2_000_000)
    checks = []
    workload = probe.incast
    if workload is None or workload.requests_completed != INCAST_REQUESTS:
        checks.append("incast did not complete every request")
    return {"started": probe.incast_started,
            "completed": len(probe.incast_fcts),
            "fcts": sorted(probe.incast_fcts),
            "goodput_bps": goodput, "checks": checks}


#: workload name -> body(seed, call, probe), which makes the harness call
#: through ``call`` and returns the flows it started and completed
WORKLOADS: Dict[str, Callable] = {
    "ecn-asym": _experiment(scheme="clove-ecn", load=0.7, asymmetric=True),
    "int-sym": _experiment(scheme="clove-int", load=0.7),
    "incast-mptcp": _incast_mptcp,
    "flap-telemetry": _flap_telemetry,
}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _instances(*class_paths: str) -> Dict[str, List[Any]]:
    """Live instances of each ``module.Class`` (subclasses too), via the GC."""
    import importlib

    wanted = {}
    for path in class_paths:
        module, _, name = path.rpartition(".")
        wanted[getattr(importlib.import_module(module), name)] = path
    found: Dict[str, List[Any]] = {path: [] for path in class_paths}
    for obj in gc.get_objects():
        for cls, path in wanted.items():
            if isinstance(obj, cls):
                found[path].append(obj)
    return found


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, probe: Probe, outcome: Dict[str, Any],
                  packets: int, root_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, keyed by metric name."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    fn = {key: counter[0] for key, counter in tracer.fn_calls.items()}
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls_per_pkt"] = _ratio(calls[layer], packets)

    objs = _instances(
        "repro.net.hashing.EcmpHasher",
        "repro.transport.tcp.TcpSender",
        "repro.transport.tcp.TcpReceiver",
        "repro.core.flowlet.FlowletTable",
        "repro.core.weights.WeightedPathTable",
        "repro.core.discovery.PathDiscovery",
        "repro.telemetry.trace.Tracer",
    )
    net, hosts = probe.net, probe.hosts
    stats = [link.queue.stats for link in net.all_links()]
    vswitches = [host.vswitch for host in hosts]
    senders = objs["repro.transport.tcp.TcpSender"]
    receivers = objs["repro.transport.tcp.TcpReceiver"]
    flowlets = objs["repro.core.flowlet.FlowletTable"]
    records = fn.get("repro.net.dre.DiscountingRateEstimator.record", 0)
    sent_bytes = sum(s.bytes_sent for s in senders)

    metrics.update({
        "sim.events_per_pkt": _ratio(probe.sim.events_processed, packets),
        "sim.cancels_per_pkt": _ratio(fn["repro.sim.engine.Event.cancel"], packets),
        "net.queue.drops": sum(s.dropped for s in stats),
        "net.queue.ce_marks": sum(s.ecn_marked for s in stats),
        "net.queue.mean_delay_us": 1e6 * _ratio(
            sum(s.total_queue_delay for s in stats),
            sum(s.dequeued for s in stats)),
        "net.queue.peak_pkts": max(s.peak_packets for s in stats),
        "net.switch.hops_per_pkt": _ratio(
            sum(sw.rx_packets for sw in net.switches.values()), packets),
        "net.hashing.memo_miss_ratio": _ratio(
            sum(len(h._memo) for h in objs["repro.net.hashing.EcmpHasher"]),
            fn["repro.net.hashing.EcmpHasher.hash_key"]),
        "net.dre.records_per_pkt": _ratio(records, packets),
        "net.dre.reads_per_record": _ratio(
            fn["repro.net.dre.DiscountingRateEstimator.utilization"], records),
        "net.packet.allocs_per_pkt": _ratio(
            fn["repro.net.packet.Packet.__init__"], packets),
        "hypervisor.vswitch.echoes_per_pkt": _ratio(
            sum(v.echoes_sent for v in vswitches), packets),
        "hypervisor.vswitch.echo_apply_ratio": _ratio(
            sum(v.echoes_received for v in vswitches),
            sum(v.echoes_carried for v in vswitches)),
        "core.flowlet.new_ratio": _ratio(
            sum(f.flowlets_created for f in flowlets),
            sum(f.lookups for f in flowlets)),
        "core.weights.reductions": sum(
            w.weight_reductions for w in objs["repro.core.weights.WeightedPathTable"]),
        "core.discovery.probe_share": _ratio(
            sum(d.probes_sent for d in objs["repro.core.discovery.PathDiscovery"]),
            packets),
        "transport.retx_frac": _ratio(
            sent_bytes - sum(s.snd_nxt for s in senders), sent_bytes),
        "transport.rto_count": sum(s.timeouts for s in senders),
        "transport.reorder_frac": _ratio(
            sum(r.ooo_packets for r in receivers),
            sum(r.packets_received for r in receivers)),
        "topology.build_s": probe.build_s,
        "telemetry.records_per_pkt": _ratio(
            fn["repro.telemetry.events.EventLog.emit"]
            + sum(t.recorded for t in objs["repro.telemetry.trace.Tracer"]),
            packets),
        "chaos.report_s": outcome.get("report_s", 0.0),
        "trace.coverage": 1.0 - _ratio(self_s["harness"], root_s),
    })
    return metrics


# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Run one experiment; returns the record ``run.py`` aggregates."""
    probe = Probe()
    tracer = Tracer() if trace else None
    returned: List[float] = []

    def call(harness: Callable, *args, **kwargs):
        """The harness call: traced when asked, timed to its return."""
        if tracer is None:
            value = harness(*args, **kwargs)
            returned.append(time.perf_counter())
            return value
        tracer.install()
        try:
            value = tracer.run_root(harness, *args, **kwargs)
            returned.append(time.perf_counter())
        finally:
            tracer.uninstall()
        return value

    probe.install()
    try:
        outcome = WORKLOADS[workload](seed, call, probe)
    finally:
        probe.uninstall()

    packets = sum(host.tx_nic_packets for host in probe.hosts)
    fcts = outcome["fcts"]
    fingerprint = {
        "nic_packets": packets,
        "events": probe.sim.events_processed,
        "flows": outcome["completed"],
        "fct_p50_us": _percentile(fcts, 50) * 1e6,
        "fct_p95_us": _percentile(fcts, 95) * 1e6,
        "goodput_gbps": outcome["goodput_bps"] / 1e9,
    }
    checks = list(outcome.get("checks", ()))
    failed = outcome["started"] - outcome["completed"]
    if failed:
        checks.append(f"{failed} of {outcome['started']} flows did not complete")
    if packets <= 0 or not fcts:
        checks.append("the run moved no traffic")
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "run_s": returned[0] - probe.first_run_perf,
        "first_run_monotonic": probe.first_run_monotonic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome["started"],
        "failed": failed,
        "checks": checks,
        "fingerprint": fingerprint,
    }
    if tracer is not None:
        root_s = tracer.end[0] - tracer.start[0]
        layers = layer_metrics(tracer, probe, outcome, packets, root_s)
        layers.update({
            "workloads.fct_p50_us": fingerprint["fct_p50_us"],
            "workloads.fct_p95_us": fingerprint["fct_p95_us"],
            "workloads.goodput_gbps": fingerprint["goodput_gbps"],
        })
        record["layers"] = layers
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(str(SPAN_DIR / f"spans-{workload}.bin"))
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, default=None,
                        help="parent's time.monotonic() just before spawning")
    args = parser.parse_args(argv)
    try:
        import_repro()
    except (SetupError, ImportError) as exc:
        print(f"worker: cannot import the program: {exc}", file=sys.stderr)
        return 2
    record = run_one(args.workload, args.seed, bool(args.trace))
    if args.spawned is not None:
        record["setup_s"] = record["first_run_monotonic"] - args.spawned
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
