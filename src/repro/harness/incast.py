"""Incast experiment assembly (Figure 7 / Section 5.3)."""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.discovery import DiscoveryConfig, PathDiscovery
from repro.harness.experiment import (
    ExperimentConfig,
    _make_policy,
    build_scheme_fabric,
    clove_params,
    default_topology,
    estimate_rtt,
)
from repro.hypervisor.host import Host
from repro.runner.job import fingerprint_payload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import NULL_TELEMETRY, Telemetry
# Unused here since build_scheme_fabric builds the fabric, but kept
# importable from this module: perfbench/test_perfbench.py snapshots it.
from repro.topology.leafspine import build_leaf_spine  # noqa: F401
from repro.transport.mptcp import open_mptcp_connection
from repro.transport.tcp import open_connection
from repro.workloads.incast import IncastConfig, IncastWorkload


def run_incast(
    scheme: str = "clove-ecn",
    fanout: int = 8,
    seed: int = 1,
    n_requests: int = 20,
    total_bytes: int = 1_000_000,
    mptcp_subflows: int = 4,
    min_rto: float = 5e-3,
    telemetry: Optional[Telemetry] = None,
    stats_out: Optional[Dict[str, float]] = None,
) -> float:
    """Run the partition-aggregate workload; returns client goodput (bps).

    One client on leaf 1 requests ``total_bytes`` split over ``fanout``
    servers on leaf 2, repeatedly; all servers respond simultaneously,
    stressing the client's access link exactly as in the paper's incast
    experiment.  A ``telemetry`` scope, when given, instruments the run the
    same way :func:`~repro.harness.experiment.run_experiment` does.

    ``stats_out``, when given, is filled with the run's raw throughput
    counters (``packets`` = NIC-injected, ``events``, ``sim_s``) for the
    benchmark tier.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    sim = Simulator()
    rng = RngRegistry(seed)
    topo = default_topology()
    rtt = estimate_rtt(topo)
    config = ExperimentConfig(scheme=scheme, seed=seed, mptcp_subflows=mptcp_subflows)
    params = clove_params(config, rtt)
    net = build_scheme_fabric(sim, rng, scheme, topo, params.flowlet_gap)
    discovery_cfg = DiscoveryConfig(
        k_paths=4, n_candidate_ports=24, max_ttl=5,
        round_timeout=max(20 * rtt, 1e-3), probe_interval=1.0,
    )
    hosts: Dict[str, Host] = {}
    for index, name in enumerate(sorted(net.hosts)):
        policy = _make_policy(config, rng, net, index, params)
        host = Host(
            sim, net, name, policy,
            ecn_relay_interval=config.ecn_relay_interval_rtt * rtt,
            reassembly_timeout=max(2 * rtt, 50e-6),
        )
        if policy is not None and policy.needs_discovery():
            def _on_update(dst_ip, ports, traces, _policy=policy):
                _policy.set_paths(dst_ip, ports, traces)
            host.prober = PathDiscovery(
                sim, host, rng.stream(f"discovery-{name}"),
                config=discovery_cfg, on_update=_on_update,
            )
        hosts[name] = host

    client = hosts["h1_0"]
    servers = [hosts[n] for n in sorted(hosts) if n.startswith("h2_")]

    port_counter = [30000]

    def factory(server: Host, dst_client: Host, index: int):
        port_counter[0] += 16
        if scheme == "mptcp":
            return open_mptcp_connection(
                server, dst_client, port_counter[0], 80,
                n_subflows=mptcp_subflows, min_rto=min_rto,
            )
        return open_connection(server, dst_client, port_counter[0], 80, min_rto=min_rto)

    # Pre-warm discovery both directions for every server.
    for server in servers:
        if server.prober is not None:
            server.prober.notice_destination(client.ip)
        if client.prober is not None:
            client.prober.notice_destination(server.ip)

    manifest = None
    if tel.enabled:
        if tel.trace.enabled:
            tel.trace.begin_run(fingerprint_payload("incast", dict(
                scheme=scheme, fanout=fanout, seed=seed,
                n_requests=n_requests, total_bytes=total_bytes,
                mptcp_subflows=mptcp_subflows, min_rto=min_rto,
            )))
        tel.instrument(sim=sim, net=net, hosts=hosts)
        manifest = tel.manifest(
            run="incast", scheme=scheme, seed=seed, fanout=fanout,
            n_requests=n_requests, total_bytes=total_bytes,
        )
        tel.events.emit("run.start", sim.now, scheme=scheme, fanout=fanout,
                        seed=seed)

    workload = IncastWorkload(
        sim, rng, client, servers,
        IncastConfig(
            total_bytes=total_bytes,
            fanout=fanout,
            n_requests=n_requests,
            start_time=0.02,
        ),
        factory,
    )
    finished = []
    wall_start = time.perf_counter()
    workload.start(lambda: finished.append(sim.now))
    # Run until all requests complete (bounded safety horizon).
    while not finished and sim.now < 120.0:
        sim.run(until=sim.now + 0.1)
        if sim.peek_time() is None:
            break
    goodput = workload.goodput_bps()
    if stats_out is not None:
        stats_out["packets"] = sum(h.tx_nic_packets for h in hosts.values())
        stats_out["events"] = sim.events_processed
        stats_out["sim_s"] = sim.now
    if tel.enabled:
        tel.observe_network(net)
        tel.observe_hosts(hosts)
        if manifest is not None:
            manifest["wall_s"] = time.perf_counter() - wall_start
            manifest["sim_duration"] = sim.now
            manifest["sim_events"] = sim.events_processed
            manifest["goodput_bps"] = goodput
        if tel.trace.enabled:
            tel.trace.finish_run(sim.now)
    return goodput
