"""End-to-end experiment assembly.

``run_experiment(ExperimentConfig(...))`` builds the fabric, hosts,
load-balancer policies, path-discovery daemons and workload for one
(scheme, load, seed) point and runs it to completion, returning the
metrics the paper's figures are drawn from.

Supported schemes (the exact comparison sets of Sections 5 and 6):

====================  =========================================================
``ecmp``              static hashing at the edge
``edge-flowlet``      random source port per flowlet
``clove-ecn``         WRR + ECN-driven weights (the headline Clove)
``clove-int``         least-utilized path via INT
``presto``            64KB flowcell spraying, ideal static weights
``mptcp``             guest MPTCP over edge ECMP
``conga``             in-network utilization-aware flowlets (leaf switches)
``letflow``           in-switch flowlets, random choice (extra baseline)
====================  =========================================================
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit import Auditor, AuditReport
from repro.baselines.conga import CongaLeafSwitch, CongaSpineSwitch, configure_conga
from repro.baselines.ecmp import EcmpPolicy
from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import FaultPlan, single_cable
from repro.baselines.letflow import LetFlowSwitch
from repro.baselines.presto import PrestoPolicy
from repro.core.clove import CloveEcnPolicy, CloveIntPolicy, CloveParams, EdgeFlowletPolicy
from repro.core.discovery import DiscoveryConfig, PathDiscovery
from repro.core.health import HealthConfig, PathHealthMonitor
from repro.hypervisor.host import Host
from repro.hypervisor.policy import LoadBalancer, PathTrace
from repro.metrics.collector import MetricsCollector
from repro.net.packet import MTU, ACK_BYTES, ENCAP_BYTES
from repro.runner.job import fingerprint_payload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine
from repro.topology.network import Network
from repro.transport.mptcp import open_mptcp_connection
from repro.transport.tcp import open_connection
from repro.workloads.distributions import flow_size_distribution, validate_workload
from repro.workloads.generator import PoissonWorkload, WorkloadConfig

SCHEMES = (
    "ecmp",
    "edge-flowlet",
    "clove-ecn",
    "clove-int",
    "clove-latency",
    "presto",
    "mptcp",
    "conga",
    "letflow",
)


@dataclass
class ExperimentConfig:
    """One experiment point."""

    scheme: str = "clove-ecn"
    load: float = 0.5
    seed: int = 1
    asymmetric: bool = False          # fail one S2-L2 cable before traffic
    jobs_per_client: int = 30
    #: persistent connections per client, each to an independently chosen
    #: random server (the NS2 setup used three per client).  Six keeps the
    #: ECMP hash-placement variance low enough that the asymmetric
    #: bottleneck is reliably overloaded at high load.
    connections_per_client: int = 6
    #: "permutation" (balanced, low variance) or "random" (paper protocol)
    pairing: str = "permutation"
    #: topology; None = the scaled-down default (8 hosts/leaf)
    topology: Optional[LeafSpineConfig] = None
    #: flow sizes are the web-search CDF times this factor (0.1 keeps the
    #: elephant/mice mix meaningful against the fabric BDP at CI speed)
    flow_scale: float = 0.1
    #: flow-size distribution name (see
    #: :data:`repro.workloads.distributions.WORKLOADS`): "web-search" (the
    #: paper's), "data-mining" or "enterprise"
    workload: str = "web-search"
    #: Clove parameters; gap/expiry default to multiples of the fabric RTT
    flowlet_gap_rtt: float = 1.0
    congestion_expiry_rtt: float = 3.0
    ecn_relay_interval_rtt: float = 0.5
    weight_reduction: float = 1.0 / 3.0
    mptcp_subflows: int = 4
    min_rto: float = 5e-3
    clients_per_leaf: Optional[int] = None   # default: all leaf-1 hosts
    warmup: float = 0.02              # seconds before traffic starts
    max_sim_time: float = 60.0        # hard stop (simulated seconds)
    discovery: Optional[DiscoveryConfig] = None
    #: declarative fault schedule executed by a ChaosEngine; ``asymmetric``
    #: above is sugar for the single-cable plan and composes with this
    chaos: Optional[FaultPlan] = None
    #: run a per-hypervisor PathHealthMonitor (policies that opt in via
    #: ``wants_health``: the Clove variants with a weight table)
    health: bool = False
    #: health tuning; None = RTT-derived defaults
    health_config: Optional[HealthConfig] = None
    #: seconds a dead link lingers in switch ECMP groups before the
    #: (modeled) routing agent repairs them; 0 = idealized instant failover
    failover_delay_s: float = 0.0
    #: runtime invariant auditing (repro.audit): None = off (the fast
    #: engine loop), "strict" raises at the first violation, "report"
    #: accumulates findings into ``ExperimentResult.audit``
    audit: Optional[str] = None

    def fault_plan(self) -> Optional[FaultPlan]:
        """The effective fault plan: ``chaos`` merged with the
        ``asymmetric`` sugar (one L2-S2 cable down from t=0)."""
        plan = self.chaos
        if self.asymmetric:
            asym = single_cable()
            plan = asym if plan is None else plan + asym
        return plan if plan else None


def default_topology() -> LeafSpineConfig:
    """The paper's testbed at half the host count, ratios preserved.

    8 hosts/leaf at 10G against 2 spines x 2 x 20G cables keeps the paper's
    1:1 subscription (hosts can exactly saturate the bisection) while
    halving the number of connections a run must simulate.
    """
    return LeafSpineConfig(
        n_spines=2,
        n_leaves=2,
        cables_per_pair=2,
        hosts_per_leaf=8,
        host_rate_bps=10e9,
        fabric_rate_bps=20e9,   # 8 hosts x 10G / (2 spines x 2 cables) = 20G
        scale=1.0,
    )


def estimate_rtt(topo: LeafSpineConfig, loaded: bool = True) -> float:
    """Data-packet RTT across the fabric (4 hops each way).

    With ``loaded=True`` (the default) the estimate includes one
    ECN-threshold's worth of queueing at a fabric hop — the typical RTT a
    sender measures once the load balancer is regulating queues around the
    marking threshold, which is the RTT the paper's "1x/2x RTT" flowlet-gap
    guidance refers to.
    """
    host_rate = topo.host_rate_bps * topo.scale
    fabric_rate = topo.fabric_rate_bps * topo.scale
    data = MTU + ENCAP_BYTES
    ack = ACK_BYTES + ENCAP_BYTES
    one_way_data = 2 * data * 8 / host_rate + 2 * data * 8 / fabric_rate
    one_way_ack = 2 * ack * 8 / host_rate + 2 * ack * 8 / fabric_rate
    propagation = 2 * (2 * topo.host_delay_s + 2 * topo.fabric_delay_s)
    rtt = one_way_data + one_way_ack + propagation
    if loaded and topo.ecn_threshold_packets:
        rtt += topo.ecn_threshold_packets * data * 8 / fabric_rate
    return rtt


@dataclass
class ExperimentResult:
    """What an experiment run hands back to figures/benchmarks."""

    config: ExperimentConfig
    collector: MetricsCollector
    net: Network
    sim_duration: float
    wall_events: int
    hosts: Dict[str, Host] = field(default_factory=dict)
    #: telemetry scope the run reported through (None when uninstrumented)
    telemetry: Optional[Telemetry] = None
    #: this run's manifest inside the telemetry scope (None when disabled)
    manifest: Optional[Dict[str, object]] = None
    #: the chaos engine that executed the run's fault plan (None when the
    #: run was fault-free); its markers feed repro.chaos.metrics
    chaos: Optional[ChaosEngine] = None
    #: the audit report when the run was audited (config.audit), with
    #: per-invariant pass/fail and the determinism digest; None = unaudited
    audit: Optional["AuditReport"] = None

    @property
    def avg_fct(self) -> float:
        summary = self.collector.summary()
        return summary.mean if summary else float("nan")

    @property
    def p99_fct(self) -> float:
        summary = self.collector.summary()
        return summary.p99 if summary else float("nan")


def ideal_path_weights(net: Network, traces: Sequence[PathTrace]) -> List[float]:
    """Topology-derived path weights (Presto's idealized controller).

    Each path's capacity is the minimum over its links of (link rate /
    number of selected paths sharing that link); weights are proportional
    to those capacities.  Under the paper's asymmetry this yields exactly
    (0.33, 0.33, 0.17, 0.17).
    """
    by_name = {link.name: link for link in net.all_links()}
    sharing: Dict[str, int] = {}
    for trace in traces:
        for link_name in set(trace):
            sharing[link_name] = sharing.get(link_name, 0) + 1
    capacities = []
    for trace in traces:
        cap = float("inf")
        for link_name in trace:
            # Links every path traverses (the host's own access link) scale
            # all capacities equally and must not flatten the ratios.
            if sharing[link_name] == len(traces) and len(traces) > 1:
                continue
            link = by_name.get(link_name)
            if link is None:
                continue
            cap = min(cap, link.rate_bps / sharing[link_name])
        capacities.append(cap if cap != float("inf") else 1.0)
    total = sum(capacities)
    if total <= 0:
        return [1.0 / len(traces)] * len(traces)
    return [cap / total for cap in capacities]


def clove_params(config: ExperimentConfig, rtt: float) -> CloveParams:
    """The edge balancer's parameters: ``config``'s RTT multiples at ``rtt``."""
    return CloveParams(
        flowlet_gap=config.flowlet_gap_rtt * rtt,
        weight_reduction=config.weight_reduction,
        congestion_expiry=config.congestion_expiry_rtt * rtt,
        util_aging=10 * rtt,
    )


def build_scheme_fabric(
    sim: Simulator,
    rng: RngRegistry,
    scheme: str,
    topo: LeafSpineConfig,
    flowlet_gap: float,
) -> Network:
    """Build the leaf-spine fabric with the switches ``scheme`` runs on.

    Clove-INT needs INT-capable switches, CONGA its leaf/spine classes and
    tables, LetFlow its flowlet switches; every other scheme runs on plain
    ECMP switches.  ``flowlet_gap`` is the edge flowlet gap the in-switch
    schemes derive theirs from.
    """
    if scheme == "conga":
        topo = replace(
            topo, leaf_switch_class=CongaLeafSwitch, spine_switch_class=CongaSpineSwitch
        )
    elif scheme == "letflow":
        topo = replace(topo, switch_class=LetFlowSwitch)
    elif scheme == "clove-int":
        topo = replace(topo, int_capable=True)
    net = build_leaf_spine(sim, rng, topo)
    if scheme == "conga":
        # CONGA's own paper tunes a larger flowlet gap than Clove's (its
        # in-switch path changes reorder more aggressively); 3x the edge gap
        # matches its testbed setting relative to RTT.
        configure_conga(net, flowlet_gap=3 * flowlet_gap)
    elif scheme == "letflow":
        for switch in net.switches.values():
            switch.flowlet_gap = flowlet_gap
    return net


def _make_policy(
    config: ExperimentConfig,
    rng: RngRegistry,
    net: Network,
    host_index: int,
    params: CloveParams,
) -> Optional[LoadBalancer]:
    scheme = config.scheme
    seed = rng.stream("policy-seeds").getrandbits(64) ^ host_index
    if scheme in ("ecmp", "mptcp", "conga", "letflow"):
        return EcmpPolicy(hash_seed=seed)
    if scheme == "edge-flowlet":
        return EdgeFlowletPolicy(
            rng.stream(f"edge-flowlet-{host_index}"), params, hash_seed=seed
        )
    if scheme == "clove-ecn":
        return CloveEcnPolicy(params, hash_seed=seed)
    if scheme == "clove-int":
        return CloveIntPolicy(params, hash_seed=seed)
    if scheme == "clove-latency":
        from repro.core.latency import CloveLatencyPolicy
        return CloveLatencyPolicy(params, hash_seed=seed)
    if scheme == "presto":
        # Flowcells scale with the flow-size scale so the flowcells-per-flow
        # ratio matches the paper's 64KB cells against full-size flows.
        from repro.baselines.presto import FLOWCELL_BYTES
        from repro.net.packet import MSS
        flowcell = max(MSS, int(FLOWCELL_BYTES * config.flow_scale))
        return PrestoPolicy(
            flowcell_bytes=flowcell,
            weight_fn=lambda traces: ideal_path_weights(net, traces),
            hash_seed=seed,
        )
    raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")


def run_experiment(
    config: ExperimentConfig,
    on_ready: Optional[Callable[[Simulator, Network, Dict[str, Host]], None]] = None,
    telemetry: Optional[Telemetry] = None,
) -> ExperimentResult:
    """Build and run one experiment point to completion.

    ``on_ready(sim, net, hosts)`` is invoked after everything is assembled
    but before traffic starts — the hook instrumentation (e.g. the
    stability sampler) attaches through.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry` scope) instruments
    every layer of the run: the result carries the scope plus a run manifest
    (config, seed, git rev, wall time), and the scope's registry/event log
    hold fabric counters and structured decision events.  Pass the same
    scope to several runs (a sweep) to accumulate one artifact.
    """
    if config.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {config.scheme!r}")
    # Fail fast on a mistyped workload name, before any fabric is built.
    validate_workload(config.workload)
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    sim = Simulator()
    rng = RngRegistry(config.seed)

    topo = config.topology if config.topology is not None else default_topology()
    rtt = estimate_rtt(topo)
    params = clove_params(config, rtt)
    net = build_scheme_fabric(sim, rng, config.scheme, topo, params.flowlet_gap)
    if config.failover_delay_s > 0.0:
        for switch in net.switches.values():
            switch.failover_delay = config.failover_delay_s

    # ------------------------------------------------------------------
    # Fault injection: the effective plan (config.chaos + the asymmetric
    # sugar) runs through a ChaosEngine.  Events due at t=0 — the paper's
    # failure of one 40G S2-L2 cable — apply right here, before hosts and
    # discovery attach, exactly as the old hard-coded path did; later
    # events are scheduled on the simulator.
    # ------------------------------------------------------------------
    plan = config.fault_plan()
    chaos_engine: Optional[ChaosEngine] = None
    if plan is not None:
        chaos_engine = ChaosEngine(sim, net, plan, telemetry=tel)
        chaos_engine.start()

    # ------------------------------------------------------------------
    # Hosts, policies, discovery
    # ------------------------------------------------------------------
    ecn_relay = config.ecn_relay_interval_rtt * rtt
    discovery_cfg = config.discovery or DiscoveryConfig(
        k_paths=4,
        n_candidate_ports=24,
        max_ttl=5,                        # leaf-spine diameter + margin
        round_timeout=max(20 * rtt, 1e-3),
        probe_interval=1.0,
    )
    health_cfg = config.health_config
    if config.health and health_cfg is None:
        # RTT-derived defaults: cheap enough to keep probe traffic in the
        # noise (<5% engine overhead), fast enough to beat the failover
        # window of any realistically-configured fabric.
        health_cfg = HealthConfig(
            probe_interval=max(250 * rtt, 5e-3),
            probe_timeout=max(40 * rtt, 8e-4),
            probation_window=max(500 * rtt, 10e-3),
            rediscovery_backoff=max(250 * rtt, 5e-3),
            rediscovery_max_backoff=max(4000 * rtt, 80e-3),
        )
    hosts: Dict[str, Host] = {}
    for index, name in enumerate(sorted(net.hosts)):
        policy = _make_policy(config, rng, net, index, params)
        host = Host(
            sim, net, name, policy,
            ecn_relay_interval=ecn_relay,
            reassembly_timeout=max(2 * rtt, 50e-6),
        )
        if policy is not None and policy.needs_discovery():
            def _on_update(dst_ip, ports, traces, _policy=policy):
                _policy.set_paths(dst_ip, ports, traces)
            host.prober = PathDiscovery(
                sim, host, rng.stream(f"discovery-{name}"),
                config=discovery_cfg, on_update=_on_update,
            )
        if config.health and getattr(policy, "wants_health", False):
            host.health = PathHealthMonitor(
                sim, host, rng.stream(f"health-{name}"),
                table=policy.weights, config=health_cfg,
                prober=host.prober,
            )
            host.health.start()
        hosts[name] = host

    if chaos_engine is not None:
        # Control-plane events target hypervisors, which only now exist.
        chaos_engine.attach_hosts(hosts, rng)

    # ------------------------------------------------------------------
    # Workload: leaf-1 hosts are clients, leaf-2 hosts are servers
    # ------------------------------------------------------------------
    clients = [hosts[n] for n in sorted(hosts) if n.startswith("h1_")]
    servers = [hosts[n] for n in sorted(hosts) if n.startswith("h2_")]
    if config.clients_per_leaf is not None:
        clients = clients[: config.clients_per_leaf]
        servers = servers[: config.clients_per_leaf]

    port_counter = [20000]
    pairs: List[Tuple[Host, Host]] = []

    def _tcp_factory(client: Host, server: Host, index: int):
        port_counter[0] += 16
        pairs.append((client, server))
        return open_connection(
            client, server, port_counter[0], 80, min_rto=config.min_rto
        )

    def _mptcp_factory(client: Host, server: Host, index: int):
        port_counter[0] += 16
        pairs.append((client, server))
        return open_mptcp_connection(
            client, server, port_counter[0], 80,
            n_subflows=config.mptcp_subflows, min_rto=config.min_rto,
        )

    factory = _mptcp_factory if config.scheme == "mptcp" else _tcp_factory

    # Bisection under asymmetry: load stays relative to the *baseline*
    # bisection, as in the paper (the failure makes high loads infeasible).
    baseline_bisection = (
        topo.n_spines * topo.cables_per_pair * topo.fabric_rate_bps * topo.scale
    )
    size_dist = flow_size_distribution(config.workload, scale=config.flow_scale)

    collector = MetricsCollector()
    workload = PoissonWorkload(
        sim, rng, clients, servers,
        size_dist,
        baseline_bisection,
        WorkloadConfig(
            load=config.load,
            jobs_per_client=config.jobs_per_client,
            connections_per_client=config.connections_per_client,
            start_time=config.warmup,
            pairing=config.pairing,
        ),
        collector,
        factory,
    )

    # Pre-warm discovery so the port->path mapping exists before traffic
    # (both directions: data forward, ACKs back).
    for client, server in pairs:
        if client.prober is not None:
            client.prober.notice_destination(server.ip)
        if server.prober is not None:
            server.prober.notice_destination(client.ip)

    manifest: Optional[Dict[str, object]] = None
    if tel.enabled:
        if tel.trace.enabled:
            # Scope spans under the config's job fingerprint: the same id
            # the runner assigns, so serial and pooled runs of identical
            # specs land in (and merge into) the same run list.
            tel.trace.begin_run(fingerprint_payload("experiment", config))
        tel.instrument(sim=sim, net=net, hosts=hosts)
        manifest = tel.manifest(
            run="experiment",
            scheme=config.scheme,
            load=config.load,
            seed=config.seed,
            config=asdict(config),
        )
        tel.events.emit(
            "run.start", sim.now,
            scheme=config.scheme, load=config.load, seed=config.seed,
        )
        workload.attach_telemetry(tel)

    # Attach the auditor before any traffic (probes included) can move:
    # every CE mark observable by an echo postdates the hook.  The auditor
    # schedules no events and draws no randomness — an audited run pops the
    # exact event sequence an unaudited run would, so its digest describes
    # the plain run.
    auditor: Optional[Auditor] = None
    if config.audit is not None:
        auditor = Auditor(
            mode=config.audit, telemetry=tel if tel.enabled else None
        )
        auditor.attach(
            sim, net, hosts,
            workload=workload, collector=collector, chaos=chaos_engine,
        )

    if on_ready is not None:
        on_ready(sim, net, hosts)

    wall_start = time.perf_counter()
    workload.start()

    # ------------------------------------------------------------------
    # Run to completion (chunked so we can stop as soon as jobs drain).
    # A wall-clock event budget guards sweeps against pathological runs:
    # an experiment that stops making progress is cut off rather than
    # simulated to the bitter end.
    # ------------------------------------------------------------------
    chunk = max(0.05, 200 * rtt)
    event_budget = 60_000_000
    while not workload.done and sim.now < config.max_sim_time:
        sim.run(until=sim.now + chunk)
        if auditor is not None:
            # Checkpoints ride the chunk boundary (a harness call, not a
            # sim event) so serial and pooled runs checkpoint identically.
            auditor.checkpoint()
        if sim.peek_time() is None:
            break
        if sim.events_processed > event_budget:
            break

    if chaos_engine is not None:
        chaos_engine.finish()

    audit_report: Optional[AuditReport] = None
    if auditor is not None:
        audit_report = auditor.finalize(drained=sim.peek_time() is None)

    if tel.enabled:
        tel.observe_network(net)
        tel.observe_hosts(hosts)
        tel.observe_collector(collector)
        if chaos_engine is not None:
            # Per-flow completions make the run's recovery metrics
            # recomputable offline from the event log alone.
            for job in collector.jobs:
                if job.completion is not None:
                    tel.events.emit("flow.completed", job.completion,
                                    size=job.size, arrival=job.arrival)
        if manifest is not None:
            manifest["wall_s"] = time.perf_counter() - wall_start
            manifest["sim_duration"] = sim.now
            manifest["sim_events"] = sim.events_processed
            if auditor is not None:
                manifest["audit"] = auditor.manifest_fields()
        if tel.trace.enabled:
            tel.trace.finish_run(sim.now)

    return ExperimentResult(
        config=config,
        collector=collector,
        net=net,
        sim_duration=sim.now,
        wall_events=sim.events_processed,
        hosts=hosts,
        telemetry=tel if tel.enabled else None,
        manifest=manifest,
        chaos=chaos_engine,
        audit=audit_report,
    )
