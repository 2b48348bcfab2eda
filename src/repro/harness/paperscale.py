"""Paper-scale experiment presets.

The defaults in :mod:`repro.harness.experiment` are CI-speed: half the host
count, scaled flow sizes and hundreds (not tens of thousands) of jobs.
This module exposes the knobs for runs that approach the paper's actual
setup, for users willing to spend hours of wall time:

* :func:`paper_topology` — the full 32-server testbed: 16 x 10G hosts per
  leaf, 2 spines x 2 x 40G cables, 160G bisection;
* :func:`paper_config` — unscaled web-search flows and the paper's job
  counts/loads.

A whole paper-scale grid is :func:`~repro.harness.sweep.sweep_loads` over a
:func:`paper_config` base.  Points are hours each, so always pass a runner
with parallel workers and a result cache: every completed point is banked
the moment it finishes, and an interrupted multi-day sweep continues
instead of restarting::

    series = sweep_loads(
        paper_config("ecmp", 0.5, asymmetric=True),
        ("ecmp", "clove-ecn"), (0.5, 0.7), seeds=(1, 2, 3),
        runner=RunnerConfig(jobs=8, cache_dir="paper-cache", progress=True),
    )

A fully faithful point (one scheme, one load, 50K jobs/connection) is on
the order of 10^9 simulated packets — run those selectively.
"""

from __future__ import annotations

from repro.harness.experiment import ExperimentConfig
from repro.topology.leafspine import LeafSpineConfig


def paper_topology() -> LeafSpineConfig:
    """The testbed of Section 5, full size."""
    return LeafSpineConfig(
        n_spines=2,
        n_leaves=2,
        cables_per_pair=2,
        hosts_per_leaf=16,
        host_rate_bps=10e9,
        fabric_rate_bps=40e9,
        scale=1.0,
    )


def paper_config(
    scheme: str,
    load: float,
    seed: int = 1,
    asymmetric: bool = False,
    jobs_per_client: int = 2000,
    flow_scale: float = 1.0,
) -> ExperimentConfig:
    """An experiment point at (close to) paper scale.

    ``jobs_per_client`` defaults to 2000 rather than the paper's 50000 —
    raise it if you have the patience; the FCT separation only grows with
    the horizon.
    """
    return ExperimentConfig(
        scheme=scheme,
        load=load,
        seed=seed,
        asymmetric=asymmetric,
        topology=paper_topology(),
        jobs_per_client=jobs_per_client,
        flow_scale=flow_scale,
        connections_per_client=1,       # the testbed's persistent connection
        pairing="random",               # the paper's server choice
    )


def estimated_packets(config: ExperimentConfig) -> float:
    """Rough packet count for a config — sanity-check before launching."""
    from repro.net.packet import MTU
    from repro.workloads.distributions import web_search_distribution

    topo = config.topology if config.topology is not None else None
    hosts_per_leaf = topo.hosts_per_leaf if topo else 8
    mean = web_search_distribution(config.flow_scale).analytic_mean()
    jobs = config.jobs_per_client * hosts_per_leaf
    data_packets = jobs * mean / MTU
    return data_packets * 2.2   # ACKs + retransmissions + probes