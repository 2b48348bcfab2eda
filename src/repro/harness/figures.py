"""Per-figure reproduction drivers.

One function per table/figure of the paper's evaluation (Sections 5 and 6).
Each returns the figure's data series and can render the text table the
benchmarks print.  Quality knobs (loads, seeds, jobs per client) default to
CI-speed settings; pass larger values to approach the paper's statistics.

Every grid-shaped figure (4b-8b) is one :func:`~repro.harness.sweep.run_grid`
call: it accepts ``runner=RunnerConfig(...)``, so a figure regenerates on
parallel workers and resumes from a result cache.  ``fig9`` is the
exception: it needs each run's full FCT distribution, which the scalar
cache payload does not carry, so it stays in-process.

The experiment index in DESIGN.md maps each function to its paper figure;
EXPERIMENTS.md records paper-vs-measured values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import FaultPlan
from repro.harness.experiment import (
    ExperimentConfig,
    default_topology,
    run_experiment,
)
from repro.harness.metrics import ELEPHANT_CUTOFF_BYTES, MICE_CUTOFF_BYTES
from repro.harness.report import Series
from repro.harness.sweep import run_grid, sweep_loads
from repro.runner import JobSpec, RunnerConfig

#: schemes of the testbed comparison (Figures 4-6)
TESTBED_SCHEMES = ("ecmp", "edge-flowlet", "clove-ecn", "mptcp", "presto")
#: schemes of the NS2 comparison (Figures 8-9)
SIM_SCHEMES = ("ecmp", "edge-flowlet", "clove-ecn", "clove-int", "conga")

__all__ = [
    "TESTBED_SCHEMES",
    "SIM_SCHEMES",
    "MICE_CUTOFF_BYTES",
    "ELEPHANT_CUTOFF_BYTES",
    "FigureQuality",
    "fig4b",
    "fig4c",
    "fig5_all",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig9",
    "capture_ratios",
    "fig9_percentiles",
]


@dataclass
class FigureQuality:
    """How much statistical effort to spend on a figure."""

    loads: Sequence[float] = (0.3, 0.5, 0.7, 0.8)
    seeds: Sequence[int] = (1, 2)
    jobs_per_client: int = 60
    #: optional fault plan injected into every run of the figure (composes
    #: with the figure's own asymmetry; see repro.chaos)
    chaos: Optional["FaultPlan"] = None

    def base(self, **overrides) -> ExperimentConfig:
        """An ExperimentConfig carrying this quality's job count."""
        overrides.setdefault("chaos", self.chaos)
        return ExperimentConfig(jobs_per_client=self.jobs_per_client, **overrides)


# ----------------------------------------------------------------------
# Figure 4b / 4c — testbed average FCT vs load
# ----------------------------------------------------------------------
def fig4b(
    quality: Optional[FigureQuality] = None,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Symmetric topology, average FCT vs network load (testbed schemes)."""
    q = quality or FigureQuality()
    return sweep_loads(
        q.base(asymmetric=False), TESTBED_SCHEMES, q.loads, q.seeds, runner=runner
    )


def fig4c(
    quality: Optional[FigureQuality] = None,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Asymmetric topology (one S2-L2 cable down), average FCT vs load."""
    q = quality or FigureQuality()
    return sweep_loads(
        q.base(asymmetric=True), TESTBED_SCHEMES, q.loads, q.seeds, runner=runner
    )


# ----------------------------------------------------------------------
# Figure 5 — FCT breakdown under asymmetry
# ----------------------------------------------------------------------
#: Figure 5 panel -> the payload key it plots
_BUCKET_KEYS = {
    "mice": "mice_avg_fct",
    "elephants": "elephant_avg_fct",
    "p99": "p99_fct",
}


def fig5_all(
    quality: Optional[FigureQuality] = None,
    runner: Optional[RunnerConfig] = None,
) -> Dict[str, Series]:
    """FCT breakdown on the asymmetric testbed, all three panels from one
    grid: "mice" (Fig 5a, <100KB flows), "elephants" (Fig 5b, >10MB flows)
    and "p99" (Fig 5c, 99th-percentile FCT).  Each run's payload carries
    every bucket's statistics, so one grid serves all three panels."""
    q = quality or FigureQuality()
    grid = run_grid(
        lambda scheme, load, seed: JobSpec.experiment(
            q.base(scheme=scheme, asymmetric=True, load=load, seed=seed)
        ),
        TESTBED_SCHEMES, q.loads, q.seeds, list(_BUCKET_KEYS.values()),
        runner=runner,
    )
    return {kind: grid[key] for kind, key in _BUCKET_KEYS.items()}


# ----------------------------------------------------------------------
# Figure 6 — Clove-ECN parameter sensitivity
# ----------------------------------------------------------------------
def fig6(
    quality: Optional[FigureQuality] = None,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Clove-ECN under (flowlet-gap, ECN-threshold) variations, asymmetric.

    The paper's four settings: best (1xRTT, 20 pkts), low gap (0.2xRTT),
    high gap (5xRTT), high threshold (40 pkts).
    """
    q = quality or FigureQuality()
    variants = {
        "clove-best(1RTT,20p)": (1.0, 20),
        "clove(0.2RTT,20p)": (0.2, 20),
        "clove(5RTT,20p)": (5.0, 20),
        "clove(1RTT,40p)": (1.0, 40),
    }
    topo = default_topology()

    def job(label: str, load: float, seed: int) -> JobSpec:
        gap_rtt, threshold = variants[label]
        return JobSpec.experiment(
            q.base(
                scheme="clove-ecn",
                asymmetric=True,
                load=load,
                seed=seed,
                flowlet_gap_rtt=gap_rtt,
                topology=replace(topo, ecn_threshold_packets=threshold),
            ),
            label=f"{label} load={load:g} seed={seed}",
        )

    return run_grid(
        job, list(variants), q.loads, q.seeds, ["avg_fct"], runner=runner
    )["avg_fct"]


# ----------------------------------------------------------------------
# Figure 7 — incast throughput vs request fan-in
# ----------------------------------------------------------------------
def fig7(
    fanouts: Sequence[int] = (1, 3, 5, 7),
    seeds: Sequence[int] = (1,),
    n_requests: int = 20,
    total_bytes: int = 1_000_000,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Client goodput under partition-aggregate incast (Section 5.3).

    The paper requests 10MB split over ``n`` servers per round; the default
    here scales the request to 1MB for CI speed (same fan-in dynamics).
    """
    return run_grid(
        lambda scheme, fanout, seed: JobSpec.incast(
            scheme=scheme, fanout=int(fanout), seed=seed,
            n_requests=n_requests, total_bytes=total_bytes,
        ),
        ("clove-ecn", "edge-flowlet", "mptcp"),
        [float(fanout) for fanout in fanouts], seeds, ["goodput_bps"],
        runner=runner,
    )["goodput_bps"]


# ----------------------------------------------------------------------
# Figure 8 — NS2-style simulation comparison (adds Clove-INT and CONGA)
# ----------------------------------------------------------------------
def fig8a(
    quality: Optional[FigureQuality] = None,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Simulation, symmetric: ECMP/Edge-Flowlet/Clove-ECN/Clove-INT/CONGA."""
    q = quality or FigureQuality()
    return sweep_loads(
        q.base(asymmetric=False), SIM_SCHEMES, q.loads, q.seeds, runner=runner
    )


def fig8b(
    quality: Optional[FigureQuality] = None,
    runner: Optional[RunnerConfig] = None,
) -> Series:
    """Simulation, asymmetric: the paper's 80%-capture headline figure."""
    q = quality or FigureQuality()
    return sweep_loads(
        q.base(asymmetric=True), SIM_SCHEMES, q.loads, q.seeds, runner=runner
    )


def capture_ratios(series: Series, load: float) -> Dict[str, float]:
    """Fraction of the ECMP->CONGA FCT gain each scheme captures at ``load``.

    The paper's headline: Edge-Flowlet ~40%, Clove-ECN ~80%, Clove-INT ~95%.
    """
    def value(scheme: str) -> float:
        for l, v in series[scheme]:
            if abs(l - load) < 1e-9:
                return v
        raise KeyError(f"load {load} not in series for {scheme}")

    ecmp = value("ecmp")
    conga = value("conga")
    gain = ecmp - conga
    if gain <= 0:
        return {s: float("nan") for s in series if s not in ("ecmp", "conga")}
    return {
        scheme: (ecmp - value(scheme)) / gain
        for scheme in series
        if scheme not in ("ecmp", "conga")
    }


# ----------------------------------------------------------------------
# Figure 9 — CDF of mice FCTs at 70% load, asymmetric
# ----------------------------------------------------------------------
def fig9(
    load: float = 0.7,
    seed: int = 1,
    jobs_per_client: int = 60,
    schemes: Sequence[str] = ("ecmp", "clove-ecn", "conga"),
    chaos: Optional[FaultPlan] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """CDFs of mice-flow completion times on the asymmetric topology.

    Runs in-process: a CDF needs every completed flow's FCT, which the
    runner's scalar cache payload deliberately does not carry.  ``chaos``
    injects an extra fault plan on top of the figure's static asymmetry.
    """
    cdfs = {}
    for scheme in schemes:
        result = run_experiment(
            ExperimentConfig(
                scheme=scheme, load=load, seed=seed,
                asymmetric=True, jobs_per_client=jobs_per_client,
                chaos=chaos,
            )
        )
        cutoff = int(MICE_CUTOFF_BYTES * result.config.flow_scale)
        cdfs[scheme] = result.collector.cdf(max_size=cutoff, points=50)
    return cdfs


def fig9_percentiles(
    cdfs: Dict[str, List[Tuple[float, float]]], q: float = 0.99
) -> Dict[str, float]:
    """Extract a percentile from each scheme's CDF (as the paper quotes)."""
    out = {}
    for scheme, points in cdfs.items():
        value = points[-1][0]
        for fct, frac in points:
            if frac >= q:
                value = fct
                break
        out[scheme] = value
    return out
