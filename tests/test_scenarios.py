"""Tests for asymmetry scenarios injected as repro.chaos fault plans."""

import pytest

from repro.chaos import (
    ChaosEngine,
    degraded,
    flap,
    multi_failure_plan,
    single_cable,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.topology.leafspine import LeafSpineConfig, build_leaf_spine


def _net():
    sim = Simulator()
    net = build_leaf_spine(sim, RngRegistry(1), LeafSpineConfig(hosts_per_leaf=2))
    return sim, net


def _inject(sim, net, plan) -> ChaosEngine:
    engine = ChaosEngine(sim, net, plan)
    engine.start()
    return engine


class TestScenarios:
    def test_fail_spine_cable_drops_bisection(self):
        sim, net = _net()
        before = net.bisection_bandwidth_bps()
        _inject(sim, net, single_cable("L2", "S2", 0))
        assert net.bisection_bandwidth_bps() == pytest.approx(before * 0.75)

    def test_degrade_cable_halves_rate(self):
        sim, net = _net()
        _inject(sim, net, degraded("L2", "S2", 0, factor=0.5))
        link = net.links[("L2", "S2")][0]
        assert link.rate_bps == pytest.approx(20e9)
        reverse = net.links[("S2", "L2")][0]
        assert reverse.rate_bps == pytest.approx(20e9)

    def test_degrade_invalid_factor(self):
        with pytest.raises(ValueError):
            degraded("L2", "S2", 0, factor=0.0)

    def test_flapping_schedule(self):
        sim, net = _net()
        _inject(sim, net, flap("L2", "S2", 0, period=0.2, downtime=0.05,
                               flaps=3, start=0.1))
        states = []
        for t in (0.12, 0.18, 0.32, 0.38, 0.52, 0.58):
            sim.run(until=t)
            states.append(net.links[("L2", "S2")][0].up)
        assert states == [False, True, False, True, False, True]

    def test_flapping_invalid_downtime(self):
        with pytest.raises(ValueError):
            flap("L2", "S2", 0, period=0.1, downtime=0.2)

    def test_multi_failure(self):
        sim, net = _net()
        _inject(sim, net, multi_failure_plan([("L2", "S2", 0), ("L2", "S2", 1)]))
        assert not net.links[("S2", "L2")][0].up
        assert not net.links[("S2", "L2")][1].up
        # S2 is now fully cut off from L2; S1 still has both cables.
        assert net.bisection_bandwidth_bps() == pytest.approx(2 * 40e9)


class TestScenarioTrafficIntegration:
    def test_clove_survives_degraded_cable(self):
        from repro import ExperimentConfig
        from repro.harness.experiment import run_experiment

        result = run_experiment(
            ExperimentConfig(scheme="clove-ecn", load=0.5, seed=3,
                             jobs_per_client=6, clients_per_leaf=3,
                             connections_per_client=1,
                             chaos=degraded("L2", "S2", 0, factor=0.25)),
        )
        assert result.collector.completion_rate == 1.0

    def test_clove_survives_flapping(self):
        from repro import ExperimentConfig
        from repro.harness.experiment import run_experiment

        result = run_experiment(
            ExperimentConfig(scheme="clove-ecn", load=0.4, seed=3,
                             jobs_per_client=8, clients_per_leaf=3,
                             connections_per_client=1,
                             chaos=flap("L2", "S2", 0, period=0.01,
                                        downtime=0.004, flaps=3, start=0.025)),
        )
        assert result.collector.completion_rate == 1.0
