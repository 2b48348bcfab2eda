"""Integration tests for the experiment harness (small, fast configs)."""

import math

import pytest

from repro.harness.experiment import (
    ExperimentConfig,
    SCHEMES,
    default_topology,
    estimate_rtt,
    ideal_path_weights,
    run_experiment,
)
from repro.harness.report import render_table
from repro.harness.sweep import average_over_seeds, sweep_loads


def _quick(scheme="ecmp", **overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=scheme,
        load=0.4,
        jobs_per_client=6,
        clients_per_leaf=3,
        connections_per_client=1,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_completes_all_jobs(self, scheme):
        result = run_experiment(_quick(scheme))
        assert result.collector.completion_rate == 1.0
        assert result.avg_fct > 0

    @pytest.mark.parametrize("scheme", ["ecmp", "clove-ecn", "conga"])
    def test_asymmetric_variant_completes(self, scheme):
        result = run_experiment(_quick(scheme, asymmetric=True))
        assert result.collector.completion_rate == 1.0

    def test_same_seed_same_workload_across_schemes(self):
        a = run_experiment(_quick("ecmp"))
        b = run_experiment(_quick("clove-ecn"))
        sizes_a = [j.size for j in a.collector.jobs]
        sizes_b = [j.size for j in b.collector.jobs]
        assert sizes_a == sizes_b
        arrivals_a = [j.arrival for j in a.collector.jobs]
        arrivals_b = [j.arrival for j in b.collector.jobs]
        assert arrivals_a == pytest.approx(arrivals_b)

    def test_same_config_is_deterministic(self):
        a = run_experiment(_quick("clove-ecn"))
        b = run_experiment(_quick("clove-ecn"))
        assert a.avg_fct == pytest.approx(b.avg_fct)
        assert a.wall_events == b.wall_events

    def test_different_seeds_differ(self):
        a = run_experiment(_quick("ecmp", seed=1))
        b = run_experiment(_quick("ecmp", seed=2))
        assert a.avg_fct != b.avg_fct

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(_quick("bogus"))

    @pytest.mark.parametrize("workload", ["data-mining", "enterprise"])
    def test_alternative_workloads(self, workload):
        result = run_experiment(_quick("clove-ecn", workload=workload,
                                       flow_scale=1 / 40))
        assert result.collector.completion_rate == 1.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(_quick("ecmp", workload="bogus"))

    def test_asymmetric_fails_the_cable(self):
        result = run_experiment(_quick(asymmetric=True))
        assert not result.net.links[("S2", "L2")][0].up
        assert result.net.links[("S2", "L2")][1].up

    def test_discovery_ran_for_clove(self):
        result = run_experiment(_quick("clove-ecn"))
        probers = [h.prober for h in result.hosts.values() if h.prober is not None]
        assert probers
        assert any(p.rounds_completed > 0 for p in probers)

    def test_no_discovery_for_ecmp(self):
        result = run_experiment(_quick("ecmp"))
        assert all(h.prober is None for h in result.hosts.values())


def _tracked(net):
    """Names of the links carrying a rate estimator."""
    return {link.name for link in net.all_links() if link.dre is not None}


def _switch_egress(net):
    """Names of every link leaving a switch."""
    return {
        link.name
        for (src, _dst), group in net.links.items()
        if src in net.switches
        for link in group
    }


class TestUtilizationTracking:
    """A DRE sits on exactly the links something reads."""

    @pytest.mark.parametrize("scheme", ["ecmp", "clove-ecn", "mptcp"])
    def test_no_reader_no_estimator(self, scheme):
        result = run_experiment(_quick(scheme, jobs_per_client=2))
        assert _tracked(result.net) == set()

    @pytest.mark.parametrize("scheme", ["clove-int", "conga"])
    def test_in_network_readers_track_switch_egress(self, scheme):
        result = run_experiment(_quick(scheme, jobs_per_client=2))
        egress = _switch_egress(result.net)
        assert egress and _tracked(result.net) == egress

    def test_telemetry_tracks_every_link(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        result = run_experiment(_quick("clove-ecn", jobs_per_client=2),
                                telemetry=telemetry)
        net = result.net
        assert _tracked(net) == {link.name for link in net.all_links()}
        gauges = [
            name for name in telemetry.registry.snapshot()["gauges"]
            if name.startswith("link.utilization{")
        ]
        assert len(gauges) == len(net.all_links())


class TestEstimateRtt:
    def test_positive_and_small(self):
        rtt = estimate_rtt(default_topology())
        assert 1e-6 < rtt < 1e-3

    def test_loaded_greater_than_unloaded(self):
        topo = default_topology()
        assert estimate_rtt(topo, loaded=True) > estimate_rtt(topo, loaded=False)


class TestIdealPathWeights:
    def test_symmetric_is_uniform(self):
        result = run_experiment(_quick("ecmp"))
        traces = [
            ("h1_0->L1#0", "L1->S1#0", "S1->L2#0"),
            ("h1_0->L1#0", "L1->S1#1", "S1->L2#1"),
            ("h1_0->L1#0", "L1->S2#0", "S2->L2#0"),
            ("h1_0->L1#0", "L1->S2#1", "S2->L2#1"),
        ]
        weights = ideal_path_weights(result.net, traces)
        assert weights == pytest.approx([0.25] * 4)

    def test_asymmetric_matches_paper_weights(self):
        result = run_experiment(_quick("ecmp", asymmetric=True))
        # After the failure the two S2 paths share the surviving cable.
        traces = [
            ("h1_0->L1#0", "L1->S1#0", "S1->L2#0"),
            ("h1_0->L1#0", "L1->S1#1", "S1->L2#1"),
            ("h1_0->L1#0", "L1->S2#0", "S2->L2#1"),
            ("h1_0->L1#0", "L1->S2#1", "S2->L2#1"),
        ]
        weights = ideal_path_weights(result.net, traces)
        assert weights == pytest.approx([1 / 3, 1 / 3, 1 / 6, 1 / 6], abs=0.01)


class TestSweep:
    def test_sweep_structure(self):
        base = _quick("ecmp", jobs_per_client=4, clients_per_leaf=2)
        series = sweep_loads(base, ["ecmp"], [0.2, 0.4], seeds=[1])
        assert list(series) == ["ecmp"]
        assert [load for load, _ in series["ecmp"]] == [0.2, 0.4]
        assert all(not math.isnan(v) for _, v in series["ecmp"])

    def test_average_over_seeds(self):
        base = _quick("ecmp", jobs_per_client=4, clients_per_leaf=2)
        value = average_over_seeds(base, seeds=[1, 2])
        assert value > 0

    def test_format_series_table(self):
        series = {"ecmp": [(0.2, 0.001), (0.4, 0.002)], "clove-ecn": [(0.2, 0.001), (0.4, 0.0015)]}
        text = render_table(series)
        assert "ecmp" in text and "clove-ecn" in text
        assert "20" in text and "40" in text

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            average_over_seeds(_quick(), seeds=[])
