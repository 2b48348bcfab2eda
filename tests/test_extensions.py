"""Tests for the extension modules: CUBIC, extra workloads, time series,
reporting helpers and the CLI."""

import random

import pytest

from repro.harness.report import (
    render_bar_chart,
    render_cdf,
    render_table,
    speedup_table,
)
from repro.metrics.timeseries import NetworkSampler, summarize
from repro.net.packet import FlowKey, MSS, make_ack_packet
from repro.sim.engine import Simulator
from repro.transport.cubic import CubicSender
from repro.workloads.distributions import (
    data_mining_distribution,
    enterprise_distribution,
)

from tests.conftest import make_fabric


def _open_cubic(hosts):
    src, dst = hosts["h1_0"], hosts["h2_0"]
    flow = FlowKey(src.ip, dst.ip, 4000, 80)
    sender = CubicSender(src.sim, src, flow)
    from repro.transport.tcp import TcpReceiver
    receiver = TcpReceiver(dst.sim, dst, flow)
    dst.register_endpoint(flow, receiver)
    src.register_endpoint(flow.reversed(), sender)
    return sender, receiver


class TestCubic:
    def test_transfer_completes(self, fabric):
        sim, net, hosts = fabric
        sender, receiver = _open_cubic(hosts)
        sender.send(1_000_000)
        sim.run(until=2.0)
        assert receiver.rcv_nxt == 1_000_000

    def test_loss_reduces_by_beta_not_half(self, fabric):
        sim, net, hosts = fabric
        sender, _ = _open_cubic(hosts)
        sender.send(10_000 * MSS)
        sim.run(until=2e-6)
        cwnd = sender.cwnd
        flow = sender.flow.reversed()
        for _ in range(3):
            sender.on_packet(make_ack_packet(flow, sender.snd_una, sim.now))
        assert sender.in_recovery
        assert sender.ssthresh == pytest.approx(cwnd * 0.7, rel=0.01)

    def test_window_regrows_toward_w_max(self, fabric):
        sim, net, hosts = fabric
        sender, receiver = _open_cubic(hosts)
        sender.send(20_000_000)
        sim.run(until=0.001)
        sender.ssthresh = 0.0        # force CA
        sender.cwnd = 20.0 * MSS     # well below the cap and below w_max
        sender._w_max = 100 * MSS
        sender._epoch_start = None
        before = sender.cwnd
        # Feed ACK-driven growth for a while.
        sim.run(until=0.005)
        assert sender.cwnd > before

    def test_throughput_reasonable(self, fabric):
        sim, net, hosts = fabric
        sender, receiver = _open_cubic(hosts)
        done = []
        size = 5_000_000
        sender.on_all_acked = lambda: done.append(sim.now)
        sender.send(size)
        sim.run(until=2.0)
        assert done
        assert size * 8 / done[0] > 4e9  # >40% of the 10G access link


class TestExtraDistributions:
    def test_data_mining_heavier_tail_than_websearch(self):
        from repro.workloads.distributions import web_search_distribution
        rng = random.Random(1)
        dm = data_mining_distribution()
        ws = web_search_distribution()
        assert dm.analytic_mean() > ws.analytic_mean()

    def test_data_mining_mice_majority(self):
        dist = data_mining_distribution()
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(5000)]
        assert sum(1 for s in samples if s <= 10_000) / len(samples) > 0.6

    def test_enterprise_bounded(self):
        dist = enterprise_distribution()
        rng = random.Random(3)
        assert all(dist.sample(rng) <= 30_000_000 for _ in range(2000))


class TestTimeseries:
    def test_sampler_records_at_interval(self):
        sim = Simulator()
        sampler = NetworkSampler(sim, interval=0.1)
        counter = {"n": 0}
        sampler.add_probe("x", lambda: float(counter["n"]))
        sampler.start()
        sim.schedule(0.35, sampler.stop)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(sampler.samples["x"]) == 3
        assert sampler.timestamps == pytest.approx([0.1, 0.2, 0.3])

    def test_duplicate_probe_rejected(self):
        sampler = NetworkSampler(Simulator(), interval=0.1)
        sampler.add_probe("x", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.add_probe("x", lambda: 1.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            NetworkSampler(Simulator(), interval=0.0)

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0 and stats.maximum == 3.0
        assert stats.oscillation == pytest.approx(stats.std / 2.0)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summarize_constant_series(self):
        stats = summarize([0.4] * 10)
        assert stats.mean == pytest.approx(0.4)
        assert stats.std == pytest.approx(0.0, abs=1e-12)
        assert stats.minimum == stats.maximum == 0.4
        assert stats.oscillation == pytest.approx(0.0, abs=1e-12)

    def test_summarize_all_zero_series_has_zero_oscillation(self):
        stats = summarize([0.0, 0.0, 0.0])
        assert stats.mean == 0.0
        assert stats.oscillation == 0.0  # no division by a zero mean

    def test_summarize_single_sample(self):
        stats = summarize([2.5])
        assert stats.mean == 2.5
        assert stats.std == 0.0

    def test_imbalance_balanced(self):
        sim = Simulator()
        sampler = NetworkSampler(sim, interval=0.1)
        sampler.add_probe("a", lambda: 1.0)
        sampler.add_probe("b", lambda: 1.0)
        sampler.start()
        sim.schedule(0.5, sampler.stop)
        sim.run()
        values = sampler.imbalance(["a", "b"])
        assert all(v == pytest.approx(1.0) for v in values)


class TestReport:
    SERIES = {
        "ecmp": [(0.5, 0.002), (0.7, 0.010)],
        "clove-ecn": [(0.5, 0.002), (0.7, 0.002)],
    }

    def test_render_table_contains_values(self):
        text = render_table(self.SERIES)
        assert "ecmp" in text and "clove-ecn" in text
        assert "10.000" in text  # 0.010s -> 10ms

    def test_render_table_empty(self):
        assert render_table({}) == "(no data)"

    def test_render_bar_chart(self):
        text = render_bar_chart({"a": 1.0, "b": 2.0})
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_render_cdf_shape(self):
        cdfs = {"x": [(0.001, 0.5), (0.002, 1.0)]}
        text = render_cdf(cdfs)
        assert "1.0 |" in text and "0.0 +" in text
        assert "* = x" in text

    def test_speedup_table(self):
        speedups = speedup_table(self.SERIES, "ecmp", 0.7)
        assert speedups["clove-ecn"] == pytest.approx(5.0)

    def test_speedup_missing_baseline(self):
        with pytest.raises(KeyError):
            speedup_table(self.SERIES, "nope", 0.7)


class TestCli:
    def test_schemes_command(self, capsys):
        from repro.cli import main
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "clove-ecn" in out and "conga" in out

    def test_run_command(self, capsys):
        from repro.cli import main
        code = main(["run", "ecmp", "--load", "0.3", "--jobs-per-client", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg FCT" in out

    def test_sweep_command(self, capsys):
        from repro.cli import main
        code = main([
            "sweep", "--schemes", "ecmp", "--loads", "0.3", "--jobs-per-client", "3",
        ])
        assert code == 0
        assert "ecmp" in capsys.readouterr().out

    def test_sweep_unknown_scheme(self):
        from repro.cli import main
        assert main(["sweep", "--schemes", "bogus", "--jobs-per-client", "3"]) == 2

    def test_figure_unknown_name(self):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig99", "--jobs-per-client", "3"])
        assert excinfo.value.code == 2
