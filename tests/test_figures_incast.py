"""Structural tests for the figure drivers and the incast harness.

These use tiny quality settings: they validate shapes, keys and plumbing,
not the paper's numbers (the benchmarks do that at realistic scale).
"""

import pytest

from repro.harness.figures import (
    FigureQuality,
    SIM_SCHEMES,
    TESTBED_SCHEMES,
    capture_ratios,
    fig4b,
    fig5_all,
    fig6,
    fig7,
    fig9,
    fig9_percentiles,
)
from repro.harness import experiment
from repro.harness.incast import run_incast
from repro.runner import run_jobs

TINY = FigureQuality(loads=(0.3,), seeds=(1,), jobs_per_client=4)


class TestFigureDrivers:
    def test_fig4b_structure(self):
        series = fig4b(TINY)
        assert set(series) == set(TESTBED_SCHEMES)
        for points in series.values():
            assert [l for l, _v in points] == [0.3]
            assert all(v > 0 for _l, v in points)

    def test_fig5_kinds(self):
        panels = fig5_all(TINY)
        assert set(panels) == {"mice", "elephants", "p99"}
        for series in panels.values():
            assert set(series) == set(TESTBED_SCHEMES)

    def test_fig6_has_four_variants(self):
        series = fig6(TINY)
        assert len(series) == 4
        assert any("best" in label for label in series)

    @pytest.mark.parametrize("driver", [
        lambda: fig5_all(TINY),
        lambda: fig6(TINY),
        lambda: fig7(fanouts=(1, 2), n_requests=1, total_bytes=100_000),
    ], ids=["fig5_all", "fig6", "fig7"])
    def test_grid_is_one_runner_batch(self, driver, monkeypatch):
        """Every point of a figure's grid goes to the runner in one batch,
        so ``-j N`` parallelises across the whole figure."""
        from repro.harness import sweep

        batches = []

        def counting_run_jobs(specs, **kwargs):
            batches.append(len(specs))
            return run_jobs(specs, **kwargs)

        monkeypatch.setattr(sweep, "run_jobs", counting_run_jobs)
        driver()
        assert len(batches) == 1 and batches[0] > 1

    def test_fig9_cdfs(self):
        cdfs = fig9(load=0.3, seed=1, jobs_per_client=4)
        assert set(cdfs) == {"ecmp", "clove-ecn", "conga"}
        for points in cdfs.values():
            assert points[-1][1] == 1.0

    def test_fig9_percentiles(self):
        cdfs = {"x": [(0.001, 0.5), (0.002, 0.9), (0.010, 1.0)]}
        assert fig9_percentiles(cdfs, 0.99) == {"x": 0.010}
        assert fig9_percentiles(cdfs, 0.5) == {"x": 0.001}


class TestCaptureRatios:
    def test_ratio_math(self):
        series = {
            "ecmp": [(0.7, 10.0)],
            "conga": [(0.7, 2.0)],
            "clove-ecn": [(0.7, 3.6)],
            "edge-flowlet": [(0.7, 6.8)],
        }
        ratios = capture_ratios(series, 0.7)
        assert ratios["clove-ecn"] == pytest.approx(0.8)
        assert ratios["edge-flowlet"] == pytest.approx(0.4)

    def test_no_gain_yields_nan(self):
        import math
        series = {"ecmp": [(0.7, 1.0)], "conga": [(0.7, 2.0)], "clove-ecn": [(0.7, 1.5)]}
        ratios = capture_ratios(series, 0.7)
        assert math.isnan(ratios["clove-ecn"])

    def test_missing_load_raises(self):
        series = {"ecmp": [(0.7, 1.0)], "conga": [(0.7, 0.5)], "x": [(0.7, 0.7)]}
        with pytest.raises(KeyError):
            capture_ratios(series, 0.9)


class TestIncastHarness:
    def test_goodput_positive_and_bounded(self):
        goodput = run_incast("clove-ecn", fanout=2, n_requests=2, total_bytes=200_000)
        assert 0 < goodput <= 10e9  # cannot exceed the client's access link

    def test_fanout_one(self):
        goodput = run_incast("edge-flowlet", fanout=1, n_requests=2, total_bytes=200_000)
        assert goodput > 0

    def test_mptcp_scheme(self):
        goodput = run_incast("mptcp", fanout=2, n_requests=2, total_bytes=200_000)
        assert goodput > 0

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            run_incast("clove-ecn", fanout=0, n_requests=1)
        with pytest.raises(ValueError):
            run_incast("clove-ecn", fanout=999, n_requests=1)

    def test_deterministic(self):
        a = run_incast("clove-ecn", fanout=2, n_requests=2, total_bytes=200_000)
        b = run_incast("clove-ecn", fanout=2, n_requests=2, total_bytes=200_000)
        assert a == pytest.approx(b)


def _capture_fabric(monkeypatch):
    """Record every fabric the scheme wiring builds."""
    built = []
    build = experiment.build_leaf_spine

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiment, "build_leaf_spine", capture)
    return built


class TestIncastSchemeWiring:
    """Incast runs on the same per-scheme switches as run_experiment."""

    def test_clove_int_incast_carries_int_utilization(self, monkeypatch):
        from repro.core.clove import CloveIntPolicy

        built = _capture_fabric(monkeypatch)
        utils = []
        on_feedback = CloveIntPolicy.on_path_feedback

        def record(policy, feedback, now):
            if feedback.util is not None:
                utils.append(feedback.util)
            on_feedback(policy, feedback, now)

        monkeypatch.setattr(CloveIntPolicy, "on_path_feedback", record)
        run_incast("clove-int", fanout=4, n_requests=2, total_bytes=400_000)
        (net,) = built
        assert all(switch.int_capable for switch in net.switches.values())
        tracked = {link.name for link in net.all_links() if link.dre is not None}
        egress = {
            link.name
            for (src, _dst), group in net.links.items()
            if src in net.switches
            for link in group
        }
        assert tracked == egress
        assert utils and max(utils) > 0.0

    def test_conga_incast_runs_on_conga_switches(self, monkeypatch):
        from repro.baselines.conga import CongaLeafSwitch

        built = _capture_fabric(monkeypatch)
        goodput = run_incast("conga", fanout=2, n_requests=2, total_bytes=200_000)
        (net,) = built
        assert goodput > 0
        leaf = net.switches["L1"]
        assert isinstance(leaf, CongaLeafSwitch) and leaf.uplinks
