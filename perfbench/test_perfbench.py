"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalogue  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

from repro.harness.experiment import ExperimentConfig, run_experiment  # noqa: E402
from repro.harness.incast import run_incast  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_of_a_nested_span_tree():
    # root A [0, 10] has children B [1, 4] and C [5, 9]; B has child C' [2, 3]
    # and C has child A' [6, 7].  Layers: A=0, B=1, C=2.
    layers = [0, 1, 2, 2, 0]
    parents = [-1, 0, 1, 0, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0]
    totals = tracing.self_times(layers, parents, starts, ends, 3)
    # A: 10 - 3 - 4 = 3, plus A' 1      -> 4
    # B: 3 - 1                          -> 2
    # C: C' 1 + (4 - 1)                 -> 4
    assert totals == [4.0, 2.0, 4.0]
    assert sum(totals) == ends[0] - starts[0]


def test_recorded_spans_nest_and_sum_to_the_root():
    t = tracing.Tracer()

    def leaf():
        return 1

    def middle():
        return t.span("net.link", leaf)() + t.span("net.link", leaf)()

    assert t.run_root(t.span("sim", middle)) == 2
    assert list(t.parent) == [-1, 0, 1, 1]
    calls = t.calls()
    assert (calls["harness"], calls["sim"], calls["net.link"]) == (1, 1, 2)
    assert sum(calls.values()) == 4
    root = t.end[0] - t.start[0]
    assert abs(sum(t.self_times().values()) - root) < 1e-12
    assert all(value >= 0.0 for value in t.self_times().values())


def test_layer_of_module_prefers_the_longest_prefix():
    assert tracing.layer_of_module("repro.net.dre") == "net.dre"
    assert tracing.layer_of_module("repro.net.tracing") == "net.link"
    assert tracing.layer_of_module("repro.core.latency") == "core.clove"
    assert tracing.layer_of_module("repro.transport.dctcp") == "transport.tcp"
    assert tracing.layer_of_module("repro.runner.job") == "harness"
    assert tracing.layer_of_module(None) == "harness"


# ----------------------------------------------------------------------
# Install / uninstall
# ----------------------------------------------------------------------
def _attribute_snapshot():
    import importlib

    snapshot = {}
    for module_name, class_name, names in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        for name in names:
            if name in vars(owner):
                snapshot[(module_name, class_name, name)] = vars(owner)[name]
    from repro.sim.engine import Simulator
    from repro.harness import experiment, incast

    for name in ("schedule", "at", "run"):
        snapshot[("Simulator", name)] = vars(Simulator)[name]
    snapshot["experiment.build"] = experiment.build_leaf_spine
    snapshot["incast.build"] = incast.build_leaf_spine
    return snapshot


def test_uninstall_restores_every_patched_attribute():
    before = _attribute_snapshot()
    t = tracing.Tracer()
    t.install()
    patched = t.patches.patched
    assert len(patched) > len(tracing.TARGETS)
    for owner, name, original in patched:
        assert vars(owner)[name] is not original
    from repro.harness import experiment

    assert experiment.build_leaf_spine is not before["experiment.build"]
    t.uninstall()
    assert t.patches.patched == []
    for owner, name, original in patched:
        assert vars(owner)[name] is original
    assert _attribute_snapshot() == before


def test_probe_and_tracer_stack_and_unwind():
    before = _attribute_snapshot()
    probe = worker.Probe()
    probe.install()
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    probe.uninstall()
    assert _attribute_snapshot() == before


# ----------------------------------------------------------------------
# Metric catalogue
# ----------------------------------------------------------------------
def test_metric_names_units_and_counts_are_within_limits():
    e2e = [name for name, _, _, _ in catalogue.END_TO_END]
    layer = [name for name, _, _ in catalogue.per_layer()]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layer) <= 128
    names = e2e + layer + [name for name, _ in catalogue.WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert all(len(why) <= 200 and "\n" not in why for _, why in catalogue.WORKLOADS)
    assert all(UNIT.match(unit) for unit in catalogue.units().values())
    assert catalogue.TIMED <= set(layer)
    bounds = {name: bound for name, _, _, bound in catalogue.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_benchmark_json_is_the_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalogue.benchmark_json()


def test_workload_tables_agree():
    assert [name for name, _ in catalogue.WORKLOADS] == list(worker.WORKLOADS)


# ----------------------------------------------------------------------
# Tracing changes nothing the simulation computes
# ----------------------------------------------------------------------
def _tiny_experiment():
    result = run_experiment(ExperimentConfig(
        scheme="clove-int", load=0.6, seed=3, jobs_per_client=4,
        flow_scale=0.05, asymmetric=True))
    fcts = [job.completion - job.arrival for job in result.collector.jobs]
    packets = sum(h.tx_nic_packets for h in result.hosts.values())
    return result.wall_events, packets, fcts


def test_traced_and_untraced_runs_have_equal_fingerprints():
    plain = _tiny_experiment()
    t = tracing.Tracer()
    t.install()
    try:
        traced = t.run_root(_tiny_experiment)
    finally:
        t.uninstall()
    assert traced == plain
    calls = t.calls()
    for layer in ("sim", "net.link", "net.dre", "hypervisor.vswitch",
                  "core.clove", "transport.tcp", "topology"):
        assert calls[layer] > 0, layer
    assert t.fn_calls["repro.net.dre.DiscountingRateEstimator.utilization"][0] > 0


def test_traced_and_untraced_incast_agree():
    def incast():
        stats = {}
        goodput = run_incast(scheme="mptcp", fanout=2, seed=2, n_requests=2,
                             total_bytes=200_000, stats_out=stats)
        return goodput, stats

    plain = incast()
    t = tracing.Tracer()
    t.install()
    try:
        traced = t.run_root(incast)
    finally:
        t.uninstall()
    assert traced == plain
    assert t.calls()["transport.mptcp"] > 0
    assert t.calls()["core.clove"] == 0
