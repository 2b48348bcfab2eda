"""Unit tests for the repro.runner subsystem: job model, cache, serial path."""

import json
import math

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.metrics import METRIC_KEYS, standard_metrics
from repro.harness.report import render_table
from repro.harness.sweep import (
    average_over_seeds,
    run_grid,
    series_equal,
    sweep_loads,
)
from repro.runner import (
    JobSpec,
    ResultCache,
    RunnerConfig,
    SCHEMA_VERSION,
    canonicalize,
    run_jobs,
)
from repro.runner import job as job_module
from repro.topology.leafspine import LeafSpineConfig


def _metrics_equal(a, b) -> bool:
    """Bit-exact dict equality where NaN == NaN (JSON round-trips break
    NaN identity, so plain ``==`` rejects payloads that are in fact equal)."""
    if set(a) != set(b):
        return False
    for key, value in a.items():
        other = b[key]
        if isinstance(value, float) and math.isnan(value):
            if not (isinstance(other, float) and math.isnan(other)):
                return False
        elif value != other:
            return False
    return True


def _quick(scheme="ecmp", **overrides) -> ExperimentConfig:
    defaults = dict(
        scheme=scheme,
        load=0.3,
        jobs_per_client=4,
        clients_per_leaf=2,
        connections_per_client=1,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestFingerprint:
    def test_identical_configs_hash_identically(self):
        a = JobSpec.experiment(_quick())
        b = JobSpec.experiment(_quick())
        assert a.fingerprint == b.fingerprint

    def test_any_field_change_changes_the_hash(self):
        base = JobSpec.experiment(_quick()).fingerprint
        assert JobSpec.experiment(_quick(seed=6)).fingerprint != base
        assert JobSpec.experiment(_quick(load=0.4)).fingerprint != base
        assert JobSpec.experiment(_quick(scheme="clove-ecn")).fingerprint != base
        assert JobSpec.experiment(_quick(asymmetric=True)).fingerprint != base

    def test_stable_across_field_ordering(self):
        # kwargs order must not matter — for configs...
        a = JobSpec.experiment(ExperimentConfig(scheme="ecmp", load=0.5, seed=2))
        b = JobSpec.experiment(ExperimentConfig(seed=2, load=0.5, scheme="ecmp"))
        assert a.fingerprint == b.fingerprint
        # ...and for incast parameter dicts.
        x = JobSpec.incast(scheme="ecmp", fanout=4, seed=1)
        y = JobSpec.incast(seed=1, fanout=4, scheme="ecmp")
        assert x.fingerprint == y.fingerprint

    def test_nested_topology_and_classes_fingerprint(self):
        topo = LeafSpineConfig(hosts_per_leaf=4)
        a = JobSpec.experiment(_quick(topology=topo))
        b = JobSpec.experiment(_quick(topology=LeafSpineConfig(hosts_per_leaf=4)))
        c = JobSpec.experiment(_quick(topology=LeafSpineConfig(hosts_per_leaf=8)))
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        # switch classes canonicalize to qualified names, not addresses
        assert "Switch" in json.dumps(canonicalize(topo))

    def test_schema_version_invalidates(self, monkeypatch):
        before = JobSpec.experiment(_quick()).fingerprint
        monkeypatch.setattr(job_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert JobSpec.experiment(_quick()).fingerprint != before

    def test_kind_separates_namespaces(self):
        from repro.runner import fingerprint_payload

        assert fingerprint_payload("experiment", {"a": 1}) != fingerprint_payload(
            "incast", {"a": 1}
        )
        assert JobSpec.incast(x=1).fingerprint != JobSpec.incast(x=2).fingerprint

    def test_labels_do_not_affect_fingerprint(self):
        a = JobSpec.experiment(_quick(), label="one")
        b = JobSpec.experiment(_quick(), label="two")
        assert a.fingerprint == b.fingerprint


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        cache.put(spec, {"avg_fct": 1.5}, wall_s=0.1)
        entry = cache.get(spec.fingerprint)
        assert entry is not None
        assert entry["metrics"]["avg_fct"] == 1.5
        # a fresh cache object re-reads from disk
        assert ResultCache(tmp_path).get(spec.fingerprint) is not None

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("deadbeef") is None

    def test_stale_schema_entries_are_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        record = cache.put(spec, {"avg_fct": 1.5})
        stale = dict(record, schema=SCHEMA_VERSION - 1, fingerprint="feedface")
        with open(cache.path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(stale) + "\n")
        fresh = ResultCache(tmp_path)
        assert fresh.get("feedface") is None
        assert fresh.get(spec.fingerprint) is not None
        assert fresh.stale_entries == 1

    def test_corrupt_lines_warn_not_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        cache.put(spec, {"avg_fct": 2.0})
        with open(cache.path, "a", encoding="utf-8") as fp:
            fp.write('{"fingerprint": "truncated, no closing br\n')
            fp.write("not json at all\n")
        fresh = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            entry = fresh.get(spec.fingerprint)
        assert entry is not None
        assert fresh.corrupt_lines == 2

    def test_duplicate_fingerprints_keep_latest(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.experiment(_quick())
        cache.put(spec, {"avg_fct": 1.0})
        cache.put(spec, {"avg_fct": 2.0})
        assert ResultCache(tmp_path).get(spec.fingerprint)["metrics"]["avg_fct"] == 2.0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(JobSpec.experiment(_quick()), {"avg_fct": 1.0})
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not cache.path.exists()


class TestRunJobsSerial:
    def test_matches_direct_run_experiment(self):
        config = _quick()
        (result,) = run_jobs([JobSpec.experiment(config)])
        direct = standard_metrics(run_experiment(config))
        assert result.ok and not result.cached and result.attempts == 1
        assert _metrics_equal(result.metrics, direct)

    def test_payload_carries_every_metric_key(self):
        (result,) = run_jobs([JobSpec.experiment(_quick())])
        assert set(result.metrics) == set(METRIC_KEYS)

    def test_cache_hit_skips_run_experiment(self, tmp_path, monkeypatch):
        config = _quick()
        runner = RunnerConfig(cache_dir=str(tmp_path))
        (first,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        calls = []
        monkeypatch.setattr(
            "repro.harness.experiment.run_experiment",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(AssertionError),
        )
        (second,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        assert calls == []
        assert second.cached and second.attempts == 0
        assert _metrics_equal(second.metrics, first.metrics)

    def test_cached_floats_roundtrip_exactly(self, tmp_path):
        config = _quick()
        runner = RunnerConfig(cache_dir=str(tmp_path))
        (first,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        (second,) = run_jobs([JobSpec.experiment(config)], runner=runner)
        # JSON float round-trip is exact (NaN aside, which _metrics_equal folds)
        assert _metrics_equal(first.metrics, second.metrics)

    def test_deterministic_error_is_not_retried(self):
        bad = ExperimentConfig(scheme="bogus")
        (result,) = run_jobs([JobSpec.experiment(bad)], runner=RunnerConfig(retries=5))
        assert not result.ok
        assert result.attempts == 1
        assert "bogus" in result.error

    def test_failed_jobs_are_not_cached(self, tmp_path):
        runner = RunnerConfig(cache_dir=str(tmp_path))
        run_jobs([JobSpec.experiment(ExperimentConfig(scheme="bogus"))], runner=runner)
        assert len(ResultCache(tmp_path)) == 0

    def test_results_preserve_input_order(self, tmp_path):
        specs = [JobSpec.experiment(_quick(seed=s)) for s in (1, 2, 3)]
        runner = RunnerConfig(cache_dir=str(tmp_path))
        run_jobs([specs[1]], runner=runner)  # pre-cache the middle spec
        results = run_jobs(specs, runner=runner)
        assert [r.spec.fingerprint for r in results] == [s.fingerprint for s in specs]
        assert [r.cached for r in results] == [False, True, False]


class TestMetricResolution:
    def test_unknown_string_key_rejected(self):
        with pytest.raises(ValueError, match="unknown metric key") as excinfo:
            sweep_loads(_quick(), ["ecmp"], [0.3], seeds=[1], metric="not_a_metric")
        assert "avg_fct" in str(excinfo.value)
        assert "mice_avg_fct" in str(excinfo.value)
        with pytest.raises(ValueError, match="goodput_bps"):
            run_grid(
                lambda scheme, fanout, seed: JobSpec.incast(
                    scheme=scheme, fanout=fanout, seed=seed
                ),
                ["ecmp"], [2], [1], ["avg_fct"],
            )


class TestFormatSeriesTable:
    """The series-table renderer, :func:`repro.harness.report.render_table`."""

    def test_empty_series_renders_no_data(self):
        assert render_table({}) == "(no data)"

    def test_ragged_load_grids_raise(self):
        series = {
            "ecmp": [(0.2, 0.001), (0.4, 0.002)],
            "clove-ecn": [(0.2, 0.001)],
        }
        with pytest.raises(ValueError, match="ragged"):
            render_table(series)

    def test_mismatched_loads_raise(self):
        series = {
            "ecmp": [(0.2, 0.001), (0.4, 0.002)],
            "clove-ecn": [(0.2, 0.001), (0.5, 0.002)],
        }
        with pytest.raises(ValueError, match="ragged"):
            render_table(series)

    def test_well_formed_series_still_renders(self):
        series = {
            "ecmp": [(0.2, 0.001), (0.4, 0.002)],
            "clove-ecn": [(0.2, 0.001), (0.4, 0.0015)],
        }
        text = render_table(series)
        assert "ecmp" in text and "clove-ecn" in text


class TestSweepThroughRunner:
    def test_sweep_default_matches_explicit_serial_runner(self):
        base = _quick()
        a = sweep_loads(base, ["ecmp"], [0.3, 0.5], seeds=[1])
        b = sweep_loads(base, ["ecmp"], [0.3, 0.5], seeds=[1],
                        runner=RunnerConfig(jobs=1))
        assert a == b

    def test_average_over_seeds_through_runner(self, tmp_path):
        base = _quick()
        plain = average_over_seeds(base, seeds=[1, 2])
        runner = RunnerConfig(cache_dir=str(tmp_path))
        cached = average_over_seeds(base, seeds=[1, 2], runner=runner)
        assert plain == cached
        # second call is served fully from cache
        again = average_over_seeds(base, seeds=[1, 2], runner=runner)
        assert again == plain

    def test_failed_point_yields_nan_with_warning(self):
        with pytest.warns(RuntimeWarning, match="failed"):
            series = sweep_loads(
                _quick(workload="bogus"), ["ecmp"], [0.3], seeds=[1]
            )
        assert math.isnan(series["ecmp"][0][1])

    def test_sweep_matches_reference_fold(self):
        """sweep_loads equals a by-hand fold of the raw run_jobs results:
        the seeds of each point summed in seed order, divided by their
        count, points in scheme-major, load-minor order."""
        base = _quick()
        schemes, loads, seeds = ["ecmp", "clove-ecn"], [0.3, 0.5], [1, 2]
        specs = [
            JobSpec.experiment(_quick(scheme, load=load, seed=seed))
            for scheme in schemes
            for load in loads
            for seed in seeds
        ]
        results = run_jobs(specs)
        reference = {}
        for i, scheme in enumerate(schemes):
            reference[scheme] = []
            for j, load in enumerate(loads):
                start = (i * len(loads) + j) * len(seeds)
                chunk = results[start:start + len(seeds)]
                total = 0
                for result in chunk:
                    total += result.metrics["avg_fct"]
                reference[scheme].append((load, total / len(seeds)))
        assert series_equal(
            sweep_loads(base, schemes, loads, seeds=seeds), reference
        )
