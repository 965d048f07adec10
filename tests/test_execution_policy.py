"""ExecutionPolicy: validation, facade threading, deprecation shims."""

import warnings
from dataclasses import fields

import pytest

import repro
from repro import api
from repro.config import tiny_scenario
from repro.engine import (
    AnalysisCache,
    DEFAULT_POLICY,
    ExecutionPolicy,
    InMemoryTelemetrySink,
    coerce_jobs,
)
from repro.engine.telemetry import (
    KIND_ANALYZE,
    KIND_COMPARE,
    KIND_REPORT,
    KIND_TRACE,
)
from repro.simulation.trace import generate_trace


@pytest.fixture(scope="module")
def dataset():
    return repro.simulate(scale=0.01, seed=31).dataset


class TestPolicyValue:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.jobs == "auto"
        assert policy.cache is None
        assert policy.telemetry_sink is None
        assert DEFAULT_POLICY == policy
        assert [f.name for f in fields(ExecutionPolicy)] == [
            "jobs", "cache", "telemetry_sink",
        ]

    def test_exported_at_top_level(self):
        assert repro.ExecutionPolicy is ExecutionPolicy

    @pytest.mark.parametrize("jobs", ["auto", "serial", 1, 2, 16])
    def test_valid_jobs(self, jobs):
        assert ExecutionPolicy(jobs=jobs).jobs == jobs

    @pytest.mark.parametrize("jobs", ["fastest", 0, -1, 1.5, True, None])
    def test_invalid_jobs_rejected(self, jobs):
        with pytest.raises(ValueError):
            ExecutionPolicy(jobs=jobs)

    def test_sink_must_have_record(self):
        with pytest.raises(ValueError, match="record"):
            ExecutionPolicy(telemetry_sink=object())

    def test_frozen_with_copy_helper(self):
        policy = ExecutionPolicy()
        with pytest.raises(AttributeError):
            policy.jobs = 2
        tuned = policy.with_(jobs=2)
        assert tuned.jobs == 2 and policy.jobs == "auto"

    def test_record_is_noop_without_sink(self):
        ExecutionPolicy().record(None)  # must not raise

    @pytest.mark.parametrize(
        "raw,expected",
        [("auto", "auto"), ("SERIAL", "serial"), (" 4 ", 4), (4, 4), ("1", 1)],
    )
    def test_coerce_jobs(self, raw, expected):
        assert coerce_jobs(raw) == expected

    @pytest.mark.parametrize("raw", ["fast", "", "1.5", True])
    def test_coerce_jobs_rejects(self, raw):
        with pytest.raises(ValueError, match="jobs must be"):
            coerce_jobs(raw)


class TestFacadeThreading:
    def test_simulate_records_trace_telemetry(self):
        sink = InMemoryTelemetrySink()
        trace = repro.simulate(
            scale=0.01, seed=31,
            policy=ExecutionPolicy(jobs="serial", telemetry_sink=sink),
        )
        assert sink.last.kind == KIND_TRACE
        assert trace.telemetry is sink.last

    def test_analyze_records_per_analysis_stages(self, dataset):
        sink = InMemoryTelemetrySink()
        results = api.analyze(
            dataset, "categories", "mtbf",
            policy=ExecutionPolicy(telemetry_sink=sink),
        )
        assert set(results) == {"categories", "mtbf"}
        run = sink.last_of(KIND_ANALYZE)
        assert {s.name for s in run.stages} == {"categories", "mtbf", "total"}

    def test_analyze_uses_policy_cache(self, dataset):
        cache = AnalysisCache()
        policy = ExecutionPolicy(cache=cache)
        api.analyze(dataset, "categories", policy=policy)
        before = cache.stats.hits
        api.analyze(dataset, "categories", policy=policy)
        assert cache.stats.hits > before

    def test_full_report_records_and_caches(self, dataset):
        sink = InMemoryTelemetrySink()
        policy = ExecutionPolicy(
            cache=AnalysisCache(), telemetry_sink=sink
        )
        report = api.full_report(dataset, policy=policy)
        assert report.text()
        run = sink.last_of(KIND_REPORT)
        assert run is not None
        assert run.cache is not None

    def test_compare_records(self, dataset):
        sink = InMemoryTelemetrySink()
        api.compare(dataset, dataset, policy=ExecutionPolicy(telemetry_sink=sink))
        assert sink.last.kind == KIND_COMPARE


class TestDeprecationShims:
    def test_policy_plus_legacy_kwarg_is_an_error(self, dataset):
        # The pre-policy kwargs are gone: policy= is the only spelling.
        with pytest.raises(TypeError, match="jobs"):
            repro.simulate(
                scale=0.01, seed=31, jobs=2, policy=ExecutionPolicy()
            )
        with pytest.raises(TypeError, match="cache"):
            api.analyze(
                dataset, "categories",
                cache=AnalysisCache(), policy=ExecutionPolicy(),
            )
        with pytest.raises(TypeError, match="cache"):
            api.full_report(dataset, cache=AnalysisCache())
        with pytest.raises(TypeError, match="jobs"):
            generate_trace(tiny_scenario(seed=31), jobs=2)

    def test_policy_path_never_warns(self, dataset):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.simulate(
                scale=0.01, seed=31, policy=ExecutionPolicy(jobs="serial")
            )
            api.analyze(dataset, "categories", policy=ExecutionPolicy())
            api.full_report(dataset, headline_only=True)
