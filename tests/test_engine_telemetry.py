"""Telemetry documents: schema stability, sinks, and the CLI renderer."""

import json

import pytest

from repro.engine.telemetry import (
    KIND_ANALYZE,
    KIND_TRACE,
    TELEMETRY_SCHEMA_VERSION,
    InMemoryTelemetrySink,
    JsonlTelemetrySink,
    PlanDecision,
    RunTelemetry,
    ShardTelemetry,
    StageTiming,
    TelemetryError,
    TelemetrySink,
    read_telemetry,
    schema_selfcheck,
)


def make_run(kind=KIND_TRACE) -> RunTelemetry:
    return RunTelemetry(
        kind=kind,
        plan=PlanDecision(
            requested_jobs="auto",
            mode="parallel",
            jobs=2,
            reason="auto: 9000 servers in 2 shards on 4 usable CPUs (test)",
            probed_cpus=4,
            cpu_source="test",
            n_shards=2,
        ),
        stages=(
            StageTiming("plan", 0.1, 0.1),
            StageTiming("execute", 1.2, 2.2),
            StageTiming("total", 1.3, 2.3),
        ),
        shards=(
            ShardTelemetry(0, "dc00", 120, 900, 0.7, 0.7),
            ShardTelemetry(1, "dc01", 180, 1400, 0.9, 0.9),
        ),
        cache={"hits": 2, "misses": 5},
    )


class TestSchemaRoundTrip:
    def test_json_round_trip_is_exact(self):
        run = make_run()
        assert RunTelemetry.from_json(run.to_json()) == run

    def test_empty_run_round_trips(self):
        run = RunTelemetry(kind=KIND_ANALYZE)
        decoded = RunTelemetry.from_json(run.to_json())
        assert decoded == run
        assert decoded.plan is None and decoded.shards == ()

    def test_document_shape_is_stable(self):
        doc = make_run().to_dict()
        assert set(doc) == {
            "schema_version", "kind", "plan", "stages", "shards", "cache",
        }
        assert doc["schema_version"] == TELEMETRY_SCHEMA_VERSION
        # JSON-serializable all the way down.
        json.dumps(doc)

    def test_selfcheck_passes(self):
        schema_selfcheck()

    def test_newer_schema_rejected(self):
        doc = make_run().to_dict()
        doc["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
        with pytest.raises(TelemetryError, match="newer"):
            RunTelemetry.from_dict(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(TelemetryError, match="malformed"):
            RunTelemetry.from_dict({"schema_version": 1, "kind": "trace"})

    def test_invalid_json_rejected(self):
        with pytest.raises(TelemetryError, match="not valid JSON"):
            RunTelemetry.from_json("{nope")
        with pytest.raises(TelemetryError, match="JSON object"):
            RunTelemetry.from_json("[1, 2]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown telemetry kind"):
            RunTelemetry(kind="sideways")

    def test_frozen(self):
        run = make_run()
        with pytest.raises(AttributeError):
            run.kind = "analyze"


class TestAccessors:
    def test_stage_lookup_and_total(self):
        run = make_run()
        assert run.stage("execute").wall_seconds == 1.2
        assert run.stage("missing") is None
        assert run.total_wall_seconds == 1.3  # the explicit total stage

    def test_total_falls_back_to_sum(self):
        run = RunTelemetry(
            kind=KIND_ANALYZE,
            stages=(StageTiming("a", 1.0, 1.0), StageTiming("b", 2.0, 2.0)),
        )
        assert run.total_wall_seconds == 3.0

    def test_rows_render_plan_and_cache(self):
        rows = dict(make_run().rows())
        assert rows["plan"] == "parallel (jobs=2)"
        assert "4 (test)" == rows["cpus"]
        assert rows["cache"] == "2/7 hits (29%)"
        assert "stage:execute" in rows


class TestSinks:
    def test_in_memory_sink_orders_and_filters(self):
        sink = InMemoryTelemetrySink()
        assert sink.last is None
        first, second = make_run(), make_run(kind=KIND_ANALYZE)
        sink.record(first)
        sink.record(second)
        assert sink.last is second
        assert sink.last_of(KIND_TRACE) is first
        assert sink.last_of("report") is None
        assert isinstance(sink, TelemetrySink)

    def test_jsonl_sink_appends_and_reads_back(self, tmp_path):
        path = tmp_path / "runs" / "telemetry.jsonl"
        sink = JsonlTelemetrySink(path)
        runs = [make_run(), make_run(kind=KIND_ANALYZE)]
        for run in runs:
            sink.record(run)
        assert read_telemetry(path) == runs
        assert isinstance(sink, TelemetrySink)

    def test_read_reports_offending_line(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            make_run().to_json() + "\n" + "{broken\n", encoding="utf-8"
        )
        with pytest.raises(TelemetryError, match=":2:"):
            read_telemetry(path)

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "\n" + make_run().to_json() + "\n\n", encoding="utf-8"
        )
        assert len(read_telemetry(path)) == 1
