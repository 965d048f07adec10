"""Execution planner: CPU probing and the serial/pool rule."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import FleetConfig, ScenarioConfig, tiny_scenario
from repro.engine.adaptive import (
    MODE_PARALLEL,
    MODE_SERIAL,
    PARALLEL_MIN_SERVERS,
    CpuProbe,
    plan_execution,
    probe_cpu_count,
)
from repro.engine.policy import ExecutionPolicy
from repro.engine.telemetry import InMemoryTelemetrySink
from repro.simulation.trace import generate_trace, plan_trace


def _scenario(n_dcs: int, seed: int = 11) -> ScenarioConfig:
    return ScenarioConfig(
        fleet=FleetConfig(
            n_datacenters=n_dcs, servers_per_dc=200, n_product_lines=12
        ),
        horizon_days=400,
        target_failures=3000,
        seed=seed,
    )


@pytest.fixture(scope="module")
def tasks():
    return plan_trace(_scenario(4)).tasks


def _sized_tasks(n_servers: int, n_shards: int = 4):
    """Stand-in shard tasks: the rule reads only the shard count and
    each shard's server rows."""
    sizes = [n_servers // n_shards] * n_shards
    sizes[0] += n_servers - sum(sizes)
    return [SimpleNamespace(rows=np.arange(size)) for size in sizes]


class TestProbe:
    def test_probe_reports_positive_count_and_source(self):
        probe = probe_cpu_count()
        assert probe.count >= 1
        assert probe.source in (
            "process_cpu_count", "sched_getaffinity", "cpu_count",
            "cgroup_quota",
        )

    def test_cgroup_quota_caps_affinity(self, monkeypatch):
        import repro.engine.adaptive as adaptive

        monkeypatch.setattr(adaptive.os, "sched_getaffinity",
                            lambda pid: set(range(16)), raising=False)
        monkeypatch.delattr(adaptive.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(adaptive, "_cgroup_quota_cpus", lambda: 2.0)
        probe = adaptive.probe_cpu_count()
        assert probe.count == 2
        assert probe.source == "cgroup_quota"

    def test_uncapped_cgroup_keeps_affinity_count(self, monkeypatch):
        import repro.engine.adaptive as adaptive

        monkeypatch.setattr(adaptive.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        monkeypatch.delattr(adaptive.os, "process_cpu_count", raising=False)
        monkeypatch.setattr(adaptive, "_cgroup_quota_cpus", lambda: None)
        probe = adaptive.probe_cpu_count()
        assert probe.count == 8
        assert probe.source == "sched_getaffinity"


class TestPlanDecisions:
    def test_serial_request_is_serial(self, tasks):
        plan = plan_execution(tasks, "serial", probe=CpuProbe(8, "test"))
        assert plan.mode == MODE_SERIAL and plan.jobs == 1
        assert plan.requested_jobs == "serial"
        assert plan.reason == "policy requested serial execution"

    def test_int_request_on_multicore_is_honored(self, tasks):
        plan = plan_execution(tasks, 3, probe=CpuProbe(8, "test"))
        assert plan.mode == MODE_PARALLEL and plan.jobs == 3
        assert plan.requested_jobs == "3"

    def test_int_request_capped_by_shard_count(self, tasks):
        plan = plan_execution(tasks, 64, probe=CpuProbe(128, "test"))
        assert plan.jobs == len(tasks)

    def test_int_request_on_one_cpu_degrades_to_serial(self, tasks):
        plan = plan_execution(tasks, 4, probe=CpuProbe(1, "test"))
        assert plan.mode == MODE_SERIAL and plan.jobs == 1
        assert "1 usable CPU" in plan.reason

    def test_auto_on_one_cpu_is_serial(self):
        big = _sized_tasks(10 * PARALLEL_MIN_SERVERS)
        plan = plan_execution(big, "auto", probe=CpuProbe(1, "test"))
        assert plan.mode == MODE_SERIAL
        assert plan.probed_cpus == 1
        assert "1 usable CPU" in plan.reason

    def test_auto_below_payoff_threshold_is_serial(self):
        # The payoff threshold is now a server floor: one server short
        # of it stays serial even on a 2-CPU machine.
        small = _sized_tasks(PARALLEL_MIN_SERVERS - 1)
        plan = plan_execution(small, "auto", probe=CpuProbe(2, "test"))
        assert plan.mode == MODE_SERIAL and plan.jobs == 1
        assert "pool floor" in plan.reason

    def test_auto_on_big_work_goes_parallel(self):
        at_floor = _sized_tasks(PARALLEL_MIN_SERVERS)
        plan = plan_execution(at_floor, "auto", probe=CpuProbe(2, "test"))
        assert plan.mode == MODE_PARALLEL and plan.jobs == 2
        wide = plan_execution(at_floor, "auto", probe=CpuProbe(8, "test"))
        assert wide.jobs == len(at_floor)  # min(8 cpus, 4 shards)

    def test_single_shard_never_parallel(self):
        single = plan_trace(_scenario(1)).tasks
        for requested in ("auto", 4):
            plan = plan_execution(
                single, requested, probe=CpuProbe(8, "test")
            )
            assert plan.mode == MODE_SERIAL
            assert "single shard" in plan.reason
        huge = _sized_tasks(10 * PARALLEL_MIN_SERVERS, n_shards=1)
        assert plan_execution(huge, probe=CpuProbe(8, "test")).jobs == 1

    def test_unknown_request_rejected(self, tasks):
        with pytest.raises(ValueError, match="unknown jobs request"):
            plan_execution(tasks, requested="fastest")


class TestDispatchOrder:
    def test_count_strategy_keeps_natural_order(self, monkeypatch):
        """Index order, once the ``count`` strategy, is now the only
        dispatch order: the pool is handed shard indices 0..n-1."""
        import repro.engine.parallel as parallel

        plan = plan_trace(_scenario(4))
        dispatched = []

        class RecordingPool:
            def __init__(self, processes, initializer, initargs):
                # Skip the initializer: it would pin this process's CPU.
                monkeypatch.setattr(parallel, "_WORKER_PLAN", initargs[:2])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, indices, chunksize):
                dispatched.extend(indices)
                return [fn(i) for i in dispatched]

        monkeypatch.setattr(
            parallel, "_pool_context",
            lambda: SimpleNamespace(Pool=RecordingPool, Value=lambda *a: None),
        )
        results = parallel.run_shards(plan.tasks, plan.shared, jobs=2)
        assert dispatched == list(range(len(plan.tasks)))
        assert [r.index for r in results] == dispatched


class TestAutoBitIdentity:
    """``jobs="auto"`` must be bit-identical to ``jobs=1`` whatever
    hardware the probe reports."""

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_auto_matches_serial(self, monkeypatch, cores):
        import repro.engine.adaptive as adaptive

        config = tiny_scenario(seed=17)
        serial = generate_trace(config, policy=ExecutionPolicy(jobs=1))
        monkeypatch.setattr(
            adaptive, "probe_cpu_count",
            lambda: CpuProbe(count=cores, source="test"),
        )
        # Drop the server floor so multi-core runs actually take the
        # pool path on this small fleet.
        monkeypatch.setattr(adaptive, "PARALLEL_MIN_SERVERS", 0)
        sink = InMemoryTelemetrySink()
        auto = generate_trace(
            config,
            policy=ExecutionPolicy(jobs="auto", telemetry_sink=sink),
        )
        assert auto.dataset.fingerprint() == serial.dataset.fingerprint()
        ls, rs = serial.dataset.store, auto.dataset.store
        np.testing.assert_array_equal(
            ls.column("error_times"), rs.column("error_times")
        )
        plan = sink.last.plan
        expected_mode = MODE_SERIAL if cores == 1 else MODE_PARALLEL
        assert plan.mode == expected_mode


class TestTraceTelemetry:
    def test_trace_records_plan_stages_and_shards(self):
        sink = InMemoryTelemetrySink()
        trace = generate_trace(
            tiny_scenario(seed=9),
            policy=ExecutionPolicy(jobs="serial", telemetry_sink=sink),
        )
        run = sink.last
        assert run is trace.telemetry
        assert run.kind == "trace"
        assert {s.name for s in run.stages} >= {
            "plan", "execute", "assemble", "total"
        }
        assert run.plan.n_shards == len(run.shards)
        assert sorted(s.index for s in run.shards) == list(
            range(len(run.shards))
        )
        total = run.stage("total")
        assert total.wall_seconds >= run.stage("execute").wall_seconds
        for shard in run.shards:
            assert shard.wall_seconds > 0
            assert shard.n_tickets >= 0
        assert sum(s.n_tickets for s in run.shards) >= len(trace.dataset)

    def test_no_sink_still_attaches_telemetry(self):
        trace = generate_trace(
            tiny_scenario(seed=9), policy=ExecutionPolicy(jobs=1)
        )
        assert trace.telemetry is not None
        assert trace.telemetry.plan.mode == MODE_SERIAL


class TestReprolintClean:
    """The engine modules must be clean under the rules that the old
    syntactic (``ast``) and value-flow (``dataflow``) tiers checked, with
    no suppressions needed — determinism rules included (telemetry uses
    only monotonic clocks)."""

    RULE_GROUPS = {
        "ast": {"RPL000", "RPL001", "RPL002"},
        "dataflow": {"RPL000", "RPL001", "RPL002", "RPL101", "RPL102",
                     "RPL104"},
    }

    @pytest.mark.parametrize("group", ["ast", "dataflow"])
    def test_new_modules_lint_clean(self, group):
        from pathlib import Path

        from repro.devtools.lint import run_lint

        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        targets = [
            root / "engine" / "adaptive.py",
            root / "engine" / "telemetry.py",
            root / "engine" / "policy.py",
        ]
        result = run_lint([str(p) for p in targets])
        rules = self.RULE_GROUPS[group]
        hits = [f for f in result.findings + result.suppressed
                if f.rule in rules]
        assert hits == [], [f.render() for f in hits]
