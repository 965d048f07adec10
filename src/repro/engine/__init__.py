"""Execution engine: parallel shard execution, analysis result
caching, and structured run telemetry.

* :mod:`repro.engine.adaptive` — the execution planner: probes usable
  cores (affinity- and cgroup-aware) and picks serial or a pool by one
  measured rule (:func:`plan_execution`).
* :mod:`repro.engine.parallel` — runs the per-data-center shards of a
  planned trace (:func:`repro.simulation.trace.plan_trace`) on a
  ``multiprocessing`` pool; bit-identical to serial execution because
  shard boundaries and seed streams never depend on the worker count.
* :mod:`repro.engine.cache` — :class:`AnalysisCache`, a content-keyed
  memo for analysis results over dataset views, with an in-memory LRU
  tier and an optional on-disk tier under ``.repro_cache/``.
* :mod:`repro.engine.telemetry` — frozen per-run/per-shard/per-stage
  telemetry documents with a stable JSON schema, consumed by the
  bench, ``fouryears telemetry`` and ``repro.serve`` ``/metrics``.
* :mod:`repro.engine.policy` — :class:`ExecutionPolicy`, the single
  value that carries every execution knob through :mod:`repro.api`.
"""

from repro.engine.adaptive import (
    CpuProbe,
    plan_execution,
    probe_cpu_count,
)
from repro.engine.cache import AnalysisCache, CacheStats
from repro.engine.parallel import run_shards
from repro.engine.policy import DEFAULT_POLICY, ExecutionPolicy, coerce_jobs
from repro.engine.telemetry import (
    InMemoryTelemetrySink,
    JsonlTelemetrySink,
    PlanDecision,
    RunTelemetry,
    ShardTelemetry,
    StageTiming,
    TelemetrySink,
    read_telemetry,
)

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "CpuProbe",
    "DEFAULT_POLICY",
    "ExecutionPolicy",
    "InMemoryTelemetrySink",
    "JsonlTelemetrySink",
    "PlanDecision",
    "RunTelemetry",
    "ShardTelemetry",
    "StageTiming",
    "TelemetrySink",
    "coerce_jobs",
    "plan_execution",
    "probe_cpu_count",
    "read_telemetry",
    "run_shards",
]
