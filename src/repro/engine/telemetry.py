"""Structured execution telemetry: what ran, where time went, and why.

Every engine run — trace generation, a facade ``analyze``, a cached
``full_report`` — can emit one :class:`RunTelemetry` document: the plan
the execution planner chose (and *why*), per-stage wall/CPU timings,
per-shard execution records and a cache-counter snapshot.  The
dataclasses are frozen and serialize to a stable JSON schema
(:data:`TELEMETRY_SCHEMA_VERSION`), so the bench, the ingestion
service's ``/metrics`` document and the ``fouryears telemetry``
subcommand all read the same shape.

Durations are monotonic (``time.perf_counter`` wall, the process-wide
``time.process_time`` CPU clock) — telemetry carries *no* wall-clock
timestamps, keeping the deterministic packages free of ``time.time()``
reads.  Telemetry is observational only: recording it never changes
what an engine run computes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Protocol, Tuple, Union, runtime_checkable

#: Version of the JSON document layout.  Bump on any key rename or
#: semantic change; readers refuse documents from a newer schema.
#: v2 dropped the plan's dispatch strategy and ``estimated_*`` seconds
#: and each shard's ``estimated_cost``/``dispatch_order``/``queue_depth``;
#: v1 documents still read, their extra keys ignored.
TELEMETRY_SCHEMA_VERSION = 2

#: ``RunTelemetry.kind`` values.
KIND_TRACE = "trace"
KIND_ANALYZE = "analyze"
KIND_REPORT = "report"
KIND_COMPARE = "compare"

_KINDS = frozenset({KIND_TRACE, KIND_ANALYZE, KIND_REPORT, KIND_COMPARE})


class TelemetryError(ValueError):
    """A telemetry document could not be decoded."""


@dataclass(frozen=True)
class StageTiming:
    """One named stage of a run (``plan`` / ``execute`` / ``assemble`` /
    a report section / ...)."""

    name: str
    wall_seconds: float
    cpu_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }


@dataclass(frozen=True)
class ShardTelemetry:
    """One executed trace shard (one data center)."""

    index: int
    idc: str
    n_servers: int
    n_tickets: int
    wall_seconds: float
    cpu_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "idc": self.idc,
            "n_servers": self.n_servers,
            "n_tickets": self.n_tickets,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }


@dataclass(frozen=True)
class PlanDecision:
    """The plan the execution planner chose, and why.

    ``requested_jobs`` is the policy's verbatim request (``"auto"``,
    ``"serial"`` or a digit string); ``jobs`` is the effective worker
    count (1 when ``mode`` is ``"serial"``).  ``reason`` is a short
    human-readable sentence — the replacement for the old single-CPU
    ``RuntimeWarning``, recorded instead of printed.
    """

    requested_jobs: str
    mode: str  # "serial" | "parallel"
    jobs: int
    reason: str
    probed_cpus: int
    cpu_source: str
    n_shards: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requested_jobs": self.requested_jobs,
            "mode": self.mode,
            "jobs": self.jobs,
            "reason": self.reason,
            "probed_cpus": self.probed_cpus,
            "cpu_source": self.cpu_source,
            "n_shards": self.n_shards,
        }


@dataclass(frozen=True)
class RunTelemetry:
    """One engine run, self-describing and JSON-stable.

    ``plan``/``shards`` are populated for trace generation; analysis
    runs carry per-section stages and a ``cache`` counter snapshot
    instead.  ``to_json``/``from_json`` round-trip exactly.
    """

    kind: str
    stages: Tuple[StageTiming, ...] = ()
    plan: Optional[PlanDecision] = None
    shards: Tuple[ShardTelemetry, ...] = ()
    cache: Optional[Mapping[str, int]] = None
    schema_version: int = TELEMETRY_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise TelemetryError(
                f"unknown telemetry kind {self.kind!r}; expected one of "
                f"{sorted(_KINDS)}"
            )

    # ------------------------------------------------------------------
    @property
    def total_wall_seconds(self) -> float:
        for stage in self.stages:
            if stage.name == "total":
                return stage.wall_seconds
        return sum(s.wall_seconds for s in self.stages)

    def stage(self, name: str) -> Optional[StageTiming]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "plan": None if self.plan is None else self.plan.to_dict(),
            "stages": [s.to_dict() for s in self.stages],
            "shards": [s.to_dict() for s in self.shards],
            "cache": None if self.cache is None else dict(self.cache),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunTelemetry":
        try:
            version = int(doc["schema_version"])
            if version > TELEMETRY_SCHEMA_VERSION:
                raise TelemetryError(
                    f"telemetry schema v{version} is newer than this "
                    f"reader (v{TELEMETRY_SCHEMA_VERSION})"
                )
            plan_doc = doc.get("plan")
            cache_doc = doc.get("cache")
            return cls(
                kind=str(doc["kind"]),
                stages=tuple(
                    StageTiming(
                        name=str(s["name"]),
                        wall_seconds=float(s["wall_seconds"]),
                        cpu_seconds=float(s["cpu_seconds"]),
                    )
                    for s in doc["stages"]
                ),
                plan=(
                    None
                    if plan_doc is None
                    else PlanDecision(
                        requested_jobs=str(plan_doc["requested_jobs"]),
                        mode=str(plan_doc["mode"]),
                        jobs=int(plan_doc["jobs"]),
                        reason=str(plan_doc["reason"]),
                        probed_cpus=int(plan_doc["probed_cpus"]),
                        cpu_source=str(plan_doc["cpu_source"]),
                        n_shards=int(plan_doc["n_shards"]),
                    )
                ),
                shards=tuple(
                    ShardTelemetry(
                        index=int(s["index"]),
                        idc=str(s["idc"]),
                        n_servers=int(s["n_servers"]),
                        n_tickets=int(s["n_tickets"]),
                        wall_seconds=float(s["wall_seconds"]),
                        cpu_seconds=float(s["cpu_seconds"]),
                    )
                    for s in doc["shards"]
                ),
                cache=(None if cache_doc is None else dict(cache_doc)),
                schema_version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TelemetryError):
                raise
            raise TelemetryError(f"malformed telemetry document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunTelemetry":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"telemetry is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise TelemetryError("telemetry document must be a JSON object")
        return cls.from_dict(doc)

    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple[str, str]]:
        """Headline (key, value) rows for table rendering."""
        rows: List[Tuple[str, str]] = [("kind", self.kind)]
        if self.plan is not None:
            rows.extend(
                [
                    ("plan", f"{self.plan.mode} (jobs={self.plan.jobs})"),
                    ("reason", self.plan.reason),
                    (
                        "cpus",
                        f"{self.plan.probed_cpus} ({self.plan.cpu_source})",
                    ),
                    ("shards", str(self.plan.n_shards)),
                ]
            )
        for stage in self.stages:
            rows.append(
                (
                    f"stage:{stage.name}",
                    f"{stage.wall_seconds:.3f}s wall / "
                    f"{stage.cpu_seconds:.3f}s cpu",
                )
            )
        if self.cache is not None:
            hits = int(self.cache.get("hits", 0))
            misses = int(self.cache.get("misses", 0))
            looked = hits + misses
            rate = hits / looked if looked else 0.0
            rows.append(("cache", f"{hits}/{looked} hits ({rate:.0%})"))
        return rows


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
@runtime_checkable
class TelemetrySink(Protocol):
    """Anything that accepts finished :class:`RunTelemetry` documents."""

    def record(self, run: RunTelemetry) -> None:
        """Accept one finished run document."""
        ...  # pragma: no cover - protocol body


@dataclass
class InMemoryTelemetrySink:
    """Collects run documents in order; the default sink for tests and
    the ingestion service's ``/metrics`` surface."""

    runs: List[RunTelemetry] = field(default_factory=list)

    def record(self, run: RunTelemetry) -> None:
        self.runs.append(run)

    @property
    def last(self) -> Optional[RunTelemetry]:
        return self.runs[-1] if self.runs else None

    def last_of(self, kind: str) -> Optional[RunTelemetry]:
        for run in reversed(self.runs):
            if run.kind == kind:
                return run
        return None


@dataclass
class JsonlTelemetrySink:
    """Appends one JSON document per run to a ``.jsonl`` file.

    The file is append-only so several runs (e.g. a simulate followed
    by a report) accumulate; ``fouryears telemetry`` reads it back.
    """

    path: Union[str, Path]

    def record(self, run: RunTelemetry) -> None:
        target = Path(self.path)
        if target.parent != Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("a", encoding="utf-8") as handle:
            handle.write(run.to_json() + "\n")


def read_telemetry(path: Union[str, Path]) -> List[RunTelemetry]:
    """Read every run document from a telemetry ``.jsonl`` file."""
    runs: List[RunTelemetry] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            runs.append(RunTelemetry.from_json(line))
        except TelemetryError as exc:
            raise TelemetryError(f"{path}:{lineno}: {exc}") from exc
    return runs


# ----------------------------------------------------------------------
# schema self-check (wired into the CI lint job)
# ----------------------------------------------------------------------
def _sample_run() -> RunTelemetry:
    return RunTelemetry(
        kind=KIND_TRACE,
        plan=PlanDecision(
            requested_jobs="auto",
            mode="parallel",
            jobs=2,
            reason="sample",
            probed_cpus=4,
            cpu_source="sched_getaffinity",
            n_shards=3,
        ),
        stages=(
            StageTiming("plan", 0.1, 0.1),
            StageTiming("execute", 1.0, 1.9),
            StageTiming("assemble", 0.05, 0.05),
            StageTiming("total", 1.15, 2.05),
        ),
        shards=(
            ShardTelemetry(0, "dc00", 100, 1200, 0.5, 0.5),
            ShardTelemetry(1, "dc01", 140, 1700, 0.6, 0.6),
            ShardTelemetry(2, "dc02", 80, 900, 0.4, 0.4),
        ),
        cache={"hits": 3, "misses": 1},
    )


def schema_selfcheck() -> None:
    """Assert the telemetry schema round-trips exactly.

    Raises :class:`TelemetryError` (or ``AssertionError``) on any
    drift between the dataclasses and the JSON document layout.  Run
    in CI next to reprolint: ``python -c "from repro.engine import
    telemetry; telemetry.schema_selfcheck()"``.
    """
    sample = _sample_run()
    decoded = RunTelemetry.from_json(sample.to_json())
    if decoded != sample:
        raise TelemetryError("telemetry schema does not round-trip")
    expected_keys = {"schema_version", "kind", "plan", "stages", "shards", "cache"}
    if set(sample.to_dict()) != expected_keys:
        raise TelemetryError(
            f"telemetry top-level keys drifted: {sorted(sample.to_dict())}"
        )
    empty = RunTelemetry(kind=KIND_ANALYZE)
    if RunTelemetry.from_json(empty.to_json()) != empty:
        raise TelemetryError("empty telemetry document does not round-trip")
    # Frozen means frozen: documents can be shared across threads.
    for cls in (RunTelemetry, PlanDecision, StageTiming, ShardTelemetry):
        params = getattr(cls, "__dataclass_params__")
        if not params.frozen:
            raise TelemetryError(f"{cls.__name__} must be a frozen dataclass")


__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "KIND_TRACE",
    "KIND_ANALYZE",
    "KIND_REPORT",
    "KIND_COMPARE",
    "TelemetryError",
    "StageTiming",
    "ShardTelemetry",
    "PlanDecision",
    "RunTelemetry",
    "TelemetrySink",
    "InMemoryTelemetrySink",
    "JsonlTelemetrySink",
    "read_telemetry",
    "schema_selfcheck",
]
