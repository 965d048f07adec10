"""`ExecutionPolicy`: one object that says *how* the toolkit executes.

Every facade verb used to grow its own execution knobs (``jobs=`` on
``simulate``, ``cache=`` on ``analyze``/``full_report``) while having
no way to express the rest, such as telemetry.  The policy
bundles all of them into a single frozen value threaded through
:mod:`repro.api` and the CLI::

    import repro

    policy = repro.ExecutionPolicy(jobs="auto", cache=repro.AnalysisCache())
    trace = repro.simulate(scale=0.05, seed=7, policy=policy)
    report = repro.full_report(trace.dataset, policy=policy)

Fields:

* ``jobs`` — ``"auto"`` (default: a pool of the usable CPUs once the
  fleet reaches :data:`~repro.engine.adaptive.PARALLEL_MIN_SERVERS`
  servers, else serial), an ``int`` worker-count override, or
  ``"serial"``.
* ``cache`` — an :class:`~repro.engine.cache.AnalysisCache` threaded
  through the analysis verbs, or ``None``.
* ``telemetry_sink`` — anything with ``record(RunTelemetry)``; every
  engine run executed under the policy reports one document to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from repro.engine.cache import AnalysisCache
from repro.engine.telemetry import RunTelemetry, TelemetrySink

#: Valid string values of :attr:`ExecutionPolicy.jobs`.
JOBS_AUTO = "auto"
JOBS_SERIAL = "serial"


@dataclass(frozen=True)
class ExecutionPolicy:
    """How engine work should execute; see the module docstring."""

    jobs: Union[int, str] = JOBS_AUTO
    cache: Optional[AnalysisCache] = None
    telemetry_sink: Optional[TelemetrySink] = None

    def __post_init__(self) -> None:
        jobs = self.jobs
        if isinstance(jobs, bool) or (
            not isinstance(jobs, int) and jobs not in (JOBS_AUTO, JOBS_SERIAL)
        ):
            raise ValueError(
                f"ExecutionPolicy.jobs must be 'auto', 'serial' or an int, "
                f"got {jobs!r}"
            )
        if isinstance(jobs, int) and jobs < 1:
            raise ValueError(
                f"ExecutionPolicy.jobs must be >= 1 when numeric, got {jobs}"
            )
        if self.telemetry_sink is not None and not callable(
            getattr(self.telemetry_sink, "record", None)
        ):
            raise ValueError(
                "ExecutionPolicy.telemetry_sink must provide a "
                "record(RunTelemetry) method"
            )

    # ------------------------------------------------------------------
    def with_(self, **changes: Any) -> "ExecutionPolicy":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)

    def record(self, run: RunTelemetry) -> None:
        """Hand one finished run document to the sink, if any."""
        if self.telemetry_sink is not None:
            self.telemetry_sink.record(run)


#: The default policy: adaptive jobs, no cache, no telemetry.
DEFAULT_POLICY = ExecutionPolicy()


def coerce_jobs(value: Union[int, str]) -> Union[int, str]:
    """Normalize a user-supplied jobs value (CLI strings included).

    ``"4"`` becomes ``4``; ``"auto"``/``"serial"`` pass through;
    anything else raises ``ValueError`` with the accepted forms.
    """
    if isinstance(value, bool):
        raise ValueError(f"jobs must be 'auto', 'serial' or an int, got {value!r}")
    if isinstance(value, int):
        return value
    text = value.strip().lower()
    if text in (JOBS_AUTO, JOBS_SERIAL):
        return text
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"jobs must be 'auto', 'serial' or an int, got {value!r}"
        ) from None


__all__ = [
    "ExecutionPolicy",
    "DEFAULT_POLICY",
    "JOBS_AUTO",
    "JOBS_SERIAL",
    "coerce_jobs",
]
