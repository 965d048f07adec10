"""Execution planner: serial or a pool, decided by a measured rule.

The sharded trace engine is bit-identical to serial for any worker
count, so *how* to execute is purely a performance decision.

* :func:`probe_cpu_count` — how many cores this *process* may actually
  use: CPU affinity mask first, then the cgroup CPU quota (containers
  routinely advertise 64 ``os.cpu_count`` cores while capping the
  cgroup at 1), then ``os.cpu_count``.
* :func:`plan_execution` — the rule, recorded with its one-line reason
  as a :class:`~repro.engine.telemetry.PlanDecision`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.engine.telemetry import PlanDecision

if TYPE_CHECKING:
    from repro.simulation.trace import ShardTask

#: Modes a plan can choose.
MODE_SERIAL = "serial"
MODE_PARALLEL = "parallel"

#: Smallest fleet, in servers over all shards, on which ``jobs="auto"``
#: forks a pool.  Serial / pool of 2 (workers pinned), median wall seconds
#: of 7-9 alternating runs on a 2-CPU x86 VM: custom fleets of 40 servers
#: 0.009/0.038, 141 0.069/0.089, 546 0.17/0.18, 900 0.24/0.24 (no win);
#: the paper scenario at 1.35k 0.17/0.15, 4.5k 0.30/0.24, 18.5k 0.92/0.71.
PARALLEL_MIN_SERVERS = 1_000

#: Cgroup CPU-quota files, v2 then v1.
_CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


@dataclass(frozen=True)
class CpuProbe:
    """Usable-core count plus where the number came from."""

    count: int
    source: str


def _cgroup_quota_cpus() -> Optional[float]:
    """The cgroup CPU quota in fractional CPUs, or ``None`` when
    uncapped/unreadable."""
    try:  # cgroup v2: "<quota> <period>" or "max <period>"
        quota_text, period_text = (
            Path(_CGROUP_V2_CPU_MAX).read_text(encoding="ascii").split()
        )
        if quota_text != "max":
            return float(quota_text) / float(period_text)
        return None
    except (OSError, ValueError):
        pass
    try:  # cgroup v1: quota in us over period in us; -1 means uncapped
        quota = int(Path(_CGROUP_V1_QUOTA).read_text(encoding="ascii"))
        period = int(Path(_CGROUP_V1_PERIOD).read_text(encoding="ascii"))
        if quota > 0 and period > 0:
            return quota / period
    except (OSError, ValueError):
        pass
    return None


def probe_cpu_count() -> CpuProbe:
    """Cores this process may actually use, cgroup- and affinity-aware.

    Mirrors the py3.13 ``os.process_cpu_count`` behaviour on older
    runtimes (affinity mask), then applies the container CPU quota on
    top — a pod pinned to one core must plan like a 1-CPU machine no
    matter what the node's ``os.cpu_count`` says.
    """
    process_count = getattr(os, "process_cpu_count", None)
    if process_count is not None:  # pragma: no cover - py3.13+ only
        count = int(process_count() or 1)
        source = "process_cpu_count"
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
        source = "sched_getaffinity"
    else:  # pragma: no cover - platforms without affinity syscalls
        count = int(os.cpu_count() or 1)
        source = "cpu_count"
    quota = _cgroup_quota_cpus()
    if quota is not None and int(quota) < count:
        count = int(quota)
        source = "cgroup_quota"
    return CpuProbe(count=max(1, count), source=source)


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
def plan_execution(
    tasks: Sequence["ShardTask"],
    requested: Union[int, str] = "auto",
    *,
    probe: Optional[CpuProbe] = None,
) -> PlanDecision:
    """Decide how to execute ``tasks``: serial, or a pool of N workers.

    Serial for a ``"serial"`` request or an int <= 1, for a single
    shard, for one usable CPU, and for ``"auto"`` on a fleet of fewer
    than :data:`PARALLEL_MIN_SERVERS` servers; otherwise a pool of
    ``min(int or usable CPUs, shards)`` workers, fed in shard order.
    """
    cpu = probe if probe is not None else probe_cpu_count()
    n_shards = len(tasks)
    n_servers = sum(len(task.rows) for task in tasks)

    def decide(jobs: int, reason: str) -> PlanDecision:
        return PlanDecision(
            requested_jobs=str(requested),
            mode=MODE_PARALLEL if jobs > 1 else MODE_SERIAL,
            jobs=jobs,
            reason=reason,
            probed_cpus=cpu.count,
            cpu_source=cpu.source,
            n_shards=n_shards,
        )

    if requested == "serial":
        return decide(1, "policy requested serial execution")
    if requested != "auto" and not isinstance(requested, int):
        raise ValueError(
            f"unknown jobs request {requested!r}; expected 'auto', 'serial' "
            "or an int"
        )
    asked = "auto" if requested == "auto" else f"policy requested jobs={requested}"
    if isinstance(requested, int) and requested <= 1:
        return decide(1, asked)
    if n_shards <= 1:
        return decide(1, f"{asked}, but a single shard; nothing to parallelize")
    if cpu.count <= 1:
        return decide(
            1,
            f"{asked}, but only 1 usable CPU ({cpu.source}); a pool would "
            "only add overhead",
        )
    if isinstance(requested, int):
        return decide(min(requested, n_shards), asked)
    if n_servers < PARALLEL_MIN_SERVERS:
        return decide(
            1,
            f"auto, but {n_servers} servers is below the "
            f"{PARALLEL_MIN_SERVERS}-server pool floor",
        )
    return decide(
        min(cpu.count, n_shards),
        f"auto: {n_servers} servers in {n_shards} shards on {cpu.count} "
        f"usable CPUs ({cpu.source})",
    )


__all__ = [
    "MODE_SERIAL",
    "MODE_PARALLEL",
    "PARALLEL_MIN_SERVERS",
    "CpuProbe",
    "plan_execution",
    "probe_cpu_count",
]
