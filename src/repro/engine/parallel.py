"""Process-parallel execution of planned trace shards.

The unit of work is fixed by the *plan*, not by the pool: one shard per
data center, each with its own spawned seed stream.  ``jobs`` only
decides how many worker processes drain the task list, so any job count
(including 1) produces bit-identical results.

Workers are primed via the pool initializer, which also pins each to
its own usable core: with the (preferred) ``fork`` start method the plan
is inherited copy-on-write and nothing is pickled on the way in; each
worker ships back its shard's raw
:class:`~repro.core.columns.ColumnStore` arrays, which the caller
concatenates once.  Environments that cannot spawn processes at all
fall back to in-process execution.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import os
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.simulation.trace import ShardResult, ShardShared, ShardTask

#: Worker-side plan storage, set once per worker by the pool initializer.
_WORKER_PLAN: Optional[Tuple["ShardShared", Sequence["ShardTask"]]] = None


def _init_worker(shared: "ShardShared", tasks: Sequence["ShardTask"], slots: Any) -> None:
    global _WORKER_PLAN
    _WORKER_PLAN = (shared, tasks)
    # One core per worker: on a 2-vCPU VM the scheduler was seen leaving
    # both fresh workers on one core for a whole run (half the pool idle).
    if hasattr(os, "sched_setaffinity"):
        with slots.get_lock():
            slot, slots.value = slots.value, slots.value + 1
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[slot % len(cores)]})


def _run_one(index: int) -> "ShardResult":
    from repro.simulation.trace import run_shard

    assert _WORKER_PLAN is not None, "worker pool was not initialized"
    shared, tasks = _WORKER_PLAN
    return run_shard(tasks[index], shared)


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_shards(
    tasks: Sequence["ShardTask"],
    shared: "ShardShared",
    jobs: int = 1,
) -> List["ShardResult"]:
    """Execute every :class:`~repro.simulation.trace.ShardTask` and
    return the :class:`~repro.simulation.trace.ShardResult` list in task
    order.

    ``jobs <= 1`` (or a single task) runs in-process; otherwise a pool
    of ``min(jobs, len(tasks))`` workers drains the tasks in index
    order.  Falls back to in-process execution when the platform
    refuses to fork/spawn.
    """
    from repro.simulation.trace import run_shard

    jobs = min(max(1, int(jobs)), len(tasks))
    if jobs <= 1:
        return [run_shard(task, shared) for task in tasks]
    ctx = _pool_context()
    try:
        slots = ctx.Value("i", 0)
        with ctx.Pool(
            processes=jobs, initializer=_init_worker, initargs=(shared, tasks, slots)
        ) as pool:
            return pool.map(_run_one, range(len(tasks)), chunksize=1)
    except (OSError, PermissionError):  # pragma: no cover - sandboxed hosts
        return [run_shard(task, shared) for task in tasks]


__all__ = ["run_shards"]
