"""Slow reference oracle for :mod:`repro.analysis.repeating`.

The object-walking implementation of ``repeat_chains`` and
``repeating_stats``: iterate every failure as an ``FOT`` in time
order, bucket by component key, split each bucket on the window and
keep the first longest run holding a non-final FIXING ticket.  Kept
here, never on a hot path, so property tests can pin the columnar
implementation to it exactly.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro.analysis.repeating import (
    DEFAULT_REPEAT_WINDOW_DAYS,
    RepeatingStats,
    RepeatKey,
)
from repro.core.dataset import FOTDataset
from repro.core.ticket import FOT
from repro.core.timeutil import DAY
from repro.core.types import FOTCategory


def repeat_key(ticket: FOT) -> RepeatKey:
    return (
        ticket.host_id,
        ticket.error_device.value,
        ticket.device_slot,
        ticket.error_type,
    )


def repeat_chains(
    dataset: FOTDataset,
    window_days: float = DEFAULT_REPEAT_WINDOW_DAYS,
) -> Dict[RepeatKey, List[FOT]]:
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    window = window_days * DAY
    by_key: Dict[RepeatKey, List[FOT]] = defaultdict(list)
    for ticket in dataset.failures().sorted_by_time():
        by_key[repeat_key(ticket)].append(ticket)

    chains: Dict[RepeatKey, List[FOT]] = {}
    for key, tickets in by_key.items():
        if len(tickets) < 2:
            continue
        run: List[FOT] = [tickets[0]]
        best: List[FOT] = []

        def consider(candidate: List[FOT]) -> None:
            nonlocal best
            if len(candidate) < 2:
                return
            if not any(t.category is FOTCategory.FIXING for t in candidate[:-1]):
                return
            if len(candidate) > len(best):
                best = list(candidate)

        for prev, cur in zip(tickets, tickets[1:]):
            if cur.error_time - prev.error_time <= window:
                run.append(cur)
            else:
                consider(run)
                run = [cur]
        consider(run)
        if best:
            chains[key] = best
    return chains


def repeating_stats(dataset: FOTDataset) -> RepeatingStats:
    failures = dataset.failures()
    if len(failures) == 0:
        raise ValueError("no failures in dataset")

    fixed_components = {
        repeat_key(t) for t in failures if t.category is FOTCategory.FIXING
    }
    chains = repeat_chains(dataset)
    repeating_components = set(chains) & fixed_components
    repeating_servers = {key[0] for key in chains}

    host_ids, counts = np.unique(failures.host_ids, return_counts=True)
    worst = int(np.argmax(counts))
    return RepeatingStats(
        n_fixed_components=len(fixed_components),
        n_repeating_components=len(repeating_components),
        n_failed_servers=int(host_ids.size),
        n_repeating_servers=len(repeating_servers),
        max_failures_single_server=int(counts[worst]),
        max_failures_host_id=int(host_ids[worst]),
    )
