"""Repeating failures — Section III-D and Table VIII.

A *repeated failure* is a problem marked solved (the operator issued a
repair order, or an automatic reboot closed it) that then happens again:
same server, same component slot, same failure type.  The paper finds
that replacement-style repairs are effective — over 85 % of fixed
components never repeat — but a small population of servers (~4.5 % of
those that ever failed) flaps, with one extreme server reporting 400+
RAID/HDD failures from a single BBU root cause.

Some of those flapping servers repeat *synchronously* with a
near-identical neighbour (Table VIII), which this module detects by
matching failure timestamps across servers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columns import CATEGORY_CODE
from repro.core.dataset import FOTDataset
from repro.core.grouping import gap_runs, group_slices
from repro.core.timeutil import DAY
from repro.core.ticket import FOT
from repro.core.types import FOTCategory

#: A component identity for repeat detection: host, class, slot, type.
RepeatKey = Tuple[int, str, int, str]


@dataclass(frozen=True)
class RepeatingStats:
    """Headline repeat statistics (Section III-D)."""

    n_fixed_components: int
    n_repeating_components: int
    n_failed_servers: int
    n_repeating_servers: int
    max_failures_single_server: int
    max_failures_host_id: int

    @property
    def repeat_free_fraction(self) -> float:
        """Fraction of fixed components that never repeated (paper:
        over 85 %)."""
        if self.n_fixed_components == 0:
            raise ValueError("no fixed components")
        return 1.0 - self.n_repeating_components / self.n_fixed_components

    @property
    def repeating_server_fraction(self) -> float:
        """Fraction of ever-failed servers with repeating failures
        (paper: ~4.5 %)."""
        if self.n_failed_servers == 0:
            raise ValueError("no failed servers")
        return self.n_repeating_servers / self.n_failed_servers


#: Default linking window: a recurrence more than this long after the
#: previous occurrence is treated as a *new* failure of the replacement
#: module, not a repeat of the "solved" problem.
DEFAULT_REPEAT_WINDOW_DAYS = 60.0

_FIXING = CATEGORY_CODE[FOTCategory.FIXING]


def _chain_runs(
    failures: FOTDataset, window_days: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each component key's first longest qualifying run, columnar:
    chain ``c`` is failure positions ``rows[starts[c]:stops[c]]``, in
    order of the key's first failure; ``n_fixed`` counts keys holding a
    FIXING ticket.  Error-type codes come from an interned (injective)
    table, so they compare as the type names do."""
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    by_time = np.argsort(failures.error_times, kind="stable")
    key = np.stack((failures.error_type_codes, failures.device_slots,
                    failures.component_codes, failures.host_ids))[:, by_time]
    time_rank = np.lexsort(key)
    key = key[:, time_rank]
    # A key group starts at row 0 and wherever any key column changes.
    new_key = np.ones(time_rank.size, dtype=bool)
    new_key[1:] = (key[:, 1:] != key[:, :-1]).any(axis=0)
    key_starts = np.flatnonzero(new_key)
    rows = by_time[time_rank]
    starts, stops = gap_runs(key_starts, failures.error_times[rows], window_days * DAY)
    fixing = np.r_[0, np.cumsum(failures.category_codes[rows] == _FIXING)]
    # A run qualifies with >= 2 tickets and a FIXING one before its last.
    runs = np.flatnonzero((stops - starts >= 2) & (fixing[stops - 1] > fixing[starts]))
    keys = np.searchsorted(key_starts, starts[runs], side="right") - 1
    # Stable sort: among a key's longest runs the earliest comes first.
    order = np.lexsort((starts[runs] - stops[runs], keys))
    _, lead = np.unique(keys[order], return_index=True)
    runs, keys = runs[order][lead], keys[order][lead]
    runs = runs[np.argsort(time_rank[key_starts[keys]])]
    n_fixed = int(np.count_nonzero(np.diff(fixing[np.r_[key_starts, rows.size]])))
    return rows, starts[runs], stops[runs], n_fixed


def repeat_chains(
    dataset: FOTDataset,
    window_days: float = DEFAULT_REPEAT_WINDOW_DAYS,
) -> Dict[RepeatKey, List[FOT]]:
    """Group *fixed-then-recurred* failures by component identity.

    Two occurrences of the same (host, class, slot, type) are linked
    into a chain when the later one follows within ``window_days`` of
    the earlier — operators replace the whole module, so a failure of
    the same slot years later is the replacement wearing out, not an
    ineffective repair.  Only chains where a non-final occurrence was
    actually closed as D_fixing count (an unrepaired D_error component
    failing again is expected, not a repeat of a "solved" problem).
    A key keeps its first longest such chain.  Returned chains are
    time-ordered and have length >= 2, keyed in order of each key's
    first failure; only the chains' own tickets are materialized.
    """
    failures = dataset.failures()
    rows, starts, stops, _ = _chain_runs(failures, window_days)
    chains: Dict[RepeatKey, List[FOT]] = {}
    for start, stop in zip(starts, stops):
        chain = list(failures.take(rows[start:stop]))
        head = chain[0]
        chains[(head.host_id, head.error_device.value, head.device_slot, head.error_type)] = chain
    return chains


def repeating_stats(dataset: FOTDataset) -> RepeatingStats:
    """Compute the Section III-D headline numbers (no ticket is
    materialized)."""
    failures = dataset.failures()
    if len(failures) == 0:
        raise ValueError("no failures in dataset")
    rows, starts, _, n_fixed = _chain_runs(failures, DEFAULT_REPEAT_WINDOW_DAYS)

    host_ids, counts = np.unique(failures.host_ids, return_counts=True)
    worst = int(np.argmax(counts))
    return RepeatingStats(
        n_fixed_components=n_fixed,
        n_repeating_components=int(starts.size),
        n_failed_servers=int(host_ids.size),
        n_repeating_servers=int(np.unique(failures.host_ids[rows[starts]]).size),
        max_failures_single_server=int(counts[worst]),
        max_failures_host_id=int(host_ids[worst]),
    )


@dataclass(frozen=True)
class SynchronousGroup:
    """Servers whose failures repeatedly co-occur (Table VIII)."""

    host_ids: Tuple[int, ...]
    n_synchronized: int
    example_times: Tuple[float, ...]


def synchronous_groups(
    dataset: FOTDataset,
    window_seconds: float = 60.0,
    min_matches: int = 3,
    min_failures: int = 3,
) -> List[SynchronousGroup]:
    """Find pairs of servers that fail in lockstep.

    Two servers are synchronized when at least ``min_matches`` of their
    failure timestamps fall into the same ``window_seconds`` bucket.
    Only servers with at least ``min_failures`` failures are considered
    (singleton coincidences are unavoidable at fleet scale — the paper's
    point is the *repeated* alignment).
    """
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    failures = dataset.failures()
    order, starts, stops = group_slices(failures.host_ids)
    eligible: Dict[int, np.ndarray] = {}
    for start, stop in zip(starts, stops):
        if stop - start < min_failures:
            continue
        rows = order[start:stop]
        eligible[int(failures.host_ids[rows[0]])] = failures.error_times[
            rows
        ]

    bucket_hosts: Dict[int, set] = defaultdict(set)
    for host, host_times in eligible.items():
        buckets = np.unique((host_times // window_seconds).astype(np.int64))
        for b in buckets:
            bucket_hosts[int(b)].add(host)

    pair_buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for bucket, hosts in bucket_hosts.items():
        if len(hosts) < 2 or len(hosts) > 50:
            # Very crowded buckets are batch failures, not synchronous
            # repeats; skip them (the batch analysis covers those).
            continue
        ordered = sorted(hosts)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                pair_buckets[(a, b)].append(bucket)

    groups: List[SynchronousGroup] = []
    for (a, b), buckets in pair_buckets.items():
        if len(buckets) >= min_matches:
            groups.append(
                SynchronousGroup(
                    host_ids=(a, b),
                    n_synchronized=len(buckets),
                    example_times=tuple(
                        float(bucket * window_seconds) for bucket in sorted(buckets)[:5]
                    ),
                )
            )
    groups.sort(key=lambda g: g.n_synchronized, reverse=True)
    return groups


__all__ = [
    "RepeatKey",
    "RepeatingStats",
    "repeat_chains",
    "repeating_stats",
    "SynchronousGroup",
    "synchronous_groups",
]
