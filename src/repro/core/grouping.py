"""Vectorized group-by primitives for hot analysis paths.

Analyses group tickets by one stable sort over integer key columns
plus boundary detection — O(n log n) in numpy — instead of walking
``FOT`` objects into per-key buckets.  This module centralizes that
idiom so every analysis groups the same way:

* :func:`composite_key` packs two integer columns into one collision
  free ``int64`` key.
* :func:`group_slices` sorts a key column once and returns the group
  boundaries; callers slice per group (the per-*group* loop is over the
  handful of groups, not over n rows).
* :func:`gap_runs` splits time-sorted groups further into *runs*: a
  new run starts at each group boundary and wherever the time gap to
  the previous row exceeds a window (repeat chains).

All are pure functions over immutable inputs — safe on frozen
``ColumnStore`` column views.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def composite_key(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Pack two integer columns into one collision-free ``int64`` key.

    Keys order lexicographically by (major, minor).  ``minor`` may
    contain negative values (e.g. -1 sentinel codes); it is shifted to
    zero before packing.
    """
    major = np.asarray(major).astype(np.int64)
    minor = np.asarray(minor).astype(np.int64)
    if major.shape != minor.shape:
        raise ValueError(
            f"key columns differ in shape: {major.shape} vs {minor.shape}"
        )
    if major.size == 0:
        return major
    low = int(minor.min())
    span = int(minor.max()) - low + 1
    return major * span + (minor - low)


def group_slices(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable sort over ``keys`` -> per-group index slices.

    Returns ``(order, starts, stops)``: ``order`` is the stable argsort
    of ``keys`` (ties keep input order, so time-sorted input stays
    time-sorted within each group); group ``g`` occupies
    ``order[starts[g]:stops[g]]`` and groups appear in ascending key
    order.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"expected a 1-D key array, got shape {keys.shape}")
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        empty.setflags(write=False)
        return empty, empty, empty
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    )
    stops = np.r_[starts[1:], sorted_keys.size]
    return order, starts, stops


def gap_runs(
    group_starts: np.ndarray, times: np.ndarray, max_gap: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Split groups of time-sorted rows into gap-linked runs.

    ``times`` holds the rows already ordered by group, then by time;
    group ``g`` begins at row ``group_starts[g]`` (ascending, as
    :func:`group_slices` returns them).  A run starts at every group
    start and wherever the gap to the previous row is not
    ``<= max_gap``: a gap of exactly ``max_gap`` links, a NaN gap
    splits.  Returns ``(starts, stops)``: run ``r`` occupies rows
    ``starts[r]:stops[r]``, runs in row order.
    """
    times = np.asarray(times)
    splits = np.ones(times.size, dtype=bool)
    splits[1:] = ~(np.diff(times) <= max_gap)
    splits[np.asarray(group_starts, dtype=np.int64)] = True
    edges = np.flatnonzero(np.r_[splits, True])
    return edges[:-1], edges[1:]


__all__ = ["composite_key", "gap_runs", "group_slices"]
