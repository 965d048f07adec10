"""Group-by primitives: group boundaries and gap-linked runs."""

import numpy as np

from repro.core.grouping import gap_runs, group_slices


def _runs(group_starts, times, max_gap):
    starts, stops = gap_runs(np.asarray(group_starts), np.asarray(times, float), max_gap)
    return list(zip(starts.tolist(), stops.tolist()))


class TestGapRuns:
    def test_gap_of_exactly_max_gap_links(self):
        assert _runs([0], [0.0, 5.0, 10.0], 5.0) == [(0, 3)]

    def test_larger_gap_splits(self):
        assert _runs([0], [0.0, 5.0, 10.5, 11.0], 5.0) == [(0, 2), (2, 4)]

    def test_group_start_always_splits(self):
        assert _runs([0, 2], [0.0, 1.0, 1.0, 2.0], 5.0) == [(0, 2), (2, 4)]

    def test_nan_gap_splits(self):
        assert _runs([0], [0.0, np.nan, 1.0], 5.0) == [(0, 1), (1, 2), (2, 3)]

    def test_ties_link(self):
        assert _runs([0], [3.0, 3.0, 3.0], 0.0) == [(0, 3)]

    def test_empty(self):
        assert _runs([], [], 1.0) == []

    def test_composes_with_group_slices(self):
        keys = np.array([2, 1, 2, 1, 2])
        times = np.array([0.0, 0.0, 1.0, 9.0, 9.0])
        order, starts, _ = group_slices(keys)
        run_starts, run_stops = gap_runs(starts, times[order], 2.0)
        runs = [order[a:b].tolist() for a, b in zip(run_starts, run_stops)]
        assert runs == [[1], [3], [0, 2], [4]]
