"""The columnar repeat analysis equals the object-walking oracle.

:func:`repro.analysis.repeating.repeat_chains` and
:func:`~repro.analysis.repeating.repeating_stats` run on columns; the
reference implementation in :mod:`tests.oracles.repeating_ref` walks
``FOT`` objects.  They must agree exactly: the same ``RepeatingStats``
and the same chain keys, in the same order, with the same ``fot_id``
sequences — on random datasets, on corrupted dumps loaded leniently,
and on each edge case of the chain rules (tied times, a gap of exactly
the window, equal-length runs on one key, a FIXING ticket only at the
end, ``None`` slot or failure type, rows not sorted by time).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import repeating
from repro.core import io as core_io
from repro.core.columns import ColumnBuilder
from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY
from repro.core.types import ComponentClass, FOTCategory, OperatorAction
from repro.robustness.chaos import CORRUPTION_KINDS, CorruptionSpec, corrupt_dataset
from tests.oracles import repeating_ref
from tests.test_ticket import make_ticket

_WINDOWS_DAYS = (0.5, 2.0, repeating.DEFAULT_REPEAT_WINDOW_DAYS)
_CATEGORIES = list(FOTCategory)
_ACTIONS = {
    FOTCategory.FIXING: OperatorAction.REPAIR_ORDER,
    FOTCategory.FALSE_ALARM: OperatorAction.MARK_FALSE_ALARM,
}


def _ticket(fot_id, time, category, host=1, slot=0, error_type="SMARTFail",
            device=ComponentClass.HDD):
    return make_ticket(
        fot_id=fot_id,
        host_id=host,
        device_slot=slot,
        error_type=error_type,
        error_device=device,
        error_time=float(time),
        category=category,
        action=_ACTIONS.get(category),
        op_time=None if category is FOTCategory.ERROR else float(time) + 3600.0,
    )


def _builder_route(tickets):
    builder = ColumnBuilder()
    for ticket in tickets:
        builder.append_ticket(ticket)
    return FOTDataset.from_store(builder.build())


def _chain_ids(chains):
    return [(key, [t.fot_id for t in chain]) for key, chain in chains.items()]


def _assert_matches_oracle(dataset, window_days=repeating.DEFAULT_REPEAT_WINDOW_DAYS):
    got = repeating.repeat_chains(dataset, window_days)
    want = repeating_ref.repeat_chains(dataset, window_days)
    assert _chain_ids(got) == _chain_ids(want)
    assert got == want
    if len(dataset.failures()) == 0:
        with pytest.raises(ValueError):
            repeating.repeating_stats(dataset)
        return
    assert repeating.repeating_stats(dataset) == repeating_ref.repeating_stats(dataset)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
@st.composite
def _history(draw, window_s, first_id):
    """One component's occurrences, with gaps drawn around the window:
    ties (0), exactly the window, just over it, and values well inside
    or beyond it — so runs link, split and tie in every way."""
    host = draw(st.integers(min_value=0, max_value=2))
    slot = draw(st.integers(min_value=0, max_value=1))
    error_type = draw(st.sampled_from(["SMARTFail", "NotReady", None]))
    device = draw(st.sampled_from([ComponentClass.HDD, ComponentClass.MEMORY]))
    n = draw(st.integers(min_value=1, max_value=7))
    gaps = st.sampled_from([0, window_s, window_s + 1, window_s // 3, 3 * window_s])
    time = draw(st.integers(min_value=0, max_value=4 * window_s))
    tickets = []
    for i in range(n):
        if i:
            time += draw(gaps)
        category = draw(st.sampled_from(_CATEGORIES))
        tickets.append(
            _ticket(first_id + i, time, category, host, slot, error_type, device)
        )
    return tickets


@st.composite
def _datasets(draw):
    """``(dataset, window_days)``: a few component histories (keys may
    repeat, so histories interleave), rows shuffled out of time order,
    built by either construction route."""
    window_days = draw(st.sampled_from(_WINDOWS_DAYS))
    window_s = int(window_days * DAY)
    tickets = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        tickets += draw(_history(window_s, first_id=len(tickets)))
    tickets = draw(st.permutations(tickets))
    build = draw(st.sampled_from([FOTDataset, _builder_route]))
    return build(tickets), window_days


@st.composite
def _equal_length_runs(draw):
    """Two or three runs of the same length on one key, each with a
    non-final FIXING ticket, separated by more than the window."""
    window_s = int(repeating.DEFAULT_REPEAT_WINDOW_DAYS * DAY)
    length = draw(st.integers(min_value=2, max_value=4))
    tickets = []
    for run in range(draw(st.integers(min_value=2, max_value=3))):
        start = run * 3 * window_s
        for i in range(length):
            category = FOTCategory.FIXING if i == 0 else draw(
                st.sampled_from([FOTCategory.FIXING, FOTCategory.ERROR])
            )
            tickets.append(_ticket(len(tickets), start + i * DAY, category))
    return draw(st.permutations(tickets))


class TestOracleEquivalence:
    @given(case=_datasets())
    @settings(max_examples=150, deadline=None)
    def test_random_datasets(self, case):
        dataset, window_days = case
        _assert_matches_oracle(dataset, window_days)

    @given(tickets=_equal_length_runs())
    @settings(max_examples=30, deadline=None)
    def test_first_of_equal_length_runs_wins(self, tickets):
        dataset = FOTDataset(tickets)
        _assert_matches_oracle(dataset)
        (chain,) = repeating.repeat_chains(dataset).values()
        assert chain[0].error_time == 0.0

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        intensity=st.sampled_from([0.05, 0.2]),
        kinds=st.lists(st.sampled_from(CORRUPTION_KINDS), min_size=1, max_size=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_corrupted_dumps(self, tiny_dataset, seed, intensity, kinds):
        specs = [CorruptionSpec(kind, intensity) for kind in kinds]
        records, _ = corrupt_dataset(tiny_dataset, specs, seed=seed)
        dataset, _ = core_io.parse_records(
            enumerate(records, start=1), strict=False, source="chaos"
        )
        _assert_matches_oracle(dataset)

    def test_paper_trace(self, small_dataset):
        _assert_matches_oracle(small_dataset)


class TestEdgeCases:
    window_s = repeating.DEFAULT_REPEAT_WINDOW_DAYS * DAY

    def test_tied_times_keep_input_order(self):
        tickets = [
            _ticket(1, 0.0, FOTCategory.ERROR),
            _ticket(2, 0.0, FOTCategory.FIXING),
            _ticket(3, 0.0, FOTCategory.ERROR),
        ]
        for build in (FOTDataset, _builder_route):
            dataset = build(tickets)
            _assert_matches_oracle(dataset)
            (chain,) = repeating.repeat_chains(dataset).values()
            assert [t.fot_id for t in chain] == [1, 2, 3]

    def test_gap_of_exactly_the_window_links(self):
        tickets = [
            _ticket(1, 0.0, FOTCategory.FIXING),
            _ticket(2, self.window_s, FOTCategory.FIXING),
        ]
        _assert_matches_oracle(FOTDataset(tickets))
        assert len(repeating.repeat_chains(FOTDataset(tickets))) == 1
        tickets[1] = _ticket(2, self.window_s + 1.0, FOTCategory.FIXING)
        assert repeating.repeat_chains(FOTDataset(tickets)) == {}

    def test_fixing_only_at_the_end_is_not_a_repeat(self):
        tickets = [
            _ticket(1, 0.0, FOTCategory.ERROR),
            _ticket(2, DAY, FOTCategory.FIXING),
        ]
        _assert_matches_oracle(FOTDataset(tickets))
        assert repeating.repeat_chains(FOTDataset(tickets)) == {}
        stats = repeating.repeating_stats(FOTDataset(tickets))
        assert (stats.n_fixed_components, stats.n_repeating_components) == (1, 0)

    def test_none_error_type_is_its_own_key(self):
        tickets = [
            _ticket(1, 0.0, FOTCategory.FIXING, error_type=None),
            _ticket(2, DAY, FOTCategory.FIXING, error_type=None),
            _ticket(3, 2 * DAY, FOTCategory.FIXING),
        ]
        for build in (FOTDataset, _builder_route):
            dataset = build(tickets)
            _assert_matches_oracle(dataset)
            assert list(repeating.repeat_chains(dataset)) == [(1, "hdd", 0, None)]

    def test_none_slot_loads_as_slot_zero(self):
        records = [
            core_io._ticket_to_record(_ticket(i, i * DAY, FOTCategory.FIXING, slot=slot), True)
            for i, slot in enumerate([0, 0, 1])
        ]
        records[1]["device_slot"] = None
        dataset = core_io.parse_records(enumerate(records, start=1))
        _assert_matches_oracle(dataset)
        (chain,) = repeating.repeat_chains(dataset).values()
        assert [t.fot_id for t in chain] == [0, 1]

    def test_unsorted_rows(self):
        tickets = [
            _ticket(3, 2 * DAY, FOTCategory.ERROR),
            _ticket(1, 0.0, FOTCategory.FIXING),
            _ticket(2, DAY, FOTCategory.ERROR),
        ]
        dataset = FOTDataset(tickets)
        _assert_matches_oracle(dataset)
        (chain,) = repeating.repeat_chains(dataset).values()
        assert [t.fot_id for t in chain] == [1, 2, 3]

    def test_false_alarms_are_ignored(self):
        tickets = [
            _ticket(1, 0.0, FOTCategory.FIXING),
            _ticket(2, DAY, FOTCategory.FALSE_ALARM),
        ]
        _assert_matches_oracle(FOTDataset(tickets))
        assert repeating.repeat_chains(FOTDataset(tickets)) == {}

    def test_empty_dataset(self):
        _assert_matches_oracle(FOTDataset([]))
        with pytest.raises(ValueError):
            repeating.repeat_chains(FOTDataset([]), window_days=0)
