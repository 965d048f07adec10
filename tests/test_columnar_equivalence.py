"""View-equivalence property tests for the columnar dataset core.

The columnar :class:`~repro.core.dataset.FOTDataset` must be
indistinguishable from a row-first container built from the same
tickets: every filter, slice, concat and grouping returns the same
tickets, the same columns and the same ``summary()``.  The "row-first
reference" here is a dataset freshly wrapped around the ticket objects
(:meth:`ColumnStore.from_tickets` path), compared against one built
through :class:`~repro.core.columns.ColumnBuilder` (the loader /
pipeline path) — the two construction routes must converge.

Also verifies the zero-materialization guarantee: subsetting and
grouping a builder-built dataset allocates no ``FOT`` objects.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.full_report import full_report
from repro.core.columns import ColumnBuilder
from repro.core.dataset import FOTDataset
from repro.core.storage import load_columnar, save_columnar
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from tests.test_ticket import make_ticket

_COMPONENTS = list(ComponentClass)
_CATEGORIES = list(FOTCategory)
_SOURCES = list(DetectionSource)

_COMPARED_COLUMNS = [
    "fot_ids",
    "host_ids",
    "error_times",
    "op_times",
    "response_times",
    "deployed_ats",
    "positions",
    "device_slots",
    "category_codes",
    "component_codes",
    "source_codes",
    "action_codes",
    "idc_codes",
    "product_line_codes",
    "error_type_codes",
    "operator_id_codes",
]


@st.composite
def _ticket(draw, fot_id):
    category = draw(st.sampled_from(_CATEGORIES))
    closed = category is not FOTCategory.ERROR
    error_time = draw(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
    )
    action = {
        FOTCategory.FIXING: OperatorAction.REPAIR_ORDER,
        FOTCategory.FALSE_ALARM: OperatorAction.MARK_FALSE_ALARM,
    }.get(category)
    return make_ticket(
        fot_id=fot_id,
        host_id=draw(st.integers(min_value=0, max_value=5)),
        host_idc=f"dc{draw(st.integers(min_value=0, max_value=3)):02d}",
        error_device=draw(st.sampled_from(_COMPONENTS)),
        error_type=draw(st.sampled_from(["SMARTFail", "NotReady", "FanStall"])),
        error_time=error_time,
        error_position=draw(st.integers(min_value=0, max_value=40)),
        category=category,
        source=draw(st.sampled_from(_SOURCES)),
        product_line=f"line{draw(st.integers(min_value=0, max_value=2))}",
        device_slot=draw(st.integers(min_value=0, max_value=3)),
        action=action,
        operator_id=f"op{fot_id % 3}" if closed else None,
        op_time=error_time + draw(st.floats(min_value=0.0, max_value=1e6))
        if closed
        else None,
    )


@st.composite
def _ticket_lists(draw, min_size=1, max_size=24):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return [draw(_ticket(fot_id=i)) for i in range(n)]


def _build_pair(tickets):
    """(row-first reference, builder-built columnar) over ``tickets``."""
    reference = FOTDataset(tickets)
    builder = ColumnBuilder()
    for ticket in tickets:
        builder.append_ticket(ticket)
    return reference, FOTDataset.from_store(builder.build())


def _assert_same_dataset(ref: FOTDataset, col: FOTDataset):
    assert len(ref) == len(col)
    for name in _COMPARED_COLUMNS:
        np.testing.assert_array_equal(
            getattr(ref, name), getattr(col, name), err_msg=name
        )
    assert list(ref) == list(col)
    assert ref.summary() == col.summary()
    assert ref.idcs == col.idcs
    assert ref.product_lines == col.product_lines


def _assert_same_groups(ref_groups, col_groups):
    assert list(ref_groups.keys()) == list(col_groups.keys())
    for key in ref_groups:
        _assert_same_dataset(ref_groups[key], col_groups[key])


class TestViewEquivalence:
    @given(tickets=_ticket_lists())
    @settings(max_examples=40, deadline=None)
    def test_whole_dataset(self, tickets):
        _assert_same_dataset(*_build_pair(tickets))

    @given(tickets=_ticket_lists(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_mask(self, tickets, data):
        ref, col = _build_pair(tickets)
        mask = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(tickets), max_size=len(tickets)
                )
            ),
            dtype=bool,
        )
        _assert_same_dataset(ref.where(mask), col.where(mask))

    @given(tickets=_ticket_lists(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_filters(self, tickets, data):
        ref, col = _build_pair(tickets)
        _assert_same_dataset(ref.failures(), col.failures())
        _assert_same_dataset(ref.with_op_time(), col.with_op_time())
        _assert_same_dataset(ref.sorted_by_time(), col.sorted_by_time())
        category = data.draw(st.sampled_from(_CATEGORIES))
        _assert_same_dataset(ref.of_category(category), col.of_category(category))
        component = data.draw(st.sampled_from(_COMPONENTS))
        _assert_same_dataset(
            ref.of_component(component), col.of_component(component)
        )
        source = data.draw(st.sampled_from(_SOURCES))
        _assert_same_dataset(ref.of_source(source), col.of_source(source))
        idc = data.draw(st.sampled_from(ref.idcs + ["dc-absent"]))
        _assert_same_dataset(ref.of_idc(idc), col.of_idc(idc))
        line = data.draw(st.sampled_from(ref.product_lines + ["line-absent"]))
        _assert_same_dataset(ref.of_product_line(line), col.of_product_line(line))
        np.testing.assert_array_equal(
            ref.duplicate_suspect_mask(), col.duplicate_suspect_mask()
        )

    @given(tickets=_ticket_lists(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_slices_take_and_concat(self, tickets, data):
        ref, col = _build_pair(tickets)
        n = len(tickets)
        start = data.draw(st.integers(min_value=-n, max_value=n))
        stop = data.draw(st.integers(min_value=-n, max_value=n))
        step = data.draw(st.sampled_from([1, 2, 3, -1, -2]))
        _assert_same_dataset(ref[start:stop:step], col[start:stop:step])
        indices = data.draw(
            st.lists(st.integers(min_value=-n, max_value=n - 1), max_size=2 * n)
        )
        _assert_same_dataset(ref.take(indices), col.take(indices))
        _assert_same_dataset(ref.concat(ref), col.concat(col))
        # Cross-store concat: reference store on one side, builder store
        # on the other — exercises table remapping.
        _assert_same_dataset(ref.concat(ref), ref.concat(col))

    @given(tickets=_ticket_lists())
    @settings(max_examples=40, deadline=None)
    def test_groupings(self, tickets):
        ref, col = _build_pair(tickets)
        _assert_same_groups(ref.by_category(), col.by_category())
        _assert_same_groups(ref.by_component(), col.by_component())
        _assert_same_groups(ref.by_idc(), col.by_idc())
        _assert_same_groups(ref.by_product_line(), col.by_product_line())
        _assert_same_groups(ref.by_host(), col.by_host())
        _assert_same_groups(ref.by_failure_type(), col.by_failure_type())


class TestZeroMaterialization:
    def _columnar(self, n=60):
        builder = ColumnBuilder()
        for i in range(n):
            builder.append_ticket(
                make_ticket(
                    fot_id=i,
                    host_id=i % 7,
                    host_idc=f"dc{i % 3:02d}",
                    error_device=_COMPONENTS[i % len(_COMPONENTS)],
                    error_time=float(i) * 1000.0,
                    category=_CATEGORIES[i % len(_CATEGORIES)],
                    source=_SOURCES[i % len(_SOURCES)],
                    product_line=f"line{i % 2}",
                )
            )
        return FOTDataset.from_store(builder.build())

    def test_subsets_and_groupings_allocate_no_tickets(self):
        ds = self._columnar()
        store = ds.store
        subset = ds.failures().of_component(ComponentClass.HDD)
        subset = subset.where(subset.error_times >= 0).take([0])
        ds.of_idc("dc01").of_product_line("line1").of_source(
            DetectionSource.SYSLOG
        )
        ds.between(0.0, 1e9).with_op_time().sorted_by_time()
        for groups in (
            ds.by_category(),
            ds.by_component(),
            ds.by_idc(),
            ds.by_product_line(),
            ds.by_host(),
            ds.by_failure_type(),
        ):
            for view in groups.values():
                view.error_times
        ds.duplicate_suspect_mask()
        ds.concat(ds)
        ds.summary()
        assert store.n_materialized == 0

    def test_iteration_materializes_once(self):
        ds = self._columnar(n=10)
        store = ds.store
        first = list(ds)
        assert store.n_materialized == 10
        again = list(ds)
        assert store.n_materialized == 10
        assert first == again
        # Views share the parent's materialized tickets.
        assert ds.failures()[0] is next(iter(ds.failures()))

    def _reloaded(self, tmp_path, trace):
        path = tmp_path / "trace.fourcol"
        save_columnar(trace.dataset, path)
        return load_columnar(path)

    def test_full_report_materializes_no_tickets(self, tmp_path, tiny_trace):
        ds = self._reloaded(tmp_path, tiny_trace)
        full_report(ds, inventory=tiny_trace.fleet.to_inventory())
        assert ds.store.n_materialized == 0

    def test_repeats_analysis_materializes_no_tickets(self, tmp_path, tiny_trace):
        ds = self._reloaded(tmp_path, tiny_trace)
        stats = repro.analyze(ds, "repeats")["repeats"]
        assert stats.n_repeating_components > 0
        assert ds.store.n_materialized == 0
