"""The columnar fleet equals the object-based reference fleet.

:func:`repro.fleet.builder.build_fleet` fills per-server numpy columns
and derives everything else from them; the reference in
:mod:`tests.oracles.fleet_ref` creates one ``Server`` per slot and
projects every column from those records.  Given the same seed they
must agree exactly: every column, component counts for every class,
slot risk, cohorts (keys, order and rows), the inventory and the
``Server`` records themselves.  The simulation must not create a single
``Server`` record on the way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import FleetConfig, paper_scenario
from repro.core.types import ComponentClass
from repro.fleet import Server
from repro.fleet.builder import build_fleet
from repro.fleet.fleet import COLUMN_DTYPES, Fleet
from tests.oracles import fleet_ref


def assert_fleet_matches(fleet: Fleet, ref: fleet_ref.RefFleet) -> None:
    assert fleet.datacenters == ref.datacenters
    assert list(fleet.product_lines.items()) == list(ref.product_lines.items())
    assert list(fleet.line_names) == ref.line_names
    assert len(fleet) == len(ref)
    for name, col in ref.columns().items():
        ours = getattr(fleet, name)
        assert ours.dtype == col.dtype, name
        np.testing.assert_array_equal(ours, col, err_msg=name)
    for cls in ComponentClass:
        ours = fleet.counts_for(cls)
        assert ours.dtype == np.int32
        np.testing.assert_array_equal(ours, ref.counts_for(cls), err_msg=cls.value)
    np.testing.assert_array_equal(fleet.slot_risk, ref.slot_risk)

    cohorts, ref_cohorts = fleet.cohorts(), ref.cohorts()
    assert list(cohorts) == list(ref_cohorts)
    for key, rows in ref_cohorts.items():
        assert cohorts[key].dtype == rows.dtype
        np.testing.assert_array_equal(cohorts[key], rows, err_msg=str(key))

    inv, ref_inv = fleet.to_inventory(), ref.to_inventory()
    for attr in ("host_ids", "positions", "deployed_ats"):
        np.testing.assert_array_equal(getattr(inv, attr), getattr(ref_inv, attr))
    assert inv.idcs == ref_inv.idcs
    assert inv.product_lines == ref_inv.product_lines
    assert list(inv.component_counts) == list(ref_inv.component_counts)
    for cls, counts in ref_inv.component_counts.items():
        np.testing.assert_array_equal(inv.component_counts[cls], counts)

    assert fleet.servers == ref.servers


def build_both(config: FleetConfig, seed: int):
    return (
        build_fleet(config, np.random.default_rng(seed)),
        fleet_ref.build_fleet(config, np.random.default_rng(seed)),
    )


@pytest.mark.parametrize(
    "scale,seed", [(0.01, 0), (0.02, 11), (0.05, 7), (0.25, 607385081)]
)
def test_paper_fleets_match_oracle(scale, seed):
    config = paper_scenario(scale=scale, seed=seed).scaled_fleet()
    assert_fleet_matches(*build_both(config, seed))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_datacenters=st.integers(1, 6),
    servers_per_dc=st.integers(20, 300),
    rack_slots=st.integers(1, 48),
    racks_per_pdu=st.integers(1, 6),
    n_product_lines=st.integers(1, 40),
    modern_dc_fraction=st.floats(0.0, 1.0),
)
def test_random_fleets_match_oracle(seed, n_datacenters, servers_per_dc, rack_slots,
                                    racks_per_pdu, n_product_lines, modern_dc_fraction):
    config = FleetConfig(
        n_datacenters=n_datacenters,
        servers_per_dc=servers_per_dc,
        rack_slots=rack_slots,
        racks_per_pdu=racks_per_pdu,
        n_product_lines=n_product_lines,
        modern_dc_fraction=modern_dc_fraction,
    )
    assert_fleet_matches(*build_both(config, seed))


def test_row_subset_matches_oracle_rows():
    fleet, ref = build_both(FleetConfig(n_datacenters=3, servers_per_dc=200), 3)
    rows = np.flatnonzero(fleet.idc_codes == 1)
    part = fleet.take(rows)
    for name, _ in COLUMN_DTYPES:
        np.testing.assert_array_equal(getattr(part, name), getattr(fleet, name)[rows])
    assert part.servers == tuple(ref.servers[r] for r in rows)
    assert part.servers_of_idc("dc01") == list(part.servers)


class TestZeroServer:
    def test_simulate_creates_no_server(self, monkeypatch):
        created = []
        original = Server.__post_init__

        def counting(self):
            created.append(self.host_id)
            original(self)

        config = paper_scenario(scale=0.01, seed=77)
        monkeypatch.setattr(Server, "__post_init__", counting)
        trace = repro.simulate(config, policy=repro.ExecutionPolicy(jobs="serial"))
        assert created == []
        monkeypatch.undo()

        fleet_seed = np.random.SeedSequence(config.seed).spawn(3)[0]
        ref = fleet_ref.build_fleet(config.scaled_fleet(), np.random.default_rng(fleet_seed))
        assert trace.fleet.servers == ref.servers

    def test_columns_and_memos_are_read_only(self):
        fleet = build_fleet(
            FleetConfig(n_datacenters=2, servers_per_dc=100), np.random.default_rng(1)
        )
        arrays = [getattr(fleet, name) for name, _ in COLUMN_DTYPES]
        arrays += [fleet.counts_for(ComponentClass.HDD), fleet.slot_risk]
        arrays += list(fleet.cohorts().values())
        arrays += list(fleet.cohorts().values())  # served from the memo
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_empty_fleet_rejected(self):
        empty = {name: [] for name, _ in COLUMN_DTYPES}
        with pytest.raises(ValueError, match="a fleet needs at least one server"):
            Fleet([], [], **empty)
