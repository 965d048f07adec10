"""Slow reference oracle for :mod:`repro.fleet`.

The object-based fleet: ``build_fleet`` creates one
:class:`~repro.fleet.server.Server` per slot, drawing each server's
deployment jitter as its own scalar, and every per-server column is
projected from those records one object at a time.  Kept here, never on
a hot path, so tests can pin the columnar fleet to it exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import FleetConfig
from repro.core.timeutil import DAY, YEAR
from repro.core.types import ComponentClass
from repro.fleet.builder import _dc_sizes, _product_lines, _spatial_profile
from repro.fleet.component import GENERATIONS
from repro.fleet.datacenter import DataCenter
from repro.fleet.inventory import Inventory
from repro.fleet.product_line import ProductLine
from repro.fleet.rack import Rack, slot_occupancy_weights
from repro.fleet.server import Server


class RefFleet:
    """Data centers, product lines and ``Server`` records, with every
    column projected from the records."""

    def __init__(
        self,
        datacenters: Sequence[DataCenter],
        product_lines: Sequence[ProductLine],
        servers: Sequence[Server],
    ):
        self.datacenters = tuple(datacenters)
        self.product_lines = {pl.name: pl for pl in product_lines}
        self.servers = tuple(servers)

    def __len__(self) -> int:
        return len(self.servers)

    @property
    def line_names(self) -> List[str]:
        return sorted(self.product_lines)

    def columns(self) -> Dict[str, np.ndarray]:
        idc_codes = {dc.name: i for i, dc in enumerate(self.datacenters)}
        line_codes = {name: i for i, name in enumerate(self.line_names)}
        gen_codes = {g.name: i for i, g in enumerate(GENERATIONS)}
        s = self.servers
        return {
            "host_ids": np.asarray([x.host_id for x in s], dtype=np.int64),
            "idc_codes": np.asarray([idc_codes[x.idc] for x in s], dtype=np.int32),
            "rack_ids": np.asarray([x.rack_id for x in s], dtype=np.int32),
            "positions": np.asarray([x.position for x in s], dtype=np.int32),
            "pdu_ids": np.asarray([x.pdu_id for x in s], dtype=np.int64),
            "line_codes": np.asarray(
                [line_codes[x.product_line] for x in s], dtype=np.int32
            ),
            "generation_codes": np.asarray(
                [gen_codes[x.generation.name] for x in s], dtype=np.int8
            ),
            "deployed_ats": np.asarray([x.deployed_at for x in s], dtype=float),
        }

    def counts_for(self, component: ComponentClass) -> np.ndarray:
        return np.asarray(
            [x.component_count(component) for x in self.servers], dtype=np.int32
        )

    @property
    def slot_risk(self) -> np.ndarray:
        per_dc = {dc.name: dc.slot_multipliers() for dc in self.datacenters}
        return np.asarray(
            [per_dc[x.idc][x.position] for x in self.servers], dtype=float
        )

    def cohorts(self) -> Dict[Tuple[str, str, str], np.ndarray]:
        buckets: Dict[Tuple[str, str, str], List[int]] = {}
        for i, x in enumerate(self.servers):
            key = (x.idc, x.product_line, x.generation.name)
            buckets.setdefault(key, []).append(i)
        return {k: np.asarray(v, dtype=np.int64) for k, v in buckets.items()}

    def to_inventory(self) -> Inventory:
        reported = (ComponentClass.HDD, ComponentClass.SSD, ComponentClass.CPU)
        cols = self.columns()
        return Inventory(
            host_ids=cols["host_ids"],
            idcs=[x.idc for x in self.servers],
            positions=cols["positions"],
            deployed_ats=cols["deployed_ats"],
            product_lines=[x.product_line for x in self.servers],
            component_counts={c: self.counts_for(c) for c in reported},
        )


def _generation_for(deployed_at: float, config: FleetConfig):
    start = -config.oldest_wave_years * YEAR
    end = config.newest_wave_years * YEAR
    frac = (deployed_at - start) / (end - start)
    idx = min(len(GENERATIONS) - 1, max(0, int(frac * len(GENERATIONS))))
    return GENERATIONS[idx]


def build_fleet(config: FleetConfig, rng: np.random.Generator) -> RefFleet:
    """The object-based builder, one scalar jitter draw per server."""
    dc_sizes = _dc_sizes(config, rng)
    total_servers = int(dc_sizes.sum())
    lines = _product_lines(config, total_servers, rng)

    n_dcs = config.n_datacenters
    n_modern = int(round(config.modern_dc_fraction * n_dcs))
    built_years = [
        *(2015 + (i % 2) for i in range(n_modern)),
        *(2010 + (i % 5) for i in range(n_dcs - n_modern)),
    ]
    rng.shuffle(built_years)

    occupancy = slot_occupancy_weights(config.rack_slots)
    occupancy_probs = occupancy / occupancy.sum()
    servers_per_rack = config.rack_slots * 0.8

    wave_start = -config.oldest_wave_years * YEAR
    wave_end = config.newest_wave_years * YEAR

    line_sizes = np.asarray([pl.expected_servers for pl in lines], dtype=float)
    line_rack_quota = np.maximum(1, np.round(line_sizes / servers_per_rack)).astype(int)
    rack_line_assignment: List[int] = []
    for line_idx, quota in enumerate(line_rack_quota):
        rack_line_assignment.extend([line_idx] * int(quota))
    rng.shuffle(rack_line_assignment)
    assignment_cursor = 0

    datacenters: List[DataCenter] = []
    servers: List[Server] = []
    host_id = 0
    global_pdu = 0

    for dc_idx in range(n_dcs):
        idc = f"dc{dc_idx:02d}"
        built = built_years[dc_idx]
        profile = _spatial_profile(built > 2014, rng, config.legacy_profile_mix)
        target = int(dc_sizes[dc_idx])
        n_racks = max(1, math.ceil(target / servers_per_rack))

        racks: List[Rack] = []
        placed = 0
        for rack_idx in range(n_racks):
            pdu_id = global_pdu + rack_idx // config.racks_per_pdu
            rack = Rack(
                rack_id=rack_idx, idc=idc, n_slots=config.rack_slots, pdu_id=pdu_id
            )
            racks.append(rack)

            if assignment_cursor < len(rack_line_assignment):
                line = lines[rack_line_assignment[assignment_cursor]]
                assignment_cursor += 1
            else:
                line = lines[int(rng.integers(len(lines)))]

            wave = float(rng.uniform(wave_start, wave_end))
            remaining = target - placed
            n_here = min(
                remaining, int(rng.binomial(config.rack_slots, 0.8))
            )
            if n_here <= 0:
                continue
            slots = rng.choice(
                config.rack_slots, size=n_here, replace=False, p=occupancy_probs
            )
            for slot in sorted(int(s) for s in slots):
                deployed_at = wave + float(rng.uniform(0, 14)) * DAY
                generation = _generation_for(deployed_at, config)
                servers.append(
                    Server(
                        host_id=host_id,
                        hostname=f"{idc}-r{rack_idx:03d}-s{slot:02d}",
                        idc=idc,
                        rack_id=rack_idx,
                        position=slot,
                        pdu_id=rack.pdu_id,
                        product_line=line.name,
                        generation=generation,
                        deployed_at=deployed_at,
                    )
                )
                host_id += 1
                placed += 1
            if placed >= target:
                break
        global_pdu += n_racks // config.racks_per_pdu + 1
        datacenters.append(
            DataCenter(
                name=idc,
                built_year=built,
                spatial_profile=profile,
                racks=tuple(racks),
            )
        )

    owned = {s.product_line for s in servers}
    lines = [pl for pl in lines if pl.name in owned]
    return RefFleet(datacenters, lines, servers)


__all__ = ["RefFleet", "build_fleet"]
