"""Fleet assembly from a :class:`~repro.config.FleetConfig`.

The builder reproduces the structural facts the paper's analyses lean
on:

* dozens of data centers of very different sizes (per-DC MTBF in the
  paper spans 32–390 minutes, so sizes are lognormal, not equal);
* modern (post-2014) DCs with uniform cooling vs. legacy DCs with
  gradient or hot-spot slot profiles (Section IV / Table IV);
* hundreds of product lines with Zipf sizes, each owning whole racks in
  clusters (batch failures hit "the same model, in the same cluster,
  serving the same product line");
* incremental deployment in rack-sized waves over ~6.5 years, with the
  hardware generation implied by the deployment date.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.config import FleetConfig, SpatialProfile
from repro.core.timeutil import DAY, YEAR
from repro.fleet.component import GENERATIONS
from repro.fleet.datacenter import DataCenter
from repro.fleet.fleet import Fleet
from repro.fleet.product_line import ProductLine
from repro.fleet.rack import Rack, slot_occupancy_weights

#: Hot slots of the legacy custom rack design: slot 22 sits next to the
#: rack-level power module, slot 35 is near the top where under-floor
#: cooling air arrives last (Section IV).
HOTSPOT_SLOTS: Tuple[Tuple[int, float], ...] = ((22, 2.0), (35, 2.2))
#: Slot-risk ramp for legacy gradient-cooled rooms.
GRADIENT_TOP = 3.2


def _spatial_profile(modern: bool, rng: np.random.Generator, mix) -> SpatialProfile:
    if modern:
        return SpatialProfile(kind="uniform")
    kinds = sorted(mix)
    probs = np.asarray([mix[k] for k in kinds], dtype=float)
    probs = probs / probs.sum()
    kind = str(rng.choice(kinds, p=probs))
    if kind == "hotspot":
        return SpatialProfile(kind="hotspot", hot_slots=HOTSPOT_SLOTS)
    if kind == "gradient":
        return SpatialProfile(kind="gradient", gradient_top=GRADIENT_TOP)
    return SpatialProfile(kind="uniform")


def _dc_sizes(config: FleetConfig, rng: np.random.Generator) -> np.ndarray:
    """Lognormal server counts per DC, mean ≈ ``servers_per_dc``."""
    sigma = 0.55
    raw = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=config.n_datacenters)
    sizes = np.maximum(
        20, (raw * config.servers_per_dc).round().astype(int)
    )
    return sizes


def _product_lines(
    config: FleetConfig, total_servers: int, rng: np.random.Generator
) -> List[ProductLine]:
    """Zipf-sized product lines with workload/fault-tolerance attributes.

    The biggest lines run batch (Hadoop-style) workloads on resilient
    software and review their failure pools lazily; a minority of lines
    are strict online services; very small lines often have nobody
    watching closely (long review intervals — the slow small lines of
    Figure 11).
    """
    n = config.n_product_lines
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-config.product_line_zipf)
    weights /= weights.sum()
    sizes = np.maximum(1, (weights * total_servers).round().astype(int))

    lines: List[ProductLine] = []
    huge_cut = np.quantile(sizes, 0.98)
    for i, size in enumerate(sizes):
        name = f"pl{i:03d}"
        big = size >= np.quantile(sizes, 0.9)
        huge = size >= huge_cut
        if huge:
            # The very biggest lines are the Hadoop-style batch fleets
            # with the most resilient software (Section VI-C).
            workload = "batch"
            fault_tolerance = float(rng.uniform(0.85, 0.98))
            review = float(rng.uniform(25.0, 45.0))
        elif big and rng.random() < 0.75:
            workload = "batch" if rng.random() < 0.7 else "storage"
            fault_tolerance = float(rng.uniform(0.75, 0.98))
            review = float(rng.uniform(5.0, 12.0))
        elif rng.random() < 0.25:
            workload = "online"
            fault_tolerance = float(rng.uniform(0.05, 0.35))
            review = float(rng.uniform(0.0, 1.0))
        else:
            workload = str(rng.choice(["batch", "storage", "online"]))
            fault_tolerance = float(rng.uniform(0.3, 0.8))
            # Small lines frequently have long, lazy review cycles.
            small = size < np.quantile(sizes, 0.5)
            if small and rng.random() < 0.55:
                review = float(rng.uniform(180.0, 400.0))
            else:
                review = float(rng.uniform(2.0, 20.0))
        lines.append(
            ProductLine(
                name=name,
                workload=workload,
                fault_tolerance=fault_tolerance,
                review_interval_days=review,
                expected_servers=int(size),
            )
        )
    return lines


def _generation_codes(deployed_ats: np.ndarray, config: FleetConfig) -> np.ndarray:
    """Hardware generation (index into ``GENERATIONS``) implied by each
    deployment date: the wave window is split evenly across the five
    generations."""
    start = -config.oldest_wave_years * YEAR
    end = config.newest_wave_years * YEAR
    frac = (deployed_ats - start) / (end - start)
    # Truncate toward zero (as int() does), then clamp to the known generations.
    return np.clip((frac * len(GENERATIONS)).astype(np.int64), 0, len(GENERATIONS) - 1)


def build_fleet(config: FleetConfig, rng: np.random.Generator) -> Fleet:
    """Assemble the full fleet for one scenario.

    The draw order is part of the trace contract: per DC the spatial
    profile, then per rack the line pick (only once the shuffled
    assignment runs out), the wave, the occupancy ``binomial``, the slot
    ``choice`` and one ``uniform`` jitter per placed server.
    """
    dc_sizes = _dc_sizes(config, rng)
    total_servers = int(dc_sizes.sum())
    lines = _product_lines(config, total_servers, rng)

    # Modern DCs are the newest ones; assign construction years so that
    # exactly round(modern_fraction * n) of them are post-2014.
    n_dcs = config.n_datacenters
    n_modern = int(round(config.modern_dc_fraction * n_dcs))
    built_years = [
        *(2015 + (i % 2) for i in range(n_modern)),
        *(2010 + (i % 5) for i in range(n_dcs - n_modern)),
    ]
    rng.shuffle(built_years)

    occupancy = slot_occupancy_weights(config.rack_slots)
    occupancy_probs = occupancy / occupancy.sum()
    # Mean occupied slots per rack, used to size rack counts.
    servers_per_rack = config.rack_slots * 0.8

    wave_start = -config.oldest_wave_years * YEAR
    wave_end = config.newest_wave_years * YEAR

    # Line assignment works over a global rack budget: each line gets a
    # contiguous run of racks proportional to its size so that cohorts
    # (same DC + line + generation) are physically clustered.
    line_sizes = np.asarray([pl.expected_servers for pl in lines], dtype=float)
    line_rack_quota = np.maximum(1, np.round(line_sizes / servers_per_rack)).astype(int)
    rack_line_assignment: List[int] = []
    for line_idx, quota in enumerate(line_rack_quota):
        rack_line_assignment.extend([line_idx] * int(quota))
    rng.shuffle(rack_line_assignment)
    assignment_cursor = 0

    datacenters: List[DataCenter] = []
    # Per placed rack: (dc, rack, pdu, line) and its server count; per
    # server: slot and deployment time, one array per rack.
    rack_keys: List[Tuple[int, int, int, int]] = []
    rack_sizes: List[int] = []
    slot_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    deployed_parts: List[np.ndarray] = [np.empty(0)]
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
            racks.append(
                Rack(rack_id=rack_idx, idc=idc, n_slots=config.rack_slots, pdu_id=pdu_id)
            )

            if assignment_cursor < len(rack_line_assignment):
                line_idx = rack_line_assignment[assignment_cursor]
                assignment_cursor += 1
            else:
                line_idx = int(rng.integers(len(lines)))

            # The whole rack is deployed together (one wave), servers get
            # a small per-server jitter.
            wave = float(rng.uniform(wave_start, wave_end))
            remaining = target - placed
            n_here = min(
                remaining, int(rng.binomial(config.rack_slots, 0.8))
            )
            if n_here <= 0:
                continue
            slots = np.sort(rng.choice(
                config.rack_slots, size=n_here, replace=False, p=occupancy_probs
            ))
            deployed = wave + rng.uniform(0, 14, size=n_here) * DAY
            rack_keys.append((dc_idx, rack_idx, pdu_id, line_idx))
            rack_sizes.append(n_here)
            slot_parts.append(slots)
            deployed_parts.append(deployed)
            placed += n_here
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

    per_server = np.repeat(
        np.asarray(rack_keys, dtype=np.int64).reshape(-1, 4), rack_sizes, axis=0
    )
    dc_col, rack_col, pdu_col, line_col = per_server.T
    deployed_ats = np.concatenate(deployed_parts)

    # Drop product lines that ended up owning no servers (tiny tails);
    # line codes index the surviving names in sorted order.
    owned = np.unique(line_col).tolist()
    kept = [lines[i] for i in owned]
    code_of = {name: code for code, name in enumerate(sorted(pl.name for pl in kept))}
    recode = np.zeros(len(lines), dtype=np.int64)
    recode[owned] = [code_of[pl.name] for pl in kept]
    return Fleet(
        datacenters,
        kept,
        host_ids=np.arange(deployed_ats.size),
        idc_codes=dc_col,
        rack_ids=rack_col,
        positions=np.concatenate(slot_parts),
        pdu_ids=pdu_col,
        line_codes=recode[line_col],
        generation_codes=_generation_codes(deployed_ats, config),
        deployed_ats=deployed_ats,
    )


__all__ = ["build_fleet", "HOTSPOT_SLOTS", "GRADIENT_TOP"]
