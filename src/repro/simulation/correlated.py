"""Correlated-failure injectors — Sections V-B, V-C and III-D.

* :func:`inject_correlated_pairs` — two components of the *same server*
  failing within a day (Table VI).  The first class in each calibrated
  pair is the cause, the second the effect (a PSU failure takes the fans
  down, Table VII); pairs involving ``MISC`` are the operator noticing a
  hardware failure and filing a manual ticket right away (71.5 % of
  two-component failures have a miscellaneous report).
* :func:`inject_flapping_server` — the 400-failure web-service server of
  Section III-D: a BBU root cause makes the RAID card flap, each
  automatic reboot "solves" the ticket, and the drive fails again hours
  later, for about a year.
* :func:`inject_synchronous_groups` — near-identical neighbours whose
  repeating failures line up to the second (Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.timeutil import DAY, HOUR, MINUTE, YEAR
from repro.core.types import ComponentClass
from repro.fleet.fleet import Fleet
from repro.simulation import calibration
from repro.simulation.events import RawFailure


@dataclass(frozen=True)
class InjectionRecord:
    """Ground truth for one injected correlation structure."""

    tag: str
    kind: str
    server_rows: Tuple[int, ...]
    n_events: int
    description: str


def inject_correlated_pairs(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], List[InjectionRecord]]:
    """Materialize the Table VI pair matrix (scaled)."""
    events: List[RawFailure] = []
    records: List[InjectionRecord] = []
    pair_id = 0
    for (cause, effect), paper_count in calibration.CORRELATED_PAIR_COUNTS.items():
        n = int(round(paper_count * scale))
        if paper_count > 0 and scale >= 0.005:
            n = max(1, n)
        if n == 0:
            continue
        eligible = np.flatnonzero(
            (fleet.counts_for(cause) > 0) & (fleet.counts_for(effect) > 0)
        )
        if eligible.size == 0:
            continue
        rows = rng.choice(eligible, size=n, replace=eligible.size < n)
        for row in rows:
            tag = f"corr_pair:{pair_id}"
            pair_id += 1
            earliest = max(0.0, float(fleet.deployed_ats[row]))
            if earliest >= horizon_seconds - DAY:
                continue
            t0 = float(rng.uniform(earliest, horizon_seconds - DAY))
            if cause is ComponentClass.MISC:
                # Operator files the manual ticket after the hardware
                # failure is detected.
                first_cls, second_cls = effect, cause
                gap = float(rng.uniform(10 * MINUTE, 6 * HOUR))
            else:
                first_cls, second_cls = cause, effect
                gap = float(rng.uniform(30.0, 30 * MINUTE))
            for cls, t in ((first_cls, t0), (second_cls, t0 + gap)):
                max_slot = max(1, int(fleet.counts_for(cls)[row]))
                events.append(
                    RawFailure(
                        time=t,
                        server_row=int(row),
                        component=cls,
                        slot=int(rng.integers(max_slot)),
                        tag=tag,
                        suppress_repeat=True,
                    )
                )
            records.append(
                InjectionRecord(
                    tag=tag,
                    kind="correlated_pair",
                    server_rows=(int(row),),
                    n_events=2,
                    description=f"{cause.value} -> {effect.value} on one server",
                )
            )
    return events, records


def inject_flapping_server(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], Optional[InjectionRecord]]:
    """The BBU up-and-down server: >400 RAID/HDD failures in ~a year.

    The chain length scales down with the scenario so tiny test fleets
    are not dominated by a single server, but never below a handful —
    the repeating-failure analyses need at least one clear extreme case.
    """
    # The flap needs a long in-service window, so only servers deployed
    # in the first part of the horizon qualify.
    eligible = (fleet.counts_for(ComponentClass.RAID_CARD) > 0) & (
        fleet.deployed_ats < horizon_seconds * 0.35
    )
    if not eligible.any():
        return [], None
    # Prefer an online (web service) line, matching the anecdote.
    online_lines = np.asarray(
        [fleet.product_lines[name].workload == "online" for name in fleet.line_names],
        dtype=bool,
    )
    online_rows = np.flatnonzero(eligible & online_lines[fleet.line_codes])
    row = int(rng.choice(online_rows if online_rows.size else np.flatnonzero(eligible)))

    chain = max(30, int(calibration.BBU_SERVER_CHAIN * scale))
    # Keep the anecdote's cadence (~420 failures over a year, i.e. one
    # flap every ~0.87 days) at every scale: a shorter chain spans a
    # proportionally shorter window.
    span = min(horizon_seconds * 0.5, chain * (YEAR / calibration.BBU_SERVER_CHAIN))
    earliest = max(0.0, float(fleet.deployed_ats[row]))
    start = float(rng.uniform(earliest, max(earliest + 1.0, horizon_seconds - span)))
    start = min(start, horizon_seconds - span)
    # Flap intervals: hours to a couple of days, renormalized to span a
    # year like the anecdote.
    gaps = rng.lognormal(np.log(0.8 * DAY), 0.7, size=chain)
    times = start + np.cumsum(gaps) * (span / gaps.sum())
    hdd_slots = max(1, int(fleet.counts_for(ComponentClass.HDD)[row]))

    tag = "bbu_flap"
    events: List[RawFailure] = []
    for i, t in enumerate(times):
        # Alternate in blocks (not per event) so the RAID and HDD tickets
        # of the flap rarely share a calendar day — the paper reports the
        # server under *repeating* failures, not correlated-component ones.
        if (i // 6) % 3 == 0:
            cls, ftype, slot = ComponentClass.RAID_CARD, "BBUFail", 0
        else:
            # The same two drives behind the flapping controller go up
            # and down, over and over.
            cls, ftype, slot = (
                ComponentClass.HDD,
                "NotReady" if i % 2 else "Missing",
                int(i % min(2, hdd_slots)),
            )
        events.append(
            RawFailure(
                time=float(t),
                server_row=row,
                component=cls,
                slot=slot,
                forced_type=ftype,
                tag=tag,
                chain_id=-1,
                suppress_repeat=True,
            )
        )
    record = InjectionRecord(
        tag=tag,
        kind="bbu_flapping",
        server_rows=(row,),
        n_events=len(events),
        description="BBU root cause; RAID card up-and-down for ~a year",
    )
    return events, record


def inject_synchronous_groups(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], List[InjectionRecord]]:
    """Groups of near-identical servers repeating failures in lockstep
    (Table VIII: same product line, same model, same deployment time,
    adjacent racks, same distributed storage system)."""
    n_groups = max(1, int(round(calibration.SYNC_GROUPS * max(scale, 0.1))))
    # Candidate groups: same (idc, product line, generation) cohorts.
    cohorts = [
        rows for rows in fleet.cohorts().values()
        if rows.size >= calibration.SYNC_GROUP_SIZE
    ]
    if not cohorts:
        return [], []
    events: List[RawFailure] = []
    records: List[InjectionRecord] = []
    # The Table VIII sequence: two SMART warnings, four rounds of a
    # repeatedly "fixed" system drive, one late PendingLBA.
    type_sequence = ["SMARTFail", "SMARTFail", *["SixthFixing"] * 4, "PendingLBA"]
    n_steps = min(len(type_sequence), max(3, calibration.SYNC_CHAIN_LENGTH + 1))

    for g in range(n_groups):
        rows = cohorts[int(rng.integers(len(cohorts)))]
        members = rng.choice(rows, size=calibration.SYNC_GROUP_SIZE, replace=False)
        deployed = float(fleet.deployed_ats[members].max())
        lo = max(0.0, deployed)
        hi = max(lo + DAY, horizon_seconds * 0.6)
        start = float(rng.uniform(lo, hi))
        # Step times: days apart at first, then a long gap to the last.
        gaps = np.concatenate(
            [rng.uniform(1 * DAY, 8 * DAY, size=n_steps - 2), [60 * DAY]]
        )
        step_times = start + np.concatenate(([0.0], np.cumsum(gaps)))
        tag = f"sync_group:{g}"
        for step in range(n_steps):
            if step_times[step] >= horizon_seconds:
                break
            ftype = type_sequence[step]
            slot = 0 if ftype == "SixthFixing" else int(rng.integers(1, 9))
            for member in members:
                jitter = float(rng.uniform(0.0, calibration.SYNC_JITTER_SECONDS))
                events.append(
                    RawFailure(
                        time=float(step_times[step]) + jitter,
                        server_row=int(member),
                        component=ComponentClass.HDD,
                        slot=slot,
                        forced_type=ftype,
                        tag=tag,
                        chain_id=g,
                        suppress_repeat=True,
                    )
                )
        records.append(
            InjectionRecord(
                tag=tag,
                kind="synchronous_group",
                server_rows=tuple(int(m) for m in members),
                n_events=n_steps * len(members),
                description="near-identical servers repeating in lockstep",
            )
        )
    return events, records


__all__ = [
    "InjectionRecord",
    "inject_correlated_pairs",
    "inject_flapping_server",
    "inject_synchronous_groups",
]
