"""The FMS pipeline: raw failures in, closed FOTs out.

Runs on the discrete-event queue so that repeat failures — scheduled
*while* processing the ticket that "fixed" them — interleave correctly
with everything else, exactly like the real FMS of Figure 1:

1. a detection agent (or a human) reports a failure;
2. the FMS classifies it: false alarm (1.7 %), out-of-warranty
   (D_error: decommission, no operator response recorded), or D_fixing;
3. for D_fixing / D_falsealarm an operator eventually closes the ticket
   (the response model decides when, and with which user id);
4. an ineffective repair schedules the same failure again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columns import ColumnBuilder
from repro.core.dataset import FOTDataset
from repro.core.types import (
    ComponentClass,
    FOTCategory,
    OperatorAction,
)
from repro.fleet.fleet import Fleet
from repro.fms.detectors import DetectionModel
from repro.fms.operators import OperatorModel
from repro.fms.repair import RepairModel
from repro.simulation import calibration
from repro.simulation.engine import EventQueue
from repro.simulation.events import RawFailure

#: Linux block-device letters for drive detail strings.
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def device_detail(component: ComponentClass, slot: int) -> str:
    """Human-style device identifier, e.g. ``sdc2`` or ``fan_3``."""
    if component is ComponentClass.HDD:
        return f"sd{_ALPHABET[slot % 26]}{slot % 9 + 1}"
    if component is ComponentClass.SSD:
        return f"nvme{slot}n1"
    if component is ComponentClass.MEMORY:
        return f"DIMM_{_ALPHABET[slot % 8].upper()}{slot % 2}"
    if component is ComponentClass.FAN:
        return f"fan_{slot + 1}"
    if component is ComponentClass.POWER:
        return f"psu_{slot + 1}"
    if component is ComponentClass.CPU:
        return f"cpu_{slot}"
    if component is ComponentClass.FLASH_CARD:
        return f"flash_{slot}"
    if component is ComponentClass.RAID_CARD:
        return "raid_ctrl_0"
    if component is ComponentClass.HDD_BACKBOARD:
        return "backboard_0"
    if component is ComponentClass.MOTHERBOARD:
        return "mb_0"
    return "manual_report"


class FMSPipeline:
    """Event-driven ticket processing for one scenario."""

    def __init__(
        self,
        fleet: Fleet,
        horizon_seconds: float,
        rng: np.random.Generator,
        lemon_rows: Optional[set] = None,
        detection: Optional[DetectionModel] = None,
        operators: Optional[OperatorModel] = None,
        repair: Optional[RepairModel] = None,
        chain_id_base: int = 0,
    ):
        """``fleet`` may be a whole fleet or a row subset of one (the
        sharded engine passes one data center's rows); raw failures name
        their server by row.  ``chain_id_base`` offsets FMS-grown
        repeat-chain ids so shards of one run never collide."""
        self.fleet = fleet
        self.chain_id_base = int(chain_id_base)
        self.horizon = float(horizon_seconds)
        self._rng = rng
        self.lemon_rows = lemon_rows or set()
        self.detection = detection or DetectionModel()
        self.operators = operators or OperatorModel(fleet, rng)
        self.repair = repair or RepairModel(rng)
        self._warranty = None  # set in run() from config via fleet ages

        # Pre-computed per-class type samplers (cumulative probabilities).
        self._type_names: Dict[ComponentClass, List[str]] = {}
        self._type_cum: Dict[ComponentClass, np.ndarray] = {}
        for cls, mix in calibration.TYPE_MIX.items():
            names = sorted(mix)
            probs = np.asarray([mix[n] for n in names], dtype=float)
            self._type_names[cls] = names
            self._type_cum[cls] = np.cumsum(probs / probs.sum())
        # Fatal types per class, for warning -> fatal escalation.
        from repro.core.failure_types import REGISTRY

        self._fatal_types: Dict[ComponentClass, List[str]] = {}
        for cls, mix in calibration.TYPE_MIX.items():
            self._fatal_types[cls] = [
                name for name in mix if REGISTRY[name].fatal
            ]

        self.stats: Dict[str, int] = {
            "events_in": 0,
            "dropped_beyond_horizon": 0,
            "false_alarms": 0,
            "out_of_warranty": 0,
            "repairs": 0,
            "repeats_scheduled": 0,
            "escalations": 0,
        }

    # ------------------------------------------------------------------
    def _sample_type(self, component: ComponentClass) -> str:
        cum = self._type_cum[component]
        idx = int(np.searchsorted(cum, self._rng.random(), side="right"))
        idx = min(idx, len(self._type_names[component]) - 1)
        return self._type_names[component][idx]

    # ------------------------------------------------------------------
    def run(
        self,
        raw_events: Sequence[RawFailure],
        warranty_seconds: float,
    ) -> FOTDataset:
        """Process every raw failure (plus the repeats they spawn) into
        a time-ordered FOT dataset."""
        return FOTDataset.from_store(self.run_store(raw_events, warranty_seconds))

    def run_store(
        self,
        raw_events: Sequence[RawFailure],
        warranty_seconds: float,
    ):
        """Like :meth:`run` but return the raw
        :class:`~repro.core.columns.ColumnStore` — the sharded engine
        ships these arrays between processes and concatenates once."""
        queue = EventQueue()
        for raw in raw_events:
            queue.schedule(raw.time, raw)

        builder = ColumnBuilder()
        fot_id = 0
        next_chain = self.chain_id_base
        chain_lengths: Dict[int, int] = {}
        fleet = self.fleet
        host_ids = fleet.host_ids.tolist()
        idcs = [fleet.idc_names[c] for c in fleet.idc_codes.tolist()]
        rack_ids = fleet.rack_ids.tolist()
        positions = fleet.positions.tolist()
        lines = [fleet.line_names[c] for c in fleet.line_codes.tolist()]
        deployed_ats = fleet.deployed_ats.tolist()

        for time, raw in queue.drain():
            self.stats["events_in"] += 1
            if time >= self.horizon:
                self.stats["dropped_beyond_horizon"] += 1
                continue
            row = raw.server_row
            line = lines[row]
            age = max(0.0, time - deployed_ats[row])
            component = raw.component
            error_type = raw.forced_type or self._sample_type(component)
            source = self.detection.source_for(component)
            is_lemon = raw.server_row in self.lemon_rows
            detail: Dict[str, object] = {"tag": raw.tag}
            if raw.chain_id is not None:
                detail["chain_id"] = raw.chain_id

            is_false_alarm = (
                not raw.suppress_repeat
                and self._rng.random() < calibration.FALSE_ALARM_RATE
            )
            in_warranty = age <= warranty_seconds

            action: Optional[OperatorAction] = None
            operator_id: Optional[str] = None
            op_time: Optional[float] = None

            if is_false_alarm:
                category = FOTCategory.FALSE_ALARM
                action = OperatorAction.MARK_FALSE_ALARM
                op_time, operator_id = self.operators.close_false_alarm(
                    line, time
                )
                self.stats["false_alarms"] += 1
            elif not in_warranty:
                # Out-of-warranty: not repaired, set to decommission; the
                # ticket carries no operator-response fields (Table I).
                category = FOTCategory.ERROR
                self.stats["out_of_warranty"] += 1
            else:
                category = FOTCategory.FIXING
                action = OperatorAction.REPAIR_ORDER
                op_time, operator_id = self.operators.close_fixing(
                    component,
                    line,
                    time,
                    age,
                    is_lemon,
                )
                self.stats["repairs"] += 1

            builder.append(
                fot_id=fot_id,
                host_id=host_ids[row],
                hostname=f"{idcs[row]}-r{rack_ids[row]:03d}-s{positions[row]:02d}",
                host_idc=idcs[row],
                error_device=component,
                error_type=error_type,
                error_time=time,
                error_position=positions[row],
                error_detail=device_detail(component, raw.slot),
                category=category,
                source=source,
                product_line=line,
                deployed_at=deployed_ats[row],
                device_slot=raw.slot,
                action=action,
                operator_id=operator_id,
                op_time=op_time,
                detail=detail,
            )
            fot_id += 1

            # Ineffective repair -> the same failure comes back.
            if (
                category is FOTCategory.FIXING
                and op_time is not None
                and not raw.suppress_repeat
            ):
                if raw.chain_id is not None and raw.chain_id in chain_lengths:
                    chain_id = raw.chain_id
                else:
                    chain_id = next_chain
                    next_chain += 1
                    chain_lengths[chain_id] = 0
                delay = self.repair.repeat_delay(is_lemon, chain_lengths[chain_id])
                if delay is not None:
                    repeat_time = op_time + delay
                    if repeat_time < self.horizon:
                        chain_lengths[chain_id] += 1
                        self.stats["repeats_scheduled"] += 1
                        # A recurring warning often escalates: the SMART
                        # alert that came back becomes a dead drive
                        # (Section III-A: warnings precede fatal
                        # failures — the basis of the team's predictor).
                        repeat_type = error_type
                        fatal_options = self._fatal_types.get(component, [])
                        is_warning = repeat_type not in fatal_options
                        if (
                            is_warning
                            and fatal_options
                            and self._rng.random()
                            < calibration.ESCALATION_PROB
                        ):
                            repeat_type = fatal_options[
                                int(self._rng.integers(len(fatal_options)))
                            ]
                            self.stats["escalations"] += 1
                        queue.schedule(
                            max(repeat_time, time),
                            RawFailure(
                                time=max(repeat_time, time),
                                server_row=raw.server_row,
                                component=component,
                                slot=raw.slot,
                                forced_type=repeat_type,
                                tag="repeat",
                                chain_id=chain_id,
                            ),
                        )

        return builder.build()


__all__ = ["FMSPipeline", "device_detail"]
