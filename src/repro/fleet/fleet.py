"""The assembled fleet: one struct-of-arrays table of servers."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import ComponentClass
from repro.fleet.component import GENERATIONS
from repro.fleet.datacenter import DataCenter
from repro.fleet.product_line import ProductLine
from repro.fleet.server import Server
from repro.fleet.inventory import Inventory

#: Per-server columns and their dtypes, in constructor order.
COLUMN_DTYPES: Tuple[Tuple[str, type], ...] = (
    ("host_ids", np.int64),
    ("idc_codes", np.int32),  # index into ``datacenters``
    ("rack_ids", np.int32),
    ("positions", np.int32),
    ("pdu_ids", np.int64),
    ("line_codes", np.int32),  # index into ``line_names``
    ("generation_codes", np.int8),  # index into ``GENERATIONS``
    ("deployed_ats", float),
)


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class Fleet:
    """All data centers, product lines and servers of one scenario.

    The servers are a table of read-only numpy columns, one entry per
    server (see :data:`COLUMN_DTYPES`); everything else the simulator
    reads — component counts, slot risk, cohorts, the inventory — is
    derived from those columns.  :class:`~repro.fleet.server.Server`
    records are a derived view too: :attr:`servers` builds them on first
    access, for callers that want one object per server, and the
    simulation never touches it.
    """

    def __init__(
        self,
        datacenters: Sequence[DataCenter],
        product_lines: Sequence[ProductLine],
        *,
        host_ids: Sequence[int],
        idc_codes: Sequence[int],
        rack_ids: Sequence[int],
        positions: Sequence[int],
        pdu_ids: Sequence[int],
        line_codes: Sequence[int],
        generation_codes: Sequence[int],
        deployed_ats: Sequence[float],
    ):
        values = {
            "host_ids": host_ids,
            "idc_codes": idc_codes,
            "rack_ids": rack_ids,
            "positions": positions,
            "pdu_ids": pdu_ids,
            "line_codes": line_codes,
            "generation_codes": generation_codes,
            "deployed_ats": deployed_ats,
        }
        columns = {name: _frozen(values[name], dtype) for name, dtype in COLUMN_DTYPES}
        n = columns["host_ids"].size
        if n == 0:
            raise ValueError("a fleet needs at least one server")
        for name, col in columns.items():
            if col.shape != (n,):
                raise ValueError(f"fleet column {name} has shape {col.shape}, expected ({n},)")
        self.host_ids: np.ndarray = columns["host_ids"]
        self.idc_codes: np.ndarray = columns["idc_codes"]
        self.rack_ids: np.ndarray = columns["rack_ids"]
        self.positions: np.ndarray = columns["positions"]
        self.pdu_ids: np.ndarray = columns["pdu_ids"]
        self.line_codes: np.ndarray = columns["line_codes"]
        self.generation_codes: np.ndarray = columns["generation_codes"]
        self.deployed_ats: np.ndarray = columns["deployed_ats"]

        self.datacenters: Tuple[DataCenter, ...] = tuple(datacenters)
        self.product_lines: Dict[str, ProductLine] = {
            pl.name: pl for pl in product_lines
        }
        self.idc_names: Tuple[str, ...] = tuple(dc.name for dc in self.datacenters)
        self.line_names: Tuple[str, ...] = tuple(sorted(self.product_lines))
        self._dc_by_name = {dc.name: dc for dc in self.datacenters}
        self._count_columns: Dict[ComponentClass, np.ndarray] = {}
        self._slot_risk: Optional[np.ndarray] = None
        self._cohorts: Optional[Dict[Tuple[str, str, str], np.ndarray]] = None
        self._servers: Optional[Tuple[Server, ...]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.host_ids.size)

    def datacenter(self, name: str) -> DataCenter:
        try:
            return self._dc_by_name[name]
        except KeyError:
            raise KeyError(f"unknown data center: {name!r}") from None

    def product_line(self, name: str) -> ProductLine:
        try:
            return self.product_lines[name]
        except KeyError:
            raise KeyError(f"unknown product line: {name!r}") from None

    def take(self, rows: np.ndarray) -> "Fleet":
        """The servers at ``rows``, as a fleet of the same data centers
        and product lines (codes keep their meaning)."""
        return Fleet(
            self.datacenters,
            self.product_lines.values(),
            **{name: getattr(self, name)[rows] for name, _ in COLUMN_DTYPES},
        )

    # ------------------------------------------------------------------
    # derived columns
    # ------------------------------------------------------------------
    def counts_for(self, component: ComponentClass) -> np.ndarray:
        """Per-server component count (MISC counts one per server)."""
        col = self._count_columns.get(component)
        if col is None:
            per_generation = np.asarray(
                [g.count(component) for g in GENERATIONS], dtype=np.int32
            )
            col = per_generation[self.generation_codes]
            col.setflags(write=False)
            self._count_columns[component] = col
        return col

    @property
    def slot_risk(self) -> np.ndarray:
        """Per-server environment multiplier from the DC spatial profile."""
        if self._slot_risk is None:
            risk = np.empty(len(self), dtype=float)
            for code, dc in enumerate(self.datacenters):
                mask = self.idc_codes == code
                risk[mask] = dc.slot_multipliers()[self.positions[mask]]
            risk.setflags(write=False)
            self._slot_risk = risk
        return self._slot_risk

    def cohorts(self) -> Dict[Tuple[str, str, str], np.ndarray]:
        """Homogeneous cohorts (idc, product line, generation) -> server
        row indices, in order of each cohort's first server; batch-failure
        injectors draw their victims from one cohort ("same model, in the
        same cluster, serving the same product line")."""
        if self._cohorts is None:
            n_lines, n_gens = len(self.line_names), len(GENERATIONS)
            keys = (
                self.idc_codes.astype(np.int64) * n_lines + self.line_codes
            ) * n_gens + self.generation_codes
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            # Number the distinct keys in order of first appearance.
            row_rank = np.argsort(np.argsort(first))[inverse]
            order = np.argsort(row_rank, kind="stable").astype(np.int64, copy=False)
            order.setflags(write=False)
            bounds = np.cumsum(np.bincount(row_rank))[:-1]
            cohorts: Dict[Tuple[str, str, str], np.ndarray] = {}
            for rows in np.split(order, bounds):
                head = int(rows[0])
                key = (
                    self.idc_names[self.idc_codes[head]],
                    self.line_names[self.line_codes[head]],
                    GENERATIONS[self.generation_codes[head]].name,
                )
                cohorts[key] = rows
            self._cohorts = cohorts
        return dict(self._cohorts)

    def to_inventory(self) -> Inventory:
        """Export the per-server metadata table the analyses consume.

        Mirrors the paper: component counts are reported for HDD, SSD
        and CPU only; other classes fall back to one-per-server inside
        the analysis.
        """
        reported = (ComponentClass.HDD, ComponentClass.SSD, ComponentClass.CPU)
        return Inventory(
            host_ids=self.host_ids,
            idcs=np.asarray(self.idc_names, dtype=object)[self.idc_codes].tolist(),
            positions=self.positions,
            deployed_ats=self.deployed_ats,
            product_lines=np.asarray(self.line_names, dtype=object)[
                self.line_codes
            ].tolist(),
            component_counts={c: self.counts_for(c) for c in reported},
        )

    # ------------------------------------------------------------------
    # derived records
    # ------------------------------------------------------------------
    @property
    def servers(self) -> Tuple[Server, ...]:
        """One :class:`Server` record per row, built on first access."""
        if self._servers is None:
            self._servers = tuple(
                Server(
                    host_id=host_id,
                    hostname=f"{self.idc_names[idc]}-r{rack:03d}-s{slot:02d}",
                    idc=self.idc_names[idc],
                    rack_id=rack,
                    position=slot,
                    pdu_id=pdu,
                    product_line=self.line_names[line],
                    generation=GENERATIONS[gen],
                    deployed_at=deployed,
                )
                for host_id, idc, rack, slot, pdu, line, gen, deployed in zip(
                    *(getattr(self, name).tolist() for name, _ in COLUMN_DTYPES)
                )
            )
        return self._servers

    def servers_of_line(self, line: str) -> List[Server]:
        if line not in self.product_lines:
            return []
        rows = np.flatnonzero(self.line_codes == self.line_names.index(line))
        return [self.servers[r] for r in rows.tolist()]

    def servers_of_idc(self, idc: str) -> List[Server]:
        if idc not in self._dc_by_name:
            return []
        rows = np.flatnonzero(self.idc_codes == self.idc_names.index(idc))
        return [self.servers[r] for r in rows.tolist()]

    def summary(self) -> Dict[str, object]:
        return {
            "servers": len(self),
            "datacenters": len(self.datacenters),
            "product_lines": len(self.product_lines),
            "modern_dcs": sum(dc.is_modern for dc in self.datacenters),
        }


__all__ = ["Fleet", "COLUMN_DTYPES"]
