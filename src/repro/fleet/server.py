"""The server record.

A :class:`~repro.fleet.fleet.Fleet` keeps its servers as columns; a
``Server`` is one row of them as a frozen dataclass, built on request
(``Fleet.servers``) for tests, examples and reports.  The simulation
reads the columns and never builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import ComponentClass
from repro.fleet.component import ServerGeneration


@dataclass(frozen=True)
class Server:
    """One physical server.

    Attributes:
        host_id: Fleet-wide unique id.
        hostname: Human-readable name, e.g. ``"dc03-r012-s21"``.
        idc: Data center name.
        rack_id: Rack index within the data center.
        position: Slot number within the rack (0 = bottom).
        pdu_id: Power distribution unit feeding the server's rack.
        product_line: Owning product line name.
        generation: Hardware generation (component counts, model).
        deployed_at: Deployment timestamp, seconds relative to the trace
            epoch (negative = deployed before the study window opened).
    """

    host_id: int
    hostname: str
    idc: str
    rack_id: int
    position: int
    pdu_id: int
    product_line: str
    generation: ServerGeneration
    deployed_at: float

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError(f"position must be >= 0, got {self.position}")

    def component_count(self, component: ComponentClass) -> int:
        return self.generation.count(component)

    def age_seconds(self, at: float) -> float:
        """Service age at time ``at`` (clamped at zero)."""
        return max(0.0, at - self.deployed_at)

    def in_warranty(self, at: float, warranty_seconds: float) -> bool:
        """Whether a failure at time ``at`` is still covered."""
        return self.age_seconds(at) <= warranty_seconds


__all__ = ["Server"]
