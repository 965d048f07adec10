"""Fleet substrate: the physical world the failures happen in.

Models data centers (with per-slot cooling profiles and shared PDUs),
racks, servers (hardware generation, component counts, deployment time,
owning product line) and product lines (size, fault-tolerance level —
which drives operator response behaviour).

The builder assembles a whole fleet from a
:class:`~repro.config.FleetConfig`.  A :class:`~repro.fleet.fleet.Fleet`
stores its servers as per-server numpy columns; :class:`Server` records
are derived from them on request.
:class:`~repro.fleet.inventory.Inventory` is the lightweight per-server
table the analyses use for exposure normalization (lifecycle rates,
rack-position occupancy).
"""

from repro.fleet.component import ServerGeneration, GENERATIONS
from repro.fleet.server import Server
from repro.fleet.rack import Rack
from repro.fleet.datacenter import DataCenter
from repro.fleet.product_line import ProductLine
from repro.fleet.inventory import Inventory
from repro.fleet.fleet import Fleet
from repro.fleet.builder import build_fleet

__all__ = [
    "ServerGeneration",
    "GENERATIONS",
    "Server",
    "Rack",
    "DataCenter",
    "ProductLine",
    "Inventory",
    "Fleet",
    "build_fleet",
]
