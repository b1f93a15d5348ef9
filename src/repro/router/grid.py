"""The 3D routing grid.

The grid discretizes the die into ``(nx, ny, num_layers)`` cells at a
configurable routing pitch (a multiple of the rule grid pitch).  One net may
own a cell; because the pitch exceeds min-width + min-spacing, same-layer
spacing between different nets is DRC-clean by construction.

The grid also performs **pin access assignment** (Figure 1(c) of the paper):
each pin is mapped to a free grid cell on its layer; colliding pins are
deterministically shifted to the nearest free cell.
"""

from __future__ import annotations

import numpy as np

from repro.placement.layout import Placement
from repro.reliability.errors import RoutingError
from repro.router.guidance import AccessPoint
from repro.tech.layers import Direction
from repro.tech.technology import Technology

GridNode = tuple[int, int, int]

#: Occupancy value for a free cell.
FREE = -1
#: Occupancy value for a blocked cell (device body on M1).
BLOCKED = -2


class RoutingGrid:
    """3D occupancy grid over a placement.

    Args:
        placement: the placed circuit.
        tech: technology providing layer stack and rules.
        pitch: routing pitch in micrometers (default 0.5).
        halo: free margin around the placement bounding box, in micrometers.
    """

    def __init__(
        self,
        placement: Placement,
        tech: Technology,
        pitch: float = 0.5,
        halo: float = 2.0,
    ) -> None:
        if pitch < tech.rules.grid_pitch:
            raise ValueError(
                f"routing pitch {pitch} below rule pitch {tech.rules.grid_pitch}"
            )
        self.placement = placement
        self.tech = tech
        self.pitch = pitch

        x0, y0, x1, y1 = placement.bounding_box()
        self.origin = (x0 - halo, y0 - halo)
        self.nx = int(np.ceil((x1 - x0 + 2 * halo) / pitch)) + 1
        self.ny = int(np.ceil((y1 - y0 + 2 * halo) / pitch)) + 1
        self.num_layers = tech.num_layers

        # occupancy[ix, iy, l]: FREE, BLOCKED, or net index.
        self.occupancy = np.full((self.nx, self.ny, self.num_layers), FREE,
                                 dtype=np.int32)
        # PathFinder-style history cost, grown on congested cells.
        self.history = np.zeros((self.nx, self.ny, self.num_layers), dtype=float)

        self.net_index: dict[str, int] = {
            name: i for i, name in enumerate(sorted(placement.circuit.nets))
        }
        self.net_names: list[str] = sorted(placement.circuit.nets)

        self._block_device_bodies()
        self.access_points: dict[str, list[AccessPoint]] = {}
        self._assign_pin_access()

    # -- coordinate transforms --------------------------------------------------

    def to_cell(self, x: float, y: float, layer: int = 0) -> GridNode:
        """Snap physical (x, y) on ``layer`` to the nearest grid cell."""
        ix = int(round((x - self.origin[0]) / self.pitch))
        iy = int(round((y - self.origin[1]) / self.pitch))
        return (ix, iy, layer)

    def to_um(self, cell: GridNode) -> tuple[float, float, int]:
        """Physical center (x, y, layer) of a grid cell."""
        ix, iy, layer = cell
        return (
            self.origin[0] + ix * self.pitch,
            self.origin[1] + iy * self.pitch,
            layer,
        )

    def in_bounds(self, cell: GridNode) -> bool:
        ix, iy, layer = cell
        return 0 <= ix < self.nx and 0 <= iy < self.ny and 0 <= layer < self.num_layers

    def mirror_cell(self, cell: GridNode) -> GridNode:
        """Mirror a cell about the placement symmetry axis.

        The doubled axis coordinate is rounded once so mirroring is an exact
        involution that preserves cell adjacency.
        """
        axis_ix = (self.placement.symmetry_axis - self.origin[0]) / self.pitch
        mirror_sum = int(round(2.0 * axis_ix))
        ix, iy, layer = cell
        return (mirror_sum - ix, iy, layer)

    # -- setup -------------------------------------------------------------------

    def _block_device_bodies(self) -> None:
        """Block M1 over device bodies (no routing over active regions).

        MOS/cap/res bodies block layer 0 except where pins land; dummies
        block layer 0 entirely.  Upper layers stay free.
        """
        for name in self.placement.positions:
            x0, y0, x1, y1 = self.placement.device_box(name)
            ix0 = max(0, int(np.floor((x0 - self.origin[0]) / self.pitch)))
            iy0 = max(0, int(np.floor((y0 - self.origin[1]) / self.pitch)))
            ix1 = min(self.nx - 1, int(np.ceil((x1 - self.origin[0]) / self.pitch)))
            iy1 = min(self.ny - 1, int(np.ceil((y1 - self.origin[1]) / self.pitch)))
            self.occupancy[ix0:ix1 + 1, iy0:iy1 + 1, 0] = BLOCKED

    def _assign_pin_access(self) -> None:
        """Map every connected pin to a unique free cell (pin access).

        Pins land on their snapped cell when available; otherwise they
        spiral outward to the nearest cell not taken by another pin.  The
        chosen cell is reserved for the pin's net.
        """
        circuit = self.placement.circuit
        taken: dict[GridNode, tuple[str, str]] = {}
        for net_name in self.net_names:
            net = circuit.net(net_name)
            aps: list[AccessPoint] = []
            for device_name, pin_name in net.connections:
                x, y = self.placement.pin_position(device_name, pin_name)
                layer = circuit.device(device_name).pin(pin_name).layer
                cell = self._find_access_cell(self.to_cell(x, y, layer), taken)
                taken[cell] = (device_name, pin_name)
                self.occupancy[cell] = self.net_index[net_name]
                aps.append(AccessPoint(
                    net=net_name, device=device_name, pin=pin_name,
                    cell=cell, position=(x, y),
                ))
            self.access_points[net_name] = aps

    def _find_access_cell(
        self, cell: GridNode, taken: dict[GridNode, tuple[str, str]]
    ) -> GridNode:
        """Nearest in-bounds cell not already used as an access point."""
        ix, iy, layer = cell
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        for radius in range(0, max(self.nx, self.ny)):
            for dx in range(-radius, radius + 1):
                for dy in range(-radius, radius + 1):
                    if max(abs(dx), abs(dy)) != radius:
                        continue
                    candidate = (ix + dx, iy + dy, layer)
                    if not self.in_bounds(candidate):
                        continue
                    if candidate in taken:
                        continue
                    # Device-body blockage is fine for a pin (the pin sits on
                    # the body); another net's reservation is not.
                    if self.occupancy[candidate] >= 0:
                        continue
                    return candidate
        raise RoutingError("no free access cell found; grid exhausted",
                           stage="pin_access")

    # -- occupancy helpers ---------------------------------------------------------

    def owner(self, cell: GridNode) -> int:
        return int(self.occupancy[cell])

    def claim(self, cell: GridNode, net: str) -> None:
        self.occupancy[cell] = self.net_index[net]

    def release_net(self, net: str) -> None:
        """Free every cell owned by a net, keeping its access points."""
        idx = self.net_index[net]
        self.occupancy[self.occupancy == idx] = FREE
        for ap in self.access_points.get(net, []):
            self.occupancy[ap.cell] = idx

    def is_available(self, cell: GridNode, net: str) -> bool:
        """Whether a net may occupy a cell (free or already its own)."""
        occ = int(self.occupancy[cell])
        if occ == FREE:
            return True
        if occ == BLOCKED:
            return False
        return occ == self.net_index[net]

    def preferred_direction(self, layer: int) -> Direction:
        return self.tech.layer(layer).direction
