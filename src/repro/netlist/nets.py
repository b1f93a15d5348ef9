"""Nets, net types, and symmetry constraints.

The paper's Problem 1 distinguishes plain nets, self-symmetry nets,
symmetry net pairs, and special net types.  All are represented here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class NetType(enum.Enum):
    """Special net types (the paper's ``N^T``)."""

    SIGNAL = "signal"
    INPUT = "input"
    OUTPUT = "output"
    BIAS = "bias"
    POWER = "power"
    GROUND = "ground"
    CLOCK = "clock"

    @property
    def is_supply(self) -> bool:
        return self in (NetType.POWER, NetType.GROUND)


@dataclass
class Net:
    """A net connecting device pins.

    Attributes:
        name: unique net name within a circuit.
        net_type: special type of the net.
        connections: ordered list of (device_name, pin_name) terminals.
        self_symmetric: True when the net must be routed symmetrically
            about the circuit symmetry axis (the paper's ``N^SS``).
        weight: relative criticality weight, used by placement variants.
    """

    name: str
    net_type: NetType = NetType.SIGNAL
    connections: list[tuple[str, str]] = field(default_factory=list)
    self_symmetric: bool = False
    weight: float = 1.0

    def connect(self, device: str, pin: str) -> "Net":
        """Attach a device pin to this net (chainable)."""
        terminal = (device, pin)
        if terminal in self.connections:
            raise ValueError(f"{device}.{pin} already on net {self.name}")
        self.connections.append(terminal)
        return self

    @property
    def degree(self) -> int:
        return len(self.connections)

    def devices(self) -> list[str]:
        """Names of devices touched by this net, in connection order."""
        seen: dict[str, None] = {}
        for device, _ in self.connections:
            seen.setdefault(device)
        return list(seen)


@dataclass(frozen=True)
class SymmetryPair:
    """A pair of nets that must be routed mirror-symmetrically.

    The paper's ``N^SP``.  Device-level symmetry (matched pairs placed
    mirror-symmetrically) is carried alongside because the placer needs it.

    Attributes:
        net_a: left net name.
        net_b: right net name.
        device_pairs: matched device pairs ((left, right), ...) whose
            placement must mirror about the symmetry axis.
    """

    net_a: str
    net_b: str
    device_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.net_a == self.net_b:
            raise ValueError(
                f"symmetry pair must reference two distinct nets, got {self.net_a}"
            )

    def partner(self, net: str) -> str:
        if net == self.net_a:
            return self.net_b
        if net == self.net_b:
            return self.net_a
        raise KeyError(f"net {net} is not part of pair ({self.net_a}, {self.net_b})")

    def contains(self, net: str) -> bool:
        return net in (self.net_a, self.net_b)
