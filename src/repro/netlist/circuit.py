"""The Circuit container: devices + nets + symmetry constraints."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.devices import Device, DeviceType
from repro.netlist.nets import Net, NetType, SymmetryPair


@dataclass(frozen=True)
class CircuitStats:
    """Device statistics matching the columns of the paper's Table 1."""

    num_pmos: int
    num_nmos: int
    num_cap: int
    num_res: int
    num_total: int

    def as_row(self) -> tuple[int, int, int, int, int]:
        return (self.num_pmos, self.num_nmos, self.num_cap, self.num_res, self.num_total)


@dataclass
class Circuit:
    """A complete analog circuit.

    Attributes:
        name: circuit name (e.g. "OTA1").
        topology: topology family tag ("miller" / "telescopic"), consumed
            by the simulation testbench.
        devices: devices keyed by name.
        nets: nets keyed by name.
        symmetry_pairs: symmetric net pairs (paper's ``N^SP``).
    """

    name: str
    topology: str = "generic"
    devices: dict[str, Device] = field(default_factory=dict)
    nets: dict[str, Net] = field(default_factory=dict)
    symmetry_pairs: list[SymmetryPair] = field(default_factory=list)

    # -- construction --------------------------------------------------------

    def add_device(self, device: Device) -> Device:
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        return device

    def add_net(self, net: Net) -> Net:
        if net.name in self.nets:
            raise ValueError(f"duplicate net name {net.name!r}")
        self.nets[net.name] = net
        return net

    def new_net(self, name: str, net_type: NetType = NetType.SIGNAL, **kwargs) -> Net:
        return self.add_net(Net(name=name, net_type=net_type, **kwargs))

    def add_symmetry_pair(self, pair: SymmetryPair) -> SymmetryPair:
        for net_name in (pair.net_a, pair.net_b):
            if net_name not in self.nets:
                raise KeyError(f"symmetry pair references unknown net {net_name!r}")
        for left, right in pair.device_pairs:
            for dev in (left, right):
                if dev not in self.devices:
                    raise KeyError(f"symmetry pair references unknown device {dev!r}")
        self.symmetry_pairs.append(pair)
        return pair

    # -- queries --------------------------------------------------------------

    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError:
            raise KeyError(f"circuit {self.name} has no device {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self.nets[name]
        except KeyError:
            raise KeyError(f"circuit {self.name} has no net {name!r}") from None

    def net_of(self, device: str, pin: str) -> Net | None:
        """The net a device pin is attached to, or None if floating."""
        for net in self.nets.values():
            if (device, pin) in net.connections:
                return net
        return None

    def signal_nets(self) -> list[Net]:
        """Nets routed by the detailed router (non-supply)."""
        return [n for n in self.nets.values() if not n.net_type.is_supply]

    def symmetric_net_names(self) -> set[str]:
        names: set[str] = set()
        for pair in self.symmetry_pairs:
            names.add(pair.net_a)
            names.add(pair.net_b)
        return names

    def symmetry_pair_of(self, net_name: str) -> SymmetryPair | None:
        for pair in self.symmetry_pairs:
            if pair.contains(net_name):
                return pair
        return None

    def stats(self) -> CircuitStats:
        """Device statistics in the format of the paper's Table 1."""
        counts = {t: 0 for t in DeviceType}
        for device in self.devices.values():
            counts[device.device_type] += 1
        return CircuitStats(
            num_pmos=counts[DeviceType.PMOS],
            num_nmos=counts[DeviceType.NMOS],
            num_cap=counts[DeviceType.CAPACITOR],
            num_res=counts[DeviceType.RESISTOR],
            num_total=len(self.devices),
        )

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError when the netlist is inconsistent.

        Checks that every connection references an existing device pin, that
        no pin appears on two nets, and that symmetric net pairs have equal
        terminal counts (a mirror route needs a mirror pin set).
        """
        seen: dict[tuple[str, str], str] = {}
        for net in self.nets.values():
            for device_name, pin_name in net.connections:
                if device_name not in self.devices:
                    raise ValueError(
                        f"net {net.name}: unknown device {device_name!r}"
                    )
                device = self.devices[device_name]
                if pin_name not in device.pins:
                    raise ValueError(
                        f"net {net.name}: device {device_name} has no pin {pin_name!r}"
                    )
                key = (device_name, pin_name)
                if key in seen:
                    raise ValueError(
                        f"pin {device_name}.{pin_name} on both {seen[key]} and {net.name}"
                    )
                seen[key] = net.name
        for pair in self.symmetry_pairs:
            a, b = self.net(pair.net_a), self.net(pair.net_b)
            if a.degree != b.degree:
                raise ValueError(
                    f"symmetry pair ({a.name}, {b.name}) has unequal terminal "
                    f"counts {a.degree} != {b.degree}"
                )
