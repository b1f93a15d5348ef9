"""Device primitives: MOSFETs, capacitors, resistors, and dummies.

Each device owns a set of named :class:`Pin` objects.  Electrical values
(W/L, bias current, capacitance, resistance) feed the small-signal models in
:mod:`repro.simulation.smallsignal`; physical footprints feed the placer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DeviceType(enum.Enum):
    """Coarse device category, used for Table 1 statistics."""

    PMOS = "pmos"
    NMOS = "nmos"
    CAPACITOR = "cap"
    RESISTOR = "res"
    DUMMY = "dummy"


class MOSType(enum.Enum):
    """MOSFET polarity."""

    NMOS = "nmos"
    PMOS = "pmos"


@dataclass(frozen=True)
class Pin:
    """A named terminal of a device.

    Attributes:
        device: owning device name.
        name: terminal name ("G", "D", "S", "B", "PLUS", "MINUS").
        offset: (dx, dy) of the pin center relative to the device origin,
            in micrometers.
        layer: metal layer index the pin shape sits on.
    """

    device: str
    name: str
    offset: tuple[float, float] = (0.0, 0.0)
    layer: int = 0


@dataclass
class Device:
    """Base class for all placeable devices.

    Attributes:
        name: unique device name within a circuit.
        width: footprint width in micrometers.
        height: footprint height in micrometers.
        pins: terminal pins, keyed by pin name.
    """

    name: str
    width: float = 1.0
    height: float = 1.0
    pins: dict[str, Pin] = field(default_factory=dict)

    @property
    def device_type(self) -> DeviceType:
        raise NotImplementedError

    @property
    def is_electrical(self) -> bool:
        """Whether the device participates in the small-signal circuit."""
        return True

    def pin(self, name: str) -> Pin:
        try:
            return self.pins[name]
        except KeyError:
            raise KeyError(f"device {self.name} has no pin {name!r}") from None

    def area(self) -> float:
        return self.width * self.height

    def _add_pins(self, names: list[str]) -> None:
        """Lay pins out evenly along the device top edge on M1."""
        n = len(names)
        for i, pin_name in enumerate(names):
            dx = self.width * (i + 1) / (n + 1)
            self.pins[pin_name] = Pin(
                device=self.name, name=pin_name, offset=(dx, self.height / 2.0)
            )


@dataclass
class MOSFET(Device):
    """A MOSFET with square-law sizing parameters.

    Attributes:
        mos_type: polarity.
        w: total gate width in micrometers.
        l: gate length in micrometers.
        fingers: number of gate fingers.
        bias_current: drain bias current magnitude in amperes; devices in
            signal paths are assumed biased in saturation.
        is_bias_device: True for diode-connected / bias-network devices,
            which are modeled as conductances rather than gain elements.
    """

    mos_type: MOSType = MOSType.NMOS
    w: float = 1.0
    l: float = 0.04
    fingers: int = 1
    bias_current: float = 10e-6
    is_bias_device: bool = False

    def __post_init__(self) -> None:
        if self.w <= 0 or self.l <= 0:
            raise ValueError(f"{self.name}: W and L must be positive")
        if self.fingers < 1:
            raise ValueError(f"{self.name}: fingers must be >= 1")
        if self.bias_current < 0:
            raise ValueError(f"{self.name}: bias current must be >= 0")
        if not self.pins:
            # Footprint grows with device area; pins stay >= 0.5um apart so
            # they land on distinct routing-grid cells.
            finger_w = self.w / self.fingers
            self.width = max(2.6, 0.4 * self.fingers + 1.2)
            self.height = max(1.0, 0.15 * finger_w + 0.8)
            self._add_pins(["D", "G", "S", "B"])

    @property
    def device_type(self) -> DeviceType:
        if self.mos_type is MOSType.PMOS:
            return DeviceType.PMOS
        return DeviceType.NMOS


@dataclass
class Capacitor(Device):
    """A MOM/MIM capacitor.

    Attributes:
        value: capacitance in farads.
    """

    value: float = 1e-12

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"{self.name}: capacitance must be positive")
        if not self.pins:
            # Stacked MOM density ~20 fF/um^2, square aspect.
            side = max(1.6, (self.value / 20e-15) ** 0.5)
            self.width = side
            self.height = side
            self._add_pins(["PLUS", "MINUS"])

    @property
    def device_type(self) -> DeviceType:
        return DeviceType.CAPACITOR


@dataclass
class Resistor(Device):
    """A poly resistor.

    Attributes:
        value: resistance in ohms.
    """

    value: float = 1e3

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")
        if not self.pins:
            # Poly sheet ~300 ohm/sq at 0.4um width, serpentine footprint.
            squares = self.value / 300.0
            self.width = max(0.8, min(4.0, 0.4 * squares**0.5 + 0.6))
            self.height = max(0.8, min(4.0, 0.4 * squares**0.5 + 0.6))
            self._add_pins(["PLUS", "MINUS"])

    @property
    def device_type(self) -> DeviceType:
        return DeviceType.RESISTOR


@dataclass
class Dummy(Device):
    """A dummy/guard device: occupies area, has no electrical role."""

    def __post_init__(self) -> None:
        if not self.pins:
            self.width = max(self.width, 0.6)
            self.height = max(self.height, 0.6)

    @property
    def device_type(self) -> DeviceType:
        return DeviceType.DUMMY

    @property
    def is_electrical(self) -> bool:
        return False
