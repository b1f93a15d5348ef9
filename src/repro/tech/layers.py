"""Metal layer stack description.

A :class:`LayerStack` is an ordered list of routing layers, bottom (M1) to
top.  Each layer carries its preferred routing direction and the electrical
constants needed by parasitic extraction: sheet resistance, area capacitance
to the substrate, and fringe/coupling capacitance per unit length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Direction(enum.Enum):
    """Preferred routing direction of a metal layer."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"

    @property
    def axis(self) -> int:
        """Grid axis index: 0 for x (horizontal runs), 1 for y."""
        return 0 if self is Direction.HORIZONTAL else 1


class LayerPurpose(enum.Enum):
    """What a layer is used for."""

    ROUTING = "routing"
    PIN = "pin"
    DEVICE = "device"


@dataclass(frozen=True)
class Layer:
    """A single metal routing layer.

    Attributes:
        name: layer name, e.g. ``"M1"``.
        index: zero-based position in the stack (0 = lowest metal).
        direction: preferred routing direction.
        sheet_resistance: ohm per square.
        area_cap: farad per square micrometer to substrate.
        fringe_cap: farad per micrometer of edge.
        coupling_cap: farad per micrometer of parallel run at minimum
            spacing (scaled by spacing/actual-spacing during extraction).
        min_width: minimum wire width in micrometers.
        min_spacing: minimum spacing to a neighbouring wire in micrometers.
        purpose: what this layer is used for (routing by default).
    """

    name: str
    index: int
    direction: Direction
    sheet_resistance: float
    area_cap: float
    fringe_cap: float
    coupling_cap: float
    min_width: float
    min_spacing: float
    purpose: LayerPurpose = LayerPurpose.ROUTING

    def wire_resistance(self, length: float, width: float | None = None) -> float:
        """Resistance of a wire of ``length`` um and ``width`` um."""
        w = self.min_width if width is None else width
        if length < 0:
            raise ValueError(f"negative wire length {length}")
        if w <= 0:
            raise ValueError(f"non-positive wire width {w}")
        return self.sheet_resistance * length / w

    def wire_ground_cap(self, length: float, width: float | None = None) -> float:
        """Ground (area + fringe) capacitance of a wire segment."""
        w = self.min_width if width is None else width
        if length < 0:
            raise ValueError(f"negative wire length {length}")
        return self.area_cap * length * w + self.fringe_cap * 2.0 * length


@dataclass(frozen=True)
class Via:
    """A via cut connecting two adjacent metal layers.

    Attributes:
        name: via name, e.g. ``"V12"``.
        lower: index of the lower layer.
        resistance: ohm per single cut.
        cap: parasitic capacitance added per cut (farad).
    """

    name: str
    lower: int
    resistance: float
    cap: float

    @property
    def upper(self) -> int:
        return self.lower + 1


@dataclass
class LayerStack:
    """Ordered collection of routing layers and the vias between them."""

    layers: list[Layer] = field(default_factory=list)
    vias: list[Via] = field(default_factory=list)

    def __post_init__(self) -> None:
        for i, layer in enumerate(self.layers):
            if layer.index != i:
                raise ValueError(
                    f"layer {layer.name} has index {layer.index}, expected {i}"
                )
        if len(self.vias) != max(0, len(self.layers) - 1):
            raise ValueError(
                f"need exactly {len(self.layers) - 1} vias for "
                f"{len(self.layers)} layers, got {len(self.vias)}"
            )
        for i, via in enumerate(self.vias):
            if via.lower != i:
                raise ValueError(f"via {via.name} connects {via.lower}, expected {i}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer(self, index: int) -> Layer:
        return self.layers[index]

    def via_between(self, lower: int, upper: int) -> Via:
        """Via connecting two adjacent layer indices (order-insensitive)."""
        lo, hi = min(lower, upper), max(lower, upper)
        if hi - lo != 1:
            raise ValueError(f"layers {lower} and {upper} are not adjacent")
        return self.vias[lo]
