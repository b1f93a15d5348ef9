"""Design rules consumed by the router and the post-processing pass.

Rules are expressed on the routing grid: the router works on integer grid
coordinates, and the rules translate geometric constraints (width, spacing)
into grid-level constraints (forbidden adjacencies, blocked cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class WidthRule:
    """Minimum and default wire width on a layer (micrometers)."""

    layer: int
    min_width: float
    default_width: float

    def __post_init__(self) -> None:
        if self.min_width <= 0:
            raise ValueError(f"min_width must be positive, got {self.min_width}")
        if self.default_width < self.min_width:
            raise ValueError(
                f"default_width {self.default_width} < min_width {self.min_width}"
            )


@dataclass(frozen=True)
class SpacingRule:
    """Minimum spacing between wires of different nets on a layer."""

    layer: int
    min_spacing: float

    def __post_init__(self) -> None:
        if self.min_spacing <= 0:
            raise ValueError(f"min_spacing must be positive, got {self.min_spacing}")


@dataclass
class DesignRules:
    """Complete rule deck for one technology.

    Attributes:
        width_rules: per-layer width rules, indexed by layer.
        spacing_rules: per-layer spacing rules, indexed by layer.
        grid_pitch: routing grid pitch in micrometers; one grid cell per
            pitch.  The pitch is chosen so that min_width + min_spacing fits
            inside one pitch, making "one net per grid cell" DRC-clean by
            construction for same-layer parallel wires.
        via_enclosure: required metal enclosure of a via cut (micrometers).
        max_via_stack: maximum number of vias stacked at one (x, y).
    """

    width_rules: list[WidthRule] = field(default_factory=list)
    spacing_rules: list[SpacingRule] = field(default_factory=list)
    grid_pitch: float = 0.2
    via_enclosure: float = 0.02
    max_via_stack: int = 4

    def __post_init__(self) -> None:
        if self.grid_pitch <= 0:
            raise ValueError(f"grid_pitch must be positive, got {self.grid_pitch}")
        for i, rule in enumerate(self.width_rules):
            if rule.layer != i:
                raise ValueError(f"width rule {i} is for layer {rule.layer}")
        for i, rule in enumerate(self.spacing_rules):
            if rule.layer != i:
                raise ValueError(f"spacing rule {i} is for layer {rule.layer}")
        for w, s in zip(self.width_rules, self.spacing_rules):
            if w.default_width + s.min_spacing > self.grid_pitch:
                raise ValueError(
                    f"layer {w.layer}: default width {w.default_width} + spacing "
                    f"{s.min_spacing} exceeds grid pitch {self.grid_pitch}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.width_rules)

    def default_width(self, layer: int) -> float:
        return self.width_rules[layer].default_width

    def min_spacing(self, layer: int) -> float:
        return self.spacing_rules[layer].min_spacing

    def to_um(self, grid_index: int) -> float:
        """Convert a grid index back to micrometers."""
        return grid_index * self.grid_pitch
