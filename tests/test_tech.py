"""Tests for the technology substrate (layers, rules, technology)."""

import pytest

from repro.tech import (
    DesignRules,
    Direction,
    Layer,
    LayerStack,
    SpacingRule,
    Technology,
    WidthRule,
    generic_40nm,
)
from repro.tech.layers import LayerPurpose, Via


def make_layer(index=0, direction=Direction.HORIZONTAL, **kwargs):
    defaults = dict(
        name=f"M{index + 1}", index=index, direction=direction,
        sheet_resistance=2.0, area_cap=1e-16, fringe_cap=4e-17,
        coupling_cap=8e-17, min_width=0.06, min_spacing=0.06,
    )
    defaults.update(kwargs)
    return Layer(**defaults)


class TestDirection:
    def test_horizontal_axis_is_x(self):
        assert Direction.HORIZONTAL.axis == 0

    def test_vertical_axis_is_y(self):
        assert Direction.VERTICAL.axis == 1


class TestLayer:
    def test_wire_resistance_scales_with_length(self):
        layer = make_layer()
        assert layer.wire_resistance(2.0, 0.1) == pytest.approx(
            2.0 * layer.wire_resistance(1.0, 0.1))

    def test_wire_resistance_uses_min_width_default(self):
        layer = make_layer()
        assert layer.wire_resistance(1.0) == pytest.approx(
            layer.sheet_resistance / layer.min_width)

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            make_layer().wire_resistance(-1.0)

    def test_zero_width_raises(self):
        with pytest.raises(ValueError):
            make_layer().wire_resistance(1.0, 0.0)

    def test_ground_cap_has_area_and_fringe(self):
        layer = make_layer()
        cap = layer.wire_ground_cap(1.0, 0.1)
        assert cap == pytest.approx(layer.area_cap * 0.1 + layer.fringe_cap * 2.0)

    def test_default_purpose_is_routing(self):
        assert make_layer().purpose is LayerPurpose.ROUTING


class TestLayerStack:
    def _stack(self, n=3):
        layers = [
            make_layer(i, Direction.HORIZONTAL if i % 2 == 0 else Direction.VERTICAL)
            for i in range(n)
        ]
        vias = [Via(name=f"V{i}", lower=i, resistance=4.0, cap=1e-17)
                for i in range(n - 1)]
        return LayerStack(layers=layers, vias=vias)

    def test_num_layers(self):
        assert self._stack(3).num_layers == 3

    def test_via_between_order_insensitive(self):
        stack = self._stack()
        assert stack.via_between(0, 1) is stack.via_between(1, 0)

    def test_via_between_nonadjacent_raises(self):
        with pytest.raises(ValueError):
            self._stack().via_between(0, 2)

    def test_wrong_layer_index_raises(self):
        with pytest.raises(ValueError):
            LayerStack(layers=[make_layer(index=1)], vias=[])

    def test_missing_vias_raises(self):
        layers = [make_layer(0), make_layer(1, Direction.VERTICAL)]
        with pytest.raises(ValueError):
            LayerStack(layers=layers, vias=[])


class TestDesignRules:
    def _rules(self, pitch=0.2):
        return DesignRules(
            width_rules=[WidthRule(0, 0.06, 0.08), WidthRule(1, 0.06, 0.08)],
            spacing_rules=[SpacingRule(0, 0.06), SpacingRule(1, 0.06)],
            grid_pitch=pitch,
        )

    def test_pitch_must_fit_width_plus_spacing(self):
        with pytest.raises(ValueError):
            self._rules(pitch=0.1)

    def test_default_width_lookup(self):
        assert self._rules().default_width(1) == 0.08

    def test_invalid_width_rule(self):
        with pytest.raises(ValueError):
            WidthRule(0, min_width=0.06, default_width=0.05)

    def test_nonpositive_spacing_raises(self):
        with pytest.raises(ValueError):
            SpacingRule(0, min_spacing=0.0)


class TestGeneric40nm:
    def test_default_has_four_layers(self):
        assert generic_40nm().num_layers == 4

    def test_alternating_directions(self):
        tech = generic_40nm()
        for i in range(tech.num_layers):
            expected = Direction.HORIZONTAL if i % 2 == 0 else Direction.VERTICAL
            assert tech.layer(i).direction is expected

    def test_sheet_resistance_decreases_upward(self):
        tech = generic_40nm(num_layers=6)
        rs = [tech.layer(i).sheet_resistance for i in range(6)]
        assert rs == sorted(rs, reverse=True)

    def test_layer_count_bounds(self):
        with pytest.raises(ValueError):
            generic_40nm(num_layers=1)
        with pytest.raises(ValueError):
            generic_40nm(num_layers=7)

    def test_rules_align_with_stack(self):
        tech = generic_40nm(num_layers=3)
        assert tech.rules.num_layers == tech.stack.num_layers

    def test_technology_rejects_misaligned_rules(self):
        tech = generic_40nm()
        bad_rules = DesignRules(
            width_rules=[WidthRule(0, 0.06, 0.08)],
            spacing_rules=[SpacingRule(0, 0.06)],
            grid_pitch=0.2,
        )
        with pytest.raises(ValueError):
            Technology(name="bad", stack=tech.stack, rules=bad_rules)
