"""Tests for SPICE / JSON / DEF persistence."""

import numpy as np
import pytest

from repro.io import (
    load_guidance,
    load_placement,
    routing_to_def_text,
    save_guidance,
    save_placement,
)
from repro.io.spice import circuit_to_spice, spice_to_circuit, write_spice
from repro.netlist import build_benchmark
from repro.netlist.nets import Net, NetType
from repro.reliability.errors import SpiceParseError
from repro.router.guidance import RoutingGuidance, uniform_guidance


class TestSpiceRoundTrip:
    @pytest.mark.parametrize("name", ["OTA1", "OTA3"])
    def test_roundtrip_preserves_structure(self, name):
        original = build_benchmark(name)
        restored = spice_to_circuit(circuit_to_spice(original))

        assert restored.name == original.name
        assert restored.topology == original.topology
        assert set(restored.devices) == set(original.devices)
        assert set(restored.nets) == set(original.nets)
        assert restored.stats() == original.stats()

    def test_roundtrip_preserves_connectivity(self, ota1):
        restored = spice_to_circuit(circuit_to_spice(ota1))
        for net_name, net in ota1.nets.items():
            assert sorted(restored.net(net_name).connections) == sorted(
                net.connections)

    def test_roundtrip_preserves_net_metadata(self, ota1):
        restored = spice_to_circuit(circuit_to_spice(ota1))
        for net_name, net in ota1.nets.items():
            r = restored.net(net_name)
            assert r.net_type == net.net_type
            assert r.weight == net.weight
            assert r.self_symmetric == net.self_symmetric

    def test_roundtrip_preserves_symmetry(self, ota1):
        restored = spice_to_circuit(circuit_to_spice(ota1))
        original_pairs = {(p.net_a, p.net_b, p.device_pairs)
                          for p in ota1.symmetry_pairs}
        restored_pairs = {(p.net_a, p.net_b, p.device_pairs)
                          for p in restored.symmetry_pairs}
        assert restored_pairs == original_pairs

    def test_roundtrip_preserves_sizing(self, ota1):
        restored = spice_to_circuit(circuit_to_spice(ota1))
        mos = ota1.device("MN_IN_L")
        r = restored.device("MN_IN_L")
        assert r.w == mos.w and r.l == mos.l
        assert r.fingers == mos.fingers
        assert r.bias_current == pytest.approx(mos.bias_current)
        assert r.is_bias_device == mos.is_bias_device

    def test_file_roundtrip(self, ota1, tmp_path):
        path = tmp_path / "ota1.sp"
        write_spice(ota1, path)
        assert spice_to_circuit(path.read_text()).stats() == ota1.stats()

    def test_unsupported_card_raises(self):
        with pytest.raises(SpiceParseError) as exc_info:
            spice_to_circuit("Q1 a b c model\n.END\n")
        assert exc_info.value.line_no == 1


class TestSpiceImporterBugs:
    """Regression tests for the importer bugfix sweep."""

    def test_float_sentinel_never_materializes(self, ota1):
        # The writer emits _FLOAT_ for unconnected terminals (bulk pins);
        # the importer must not turn it into a real net shorting them.
        text = circuit_to_spice(ota1)
        assert "_FLOAT_" in text
        restored = spice_to_circuit(text)
        assert "_FLOAT_" not in restored.nets

    def test_float_sentinel_nettype_line_ignored(self):
        text = (
            "* circuit: t\n"
            "MM1 d g s _FLOAT_ nch W=1.0u L=0.1u NF=1\n"
            "*.NETTYPE _FLOAT_ signal WEIGHT=1.0\n"
            ".END\n"
        )
        restored = spice_to_circuit(text)
        assert "_FLOAT_" not in restored.nets

    def test_missing_width_raises_typed_error(self):
        with pytest.raises(SpiceParseError, match="missing W="):
            spice_to_circuit("MM1 d g s b nch L=0.1u\n.END\n")

    def test_non_numeric_value_raises_typed_error(self):
        with pytest.raises(SpiceParseError, match="malformed card"):
            spice_to_circuit("MM1 d g s b nch W=abc L=0.1u\n.END\n")

    def test_duplicate_device_raises_typed_error(self):
        text = ("MM1 d g s b nch W=1u L=0.1u\n"
                "MM1 d2 g2 s2 b2 nch W=1u L=0.1u\n.END\n")
        with pytest.raises(SpiceParseError) as exc_info:
            spice_to_circuit(text)
        assert exc_info.value.line_no == 2

    def test_error_carries_path_from_file(self, tmp_path):
        path = tmp_path / "bad.sp"
        path.write_text("MM1 d g s b nch L=0.1u\n.END\n")
        with pytest.raises(SpiceParseError) as exc_info:
            spice_to_circuit(path.read_text(), path=str(path))
        assert exc_info.value.path == str(path)
        assert str(path) in str(exc_info.value)

    def test_dangling_nettype_net_preserved(self):
        # A declared net with no device terminal used to be silently
        # dropped on import; it must survive with its declared metadata.
        text = (
            "MM1 d g s b nch W=1.0u L=0.1u\n"
            "*.NETTYPE probe output WEIGHT=2.5\n"
            ".END\n"
        )
        restored = spice_to_circuit(text)
        assert "probe" in restored.nets
        probe = restored.net("probe")
        assert probe.net_type == NetType.OUTPUT
        assert probe.weight == 2.5
        assert probe.connections == []

    def test_dangling_net_round_trips(self):
        # Fresh circuit: the session-scoped ota1 fixture is read-only.
        circuit = build_benchmark("OTA1")
        circuit.add_net(Net(name="PROBE", net_type=NetType.SIGNAL, weight=3.0))
        restored = spice_to_circuit(circuit_to_spice(circuit))
        assert "PROBE" in restored.nets
        assert restored.net("PROBE").weight == 3.0


class TestGuidanceIo:
    def test_roundtrip(self, tmp_path):
        guidance = RoutingGuidance(c_max=3.0)
        guidance.set(("M1", "G"), np.array([0.4, 1.2, 2.2]))
        guidance.set(("CC_L", "PLUS"), np.array([1.0, 1.0, 0.3]))
        path = tmp_path / "guide.json"
        save_guidance(guidance, path)
        restored = load_guidance(path)
        assert restored.c_max == 3.0
        for key, vec in guidance.vectors.items():
            np.testing.assert_allclose(restored.get(key), vec)

    def test_empty_guidance(self, tmp_path):
        path = tmp_path / "empty.json"
        save_guidance(uniform_guidance(), path)
        assert load_guidance(path).vectors == {}

    def test_device_names_with_dots_rejected_cleanly(self, tmp_path):
        path = tmp_path / "guide.json"
        path.write_text('{"c_max": 4.0, "vectors": {"nopin": [1, 1, 1]}}')
        with pytest.raises(ValueError):
            load_guidance(path)


class TestPlacementIo:
    def test_roundtrip(self, ota1, ota1_placement, tmp_path):
        path = tmp_path / "place.json"
        save_placement(ota1_placement, path)
        restored = load_placement(ota1, path)
        assert restored.symmetry_axis == ota1_placement.symmetry_axis
        assert restored.variant == ota1_placement.variant
        for name, placed in ota1_placement.positions.items():
            r = restored.positions[name]
            assert (r.x, r.y, r.orientation) == (
                placed.x, placed.y, placed.orientation)
        assert restored.total_hpwl() == pytest.approx(
            ota1_placement.total_hpwl())

    def test_wrong_circuit_rejected(self, ota1_placement, ota3, tmp_path):
        path = tmp_path / "place.json"
        save_placement(ota1_placement, path)
        with pytest.raises(ValueError, match="saved for"):
            load_placement(ota3, path)

    def test_missing_device_rejected(self, ota1, ota1_placement, tmp_path):
        import json
        path = tmp_path / "place.json"
        save_placement(ota1_placement, path)
        payload = json.loads(path.read_text())
        payload["positions"].popitem()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="misses devices"):
            load_placement(ota1, path)


class TestDefExport:
    def test_def_contains_all_nets(self, ota1_routed):
        result, grid = ota1_routed
        text = routing_to_def_text(result, grid)
        for net in result.routes:
            assert f"- {net}" in text
        assert "END DESIGN" in text

    def test_def_points_on_layers(self, ota1_routed):
        result, grid = ota1_routed
        text = routing_to_def_text(result, grid)
        assert "M1" in text and "ROUTED" in text
