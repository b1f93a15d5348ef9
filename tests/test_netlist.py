"""Tests for devices, nets, circuits, and the OTA benchmarks."""

import pytest

from repro.netlist import (
    BENCHMARKS,
    Capacitor,
    Circuit,
    DeviceType,
    Dummy,
    MOSFET,
    MOSType,
    Net,
    NetType,
    Resistor,
    SymmetryPair,
    build_benchmark,
)


class TestDevices:
    def test_mosfet_default_pins(self):
        mos = MOSFET(name="M1", mos_type=MOSType.NMOS, w=4.0, l=0.06)
        assert set(mos.pins) == {"G", "D", "S", "B"}

    def test_mosfet_pin_offsets_inside_footprint(self):
        mos = MOSFET(name="M1", w=8.0, l=0.06, fingers=4)
        for pin in mos.pins.values():
            assert 0 <= pin.offset[0] <= mos.width
            assert 0 <= pin.offset[1] <= mos.height

    def test_mosfet_pins_spaced_for_routing_grid(self):
        mos = MOSFET(name="M1", w=2.0, l=0.06)
        xs = sorted(p.offset[0] for p in mos.pins.values())
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert min(gaps) >= 0.5

    def test_mosfet_invalid_sizing_raises(self):
        with pytest.raises(ValueError):
            MOSFET(name="M1", w=-1.0)
        with pytest.raises(ValueError):
            MOSFET(name="M1", fingers=0)
        with pytest.raises(ValueError):
            MOSFET(name="M1", bias_current=-1e-6)

    def test_device_types(self):
        assert MOSFET(name="a", mos_type=MOSType.PMOS).device_type is DeviceType.PMOS
        assert MOSFET(name="b").device_type is DeviceType.NMOS
        assert Capacitor(name="c").device_type is DeviceType.CAPACITOR
        assert Resistor(name="d").device_type is DeviceType.RESISTOR
        assert Dummy(name="e").device_type is DeviceType.DUMMY

    def test_capacitor_invalid_value(self):
        with pytest.raises(ValueError):
            Capacitor(name="c", value=0.0)

    def test_resistor_two_pins(self):
        res = Resistor(name="r", value=10e3)
        assert set(res.pins) == {"PLUS", "MINUS"}

    def test_pin_lookup_missing_raises(self):
        with pytest.raises(KeyError):
            MOSFET(name="m").pin("X")


class TestNets:
    def test_connect_is_chainable(self):
        net = Net(name="n")
        assert net.connect("a", "G").connect("b", "D") is net
        assert net.degree == 2

    def test_duplicate_terminal_raises(self):
        net = Net(name="n").connect("a", "G")
        with pytest.raises(ValueError):
            net.connect("a", "G")

    def test_devices_deduplicated_in_order(self):
        net = Net(name="n").connect("b", "G").connect("a", "D").connect("b", "S")
        assert net.devices() == ["b", "a"]

    def test_supply_classification(self):
        assert NetType.POWER.is_supply
        assert NetType.GROUND.is_supply
        assert not NetType.SIGNAL.is_supply

    def test_symmetry_pair_partner(self):
        pair = SymmetryPair("x", "y")
        assert pair.partner("x") == "y"
        assert pair.partner("y") == "x"
        with pytest.raises(KeyError):
            pair.partner("z")

    def test_symmetry_pair_self_reference_raises(self):
        with pytest.raises(ValueError):
            SymmetryPair("x", "x")


class TestCircuit:
    def _tiny(self):
        c = Circuit(name="tiny")
        c.add_device(MOSFET(name="M1"))
        c.add_device(MOSFET(name="M2"))
        c.new_net("A").connect("M1", "D").connect("M2", "G")
        c.new_net("B").connect("M1", "G").connect("M2", "D")
        return c

    def test_duplicate_device_raises(self):
        c = self._tiny()
        with pytest.raises(ValueError):
            c.add_device(MOSFET(name="M1"))

    def test_duplicate_net_raises(self):
        c = self._tiny()
        with pytest.raises(ValueError):
            c.new_net("A")

    def test_net_of(self):
        c = self._tiny()
        assert c.net_of("M1", "D").name == "A"
        assert c.net_of("M1", "S") is None

    def test_validate_unknown_device(self):
        c = self._tiny()
        c.net("A").connect("GHOST", "G")
        with pytest.raises(ValueError, match="unknown device"):
            c.validate()

    def test_validate_unknown_pin(self):
        c = self._tiny()
        c.net("A").connect("M1", "NOPE")
        with pytest.raises(ValueError, match="no pin"):
            c.validate()

    def test_validate_pin_on_two_nets(self):
        c = self._tiny()
        c.net("B").connect("M1", "D")  # already on net A
        with pytest.raises(ValueError, match="on both"):
            c.validate()

    def test_symmetry_pair_unknown_net_raises(self):
        c = self._tiny()
        with pytest.raises(KeyError):
            c.add_symmetry_pair(SymmetryPair("A", "NOPE"))

    def test_symmetry_pair_unequal_degree_fails_validation(self):
        c = self._tiny()
        c.net("A").connect("M2", "S")
        c.add_symmetry_pair(SymmetryPair("A", "B"))
        with pytest.raises(ValueError, match="unequal terminal"):
            c.validate()

    def test_symmetry_pair_of(self):
        c = self._tiny()
        pair = c.add_symmetry_pair(SymmetryPair("A", "B"))
        assert c.symmetry_pair_of("A") is pair
        assert c.symmetry_pair_of("B") is pair


class TestBenchmarks:
    #: Expected Table 1 rows: (#PMOS, #NMOS, #Cap, #Res, #Total).
    TABLE1 = {
        "OTA1": (6, 8, 2, 0, 25),
        "OTA2": (6, 8, 2, 0, 25),
        "OTA3": (16, 10, 6, 4, 36),
        "OTA4": (16, 10, 6, 4, 36),
    }

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_table1_counts(self, name):
        assert build_benchmark(name).stats().as_row() == self.TABLE1[name]

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_netlists_validate(self, name):
        build_benchmark(name).validate()

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_have_symmetry_constraints(self, name):
        circuit = build_benchmark(name)
        assert len(circuit.symmetry_pairs) >= 3
        assert any(n.self_symmetric for n in circuit.nets.values())

    def test_same_topology_pairs(self):
        assert build_benchmark("OTA1").topology == build_benchmark("OTA2").topology
        assert build_benchmark("OTA3").topology == build_benchmark("OTA4").topology
        assert build_benchmark("OTA1").topology != build_benchmark("OTA3").topology

    def test_sizing_differs_within_pair(self):
        w1 = build_benchmark("OTA1").device("MN_IN_L").w
        w2 = build_benchmark("OTA2").device("MN_IN_L").w
        assert w1 != w2

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            build_benchmark("OTA9")

    def test_registry_is_complete(self):
        assert set(BENCHMARKS) == set(self.TABLE1)

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_io_nets_present(self, name):
        circuit = build_benchmark(name)
        for net in ("VINP", "VINN", "VOUTP", "VOUTN", "VDD", "VSS"):
            assert net in circuit.nets

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_symmetric_pairs_have_mirrored_devices(self, name):
        circuit = build_benchmark(name)
        with_devices = [p for p in circuit.symmetry_pairs if p.device_pairs]
        assert with_devices, "at least one pair must constrain devices"
