"""Tests for small-signal models, the testbench, and the analyses."""

import numpy as np
import pytest

from repro.extraction import extract_schematic
from repro.netlist import MOSFET, MOSType, build_benchmark
from repro.simulation import (
    PerformanceMetrics,
    Testbench,
    TestbenchConfig,
    mos_small_signal,
    simulate_performance,
)
from repro.simulation.analyses import (
    DEFAULT_FREQS,
    ac_analysis,
    cmrr_db,
    dc_gain_db,
    offset_voltage_uv,
    output_noise_uvrms,
    unity_gain_bandwidth_hz,
)
from repro.simulation.smallsignal import mismatch_factor


class TestSmallSignal:
    def test_gm_scales_with_current(self):
        lo = mos_small_signal(MOSFET(name="a", bias_current=10e-6))
        hi = mos_small_signal(MOSFET(name="a", bias_current=40e-6))
        assert hi.gm == pytest.approx(4.0 * lo.gm)

    def test_gds_scales_inverse_length(self):
        short = mos_small_signal(MOSFET(name="a", l=0.04))
        long = mos_small_signal(MOSFET(name="a", l=0.08))
        assert short.gds == pytest.approx(2.0 * long.gds)

    def test_caps_scale_with_width(self):
        narrow = mos_small_signal(MOSFET(name="a", w=2.0))
        wide = mos_small_signal(MOSFET(name="a", w=8.0))
        assert wide.cgs > narrow.cgs
        assert wide.cgd == pytest.approx(4.0 * narrow.cgd)

    def test_noise_positive(self):
        p = mos_small_signal(MOSFET(name="a"))
        assert p.thermal_noise_psd > 0
        assert p.flicker_coeff > 0

    def test_mismatch_deterministic(self):
        a = mismatch_factor("OTA1", "M1", 1e-3)
        b = mismatch_factor("OTA1", "M1", 1e-3)
        assert a == b

    def test_mismatch_differs_by_device_and_circuit(self):
        assert mismatch_factor("OTA1", "M1", 1e-3) != mismatch_factor(
            "OTA1", "M2", 1e-3)
        assert mismatch_factor("OTA1", "M1", 1e-3) != mismatch_factor(
            "OTA2", "M1", 1e-3)

    def test_zero_sigma_is_exact_unity(self):
        assert mos_small_signal(MOSFET(name="a"), "OTA1", 0.0).gm == \
            mos_small_signal(MOSFET(name="a"), "OTA1", 0.0).gm


class TestTestbench:
    def test_terminal_nodes_merge_without_parasitics(self, ota1):
        bench = Testbench(ota1, extract_schematic(list(ota1.nets)))
        assert bench._terminal_node[("MN_IN_L", "G")] == "VINP"

    def test_terminal_nodes_split_with_parasitics(self, ota1, ota1_parasitics):
        bench = Testbench(ota1, ota1_parasitics)
        split = [
            node for (dev, pin), node in bench._terminal_node.items()
            if "@" in node
        ]
        assert split, "extracted resistances should create terminal nodes"

    def test_noise_sources_cover_mosfets_and_resistors(self, ota3):
        bench = Testbench(ota3, extract_schematic(list(ota3.nets)))
        num_mos = sum(1 for d in ota3.devices.values()
                      if isinstance(d, MOSFET))
        assert len(bench.noise_sources) == num_mos + 4  # + resistors


class TestAnalyses:
    @pytest.fixture(scope="class")
    def schematic_bench(self):
        circuit = build_benchmark("OTA1")
        return Testbench(circuit, extract_schematic(list(circuit.nets)))

    @pytest.fixture(scope="class")
    def ac(self, schematic_bench):
        return ac_analysis(schematic_bench)

    def test_gain_rolls_off(self, ac):
        mags = np.abs(ac.h_diff)
        assert mags[0] > mags[-1]

    def test_dc_gain_reasonable(self, ac):
        assert 20.0 < dc_gain_db(ac) < 80.0

    def test_ugb_within_sweep(self, ac):
        ugb = unity_gain_bandwidth_hz(ac)
        assert ac.freqs[0] < ugb < ac.freqs[-1]

    def test_ugb_zero_when_gain_below_unity(self, ac):
        import dataclasses
        tiny = dataclasses.replace(ac, h_diff=ac.h_diff * 1e-6)
        assert unity_gain_bandwidth_hz(tiny) == 0.0

    def test_cmrr_large_for_schematic(self, ac):
        assert cmrr_db(ac) > 100.0

    def test_noise_positive(self, schematic_bench):
        assert output_noise_uvrms(schematic_bench) > 0.0

    def test_offset_zero_parasitics_small(self, ota1):
        para = extract_schematic(list(ota1.nets))
        offset = offset_voltage_uv(ota1, para, mismatch_sigma=5e-7)
        assert 0.0 < offset < 10.0

    def test_offset_grows_with_mismatch(self, ota1, ota1_parasitics):
        small = offset_voltage_uv(ota1, ota1_parasitics, mismatch_sigma=1e-8)
        large = offset_voltage_uv(ota1, ota1_parasitics, mismatch_sigma=1e-4)
        assert large > small


def _noise_per_frequency(bench, freqs):
    """The per-frequency noise loop: one transposed solve and one pass
    over the noise sources per frequency (the oracle of the stacked
    ``output_noise_uvrms``)."""
    system = bench.system
    pos, neg = bench.config.output_nets
    matrices = system._system_matrices(freqs)
    rhs = np.zeros(system.num_nodes, dtype=complex)
    rhs[system.node(bench.net_node(pos))] += 1.0
    rhs[system.node(bench.net_node(neg))] += -1.0
    psd = np.zeros(len(freqs))
    for i, freq in enumerate(freqs):
        solution = np.linalg.solve(matrices[i].T, rhs)

        def transfer(node):
            if node == system.GROUND:
                return 0.0 + 0.0j
            return solution[system.node(node)]

        total = 0.0
        for node_d, node_s, thermal, flicker in bench.noise_sources:
            t = transfer(node_d) - transfer(node_s)
            total += (abs(t) ** 2) * (thermal + flicker / freq)
        psd[i] = total
    return float(np.sqrt(max(np.trapezoid(psd, freqs), 0.0)) * 1e6)


class TestStackedNoise:
    """The stacked noise solve equals the per-frequency loop bitwise."""

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3", "OTA4"])
    def test_schematic_matches_loop(self, name):
        circuit = build_benchmark(name)
        bench = Testbench(circuit, extract_schematic(list(circuit.nets)))
        stacked = output_noise_uvrms(bench, DEFAULT_FREQS)
        assert stacked == _noise_per_frequency(bench, DEFAULT_FREQS)

    def test_routed_layout_matches_loop(self, ota1, ota1_parasitics):
        bench = Testbench(ota1, ota1_parasitics)
        stacked = output_noise_uvrms(bench, DEFAULT_FREQS)
        assert stacked == _noise_per_frequency(bench, DEFAULT_FREQS)


class TestSimulatePerformance:
    def test_all_benchmarks_simulate(self):
        for name in ("OTA1", "OTA2", "OTA3", "OTA4"):
            circuit = build_benchmark(name)
            metrics = simulate_performance(
                circuit, extract_schematic(list(circuit.nets)))
            assert metrics.gain_db > 10.0
            assert metrics.bandwidth_mhz > 1.0
            assert metrics.cmrr_db > 60.0
            assert metrics.noise_uvrms > 0.0

    def test_layout_degrades_cmrr_and_offset(self, ota1, ota1_parasitics):
        schem = simulate_performance(ota1, extract_schematic(list(ota1.nets)))
        layout = simulate_performance(ota1, ota1_parasitics)
        assert layout.cmrr_db < schem.cmrr_db
        assert layout.offset_uv > schem.offset_uv

    def test_deterministic(self, ota1, ota1_parasitics):
        a = simulate_performance(ota1, ota1_parasitics)
        b = simulate_performance(ota1, ota1_parasitics)
        assert a == b

    def test_custom_load_shifts_bandwidth(self, ota1):
        para = extract_schematic(list(ota1.nets))
        light = simulate_performance(ota1, para, TestbenchConfig(load_cap=0.1e-12))
        heavy = simulate_performance(ota1, para, TestbenchConfig(load_cap=5e-12))
        assert light.bandwidth_mhz > heavy.bandwidth_mhz


class TestMetrics:
    def test_normalization_roundtrip(self):
        m = PerformanceMetrics(offset_uv=123.0, cmrr_db=88.0,
                               bandwidth_mhz=45.0, gain_db=37.0,
                               noise_uvrms=250.0)
        back = PerformanceMetrics.from_normalized(m.to_normalized())
        assert back.offset_uv == pytest.approx(m.offset_uv, rel=1e-9)
        assert back.cmrr_db == pytest.approx(m.cmrr_db, rel=1e-9)
        assert back.bandwidth_mhz == pytest.approx(m.bandwidth_mhz, rel=1e-9)
        assert back.gain_db == pytest.approx(m.gain_db, rel=1e-9)
        assert back.noise_uvrms == pytest.approx(m.noise_uvrms, rel=1e-9)

    def test_from_normalized_bad_shape(self):
        with pytest.raises(ValueError):
            PerformanceMetrics.from_normalized(np.zeros(4))

    def test_fom_lower_for_better_metrics(self):
        from repro.simulation import FoMWeights
        weights = FoMWeights()
        good = PerformanceMetrics(10.0, 120.0, 100.0, 40.0, 200.0)
        bad = PerformanceMetrics(1000.0, 60.0, 10.0, 20.0, 2000.0)
        assert weights.fom(good) < weights.fom(bad)
