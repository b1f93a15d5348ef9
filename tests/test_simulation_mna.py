"""Tests for the MNA engine against hand-computable circuits."""

import numpy as np
import pytest

from repro.reliability.errors import SimulationError
from repro.simulation.mna import MnaSystem


class TestResistiveNetworks:
    def test_voltage_divider(self):
        """1A into two series 1-ohm resistors to ground."""
        sys = MnaSystem()
        sys.add_resistance("a", "b", 1.0)
        sys.add_resistance("b", "0", 1.0)
        sol = sys.solve(0.0, {"a": 1.0})
        assert sol["a"].real == pytest.approx(2.0, rel=1e-6)
        assert sol["b"].real == pytest.approx(1.0, rel=1e-6)

    def test_parallel_conductances_add(self):
        sys = MnaSystem()
        sys.add_conductance("a", "0", 1.0)
        sys.add_conductance("a", "0", 1.0)
        sol = sys.solve(0.0, {"a": 1.0})
        assert sol["a"].real == pytest.approx(0.5, rel=1e-6)

    def test_negative_conductance_rejected(self):
        with pytest.raises(ValueError):
            MnaSystem().add_conductance("a", "0", -1.0)

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(ValueError):
            MnaSystem().add_resistance("a", "0", 0.0)


class TestAcBehaviour:
    def test_rc_lowpass_pole(self):
        """RC low-pass driven by a stiff Norton source: |H| = 1/sqrt(2) at
        the pole frequency."""
        r, c = 1e3, 1e-9
        f_pole = 1.0 / (2 * np.pi * r * c)
        sys = MnaSystem()
        g_src = 1e3
        sys.add_conductance("in", "0", g_src)
        sys.add_resistance("in", "out", r)
        sys.add_capacitance("out", "0", c)
        lo = sys.solve(1.0, {"in": g_src})
        at_pole = sys.solve(f_pole, {"in": g_src})
        assert abs(lo["out"]) == pytest.approx(1.0, rel=1e-3)
        assert abs(at_pole["out"]) == pytest.approx(1.0 / np.sqrt(2), rel=1e-3)

    def test_capacitor_blocks_dc(self):
        sys = MnaSystem()
        sys.add_capacitance("a", "b", 1e-9)
        sys.add_resistance("b", "0", 1.0)
        sol = sys.solve(0.0, {"a": 1.0})
        # All current must return through G_MIN: node "a" floats up.
        assert abs(sol["a"]) > 1e6

    def test_sweep_solves_every_frequency_and_drive(self):
        """One stacked call equals a solve per frequency and drive."""
        sys = MnaSystem()
        sys.add_resistance("in", "out", 1e3)
        sys.add_capacitance("out", "0", 1e-9)
        freqs = [1.0, 1e5, 1e7]
        drives = [{"in": 1.0}, {"in": 2.0}, {"out": -0.5j}]
        sweep = sys.solve_sweep(freqs, drives)
        assert sweep.shape == (3, sys.num_nodes, 3)
        for i, freq in enumerate(freqs):
            for k, drive in enumerate(drives):
                single = sys.solve(freq, drive)
                for name in ("in", "out"):
                    assert sweep[i, sys.node(name), k] == single[name]
        assert sweep[:, :, 1] == pytest.approx(2 * sweep[:, :, 0], rel=1e-9)

    def test_non_finite_stamp_raises_typed(self):
        sys = MnaSystem()
        sys.add_resistance("a", "0", 1.0)
        sys.add_conductance("a", "b", float("nan"))
        with pytest.raises(SimulationError, match="non-finite entries"):
            sys.solve(1.0, {"a": 1.0})


class TestVccs:
    def test_inverting_amplifier(self):
        """gm stage with resistive load: gain = -gm * R."""
        gm, r_load = 1e-3, 10e3
        sys = MnaSystem()
        g_src = 1e3
        sys.add_conductance("in", "0", g_src)
        sys.add_vccs("out", "0", "in", "0", gm)
        sys.add_resistance("out", "0", r_load)
        sol = sys.solve(0.0, {"in": 1.0 * g_src})
        gain = sol["out"] / sol["in"]
        assert gain.real == pytest.approx(-gm * r_load, rel=1e-3)

    def test_diode_connected_gm_acts_as_conductance(self):
        """VCCS with output tied to its own control = 1/gm resistor."""
        gm = 1e-3
        sys = MnaSystem()
        sys.add_vccs("d", "0", "d", "0", gm)
        sol = sys.solve(0.0, {"d": 1e-3})
        assert sol["d"].real == pytest.approx(1.0, rel=1e-3)

    def test_differential_pair_rejects_common_mode(self):
        """Two matched gm stages driven by equal inputs give zero diff out."""
        sys = MnaSystem()
        g_src = 1e3
        for side in ("p", "n"):
            sys.add_conductance(f"in_{side}", "0", g_src)
            sys.add_vccs(f"out_{side}", "0", f"in_{side}", "0", 1e-3)
            sys.add_resistance(f"out_{side}", "0", 1e4)
        sol = sys.solve(0.0, {"in_p": g_src, "in_n": g_src})
        assert abs(sol["out_p"] - sol["out_n"]) < 1e-9


class TestAdjoint:
    def test_adjoint_matches_direct_transfer(self):
        """Adjoint transfer must equal direct injection measurement."""
        sys = MnaSystem()
        sys.add_resistance("a", "b", 3.0)
        sys.add_resistance("b", "0", 7.0)
        sys.add_capacitance("b", "0", 1e-9)
        sys.add_vccs("b", "0", "a", "0", 1e-4)
        freqs = [1e3, 1e6]
        transfers = sys.solve_sweep(freqs, [{"b": 1.0}], transposed=True)
        for f, freq in enumerate(freqs):
            direct = sys.solve(freq, {"a": 1.0})
            assert transfers[f, sys.node("a"), 0] == pytest.approx(
                direct["b"], rel=1e-9)

    def test_adjoint_weighted_output(self):
        sys = MnaSystem()
        sys.add_resistance("a", "0", 1.0)
        sys.add_resistance("b", "0", 1.0)
        transfers = sys.solve_sweep([0.0], [{"a": 1.0, "b": -1.0}],
                                    transposed=True)
        direct = sys.solve(0.0, {"a": 1.0})
        expected = direct["a"] - direct["b"]
        assert transfers[0, sys.node("a"), 0] == pytest.approx(expected,
                                                               rel=1e-9)

    def test_sweeps_share_the_matrix_stack_until_a_stamp(self):
        sys = MnaSystem()
        sys.add_resistance("a", "0", 1.0)
        sys.add_capacitance("a", "0", 1e-9)
        freqs = np.array([1e3, 1e6])
        first = sys._system_matrices(freqs)
        assert sys._system_matrices(freqs.copy()) is first
        sys.add_resistance("a", "0", 2.0)
        again = sys._system_matrices(freqs)
        assert again is not first
        assert again[0, 0, 0] == pytest.approx(1.5 + 2j * np.pi * 1e-6)
