"""AC, CMRR, noise, and offset analyses producing the paper's metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.parasitics import ParasiticNetwork
from repro.netlist.circuit import Circuit
from repro.netlist.devices import MOSFET
from repro.reliability.faults import maybe_inject
from repro.simulation.metrics import PerformanceMetrics
from repro.simulation.smallsignal import V_OV, mismatch_factor
from repro.simulation.testbench import Testbench, TestbenchConfig

#: Default log-spaced analysis grid (hertz).
DEFAULT_FREQS = np.logspace(0, 10.5, 64)

#: Offset sensitivity of coupling imbalance: volts per farad of mismatch.
OFFSET_PER_COUPLING_F = 20e-6 / 1e-15


@dataclass(frozen=True)
class AcResult:
    """Differential and common-mode transfer functions over frequency."""

    freqs: np.ndarray
    h_diff: np.ndarray
    h_cm: np.ndarray


def ac_analysis(bench: Testbench, freqs: np.ndarray = DEFAULT_FREQS) -> AcResult:
    """Differential and common-mode-to-differential sweeps, every
    frequency and both drives solved in one stacked call."""
    voltages = bench.system.solve_sweep(freqs, [
        bench.input_injections(0.5, -0.5), bench.input_injections(1.0, 1.0)])
    return AcResult(freqs=freqs,
                    h_diff=bench.differential_output(voltages[:, :, 0]),
                    h_cm=bench.differential_output(voltages[:, :, 1]))


def dc_gain_db(ac: AcResult) -> float:
    """DC differential gain in dB (lowest analysis frequency)."""
    mag = abs(ac.h_diff[0])
    return 20.0 * np.log10(max(mag, 1e-12))


def unity_gain_bandwidth_hz(ac: AcResult) -> float:
    """Frequency where |H_diff| crosses unity (log interpolation).

    Returns the highest analysis frequency when the gain never drops below
    one, and 0 when the DC gain is already below one.
    """
    mags = np.abs(ac.h_diff)
    if mags[0] <= 1.0:
        return 0.0
    below = np.where(mags < 1.0)[0]
    if len(below) == 0:
        return float(ac.freqs[-1])
    j = below[0]
    i = j - 1
    # Interpolate log|H| vs log f between the bracketing points.
    lf0, lf1 = np.log10(ac.freqs[i]), np.log10(ac.freqs[j])
    lm0, lm1 = np.log10(mags[i]), np.log10(mags[j])
    if lm0 == lm1:
        return float(ac.freqs[j])
    t = (0.0 - lm0) / (lm1 - lm0)
    return float(10.0 ** (lf0 + t * (lf1 - lf0)))


def cmrr_db(ac: AcResult) -> float:
    """Common-mode rejection ratio at DC, in dB."""
    adm = abs(ac.h_diff[0])
    acm = abs(ac.h_cm[0])
    return 20.0 * np.log10(max(adm, 1e-12) / max(acm, 1e-15))


def output_noise_uvrms(
    bench: Testbench, freqs: np.ndarray = DEFAULT_FREQS
) -> float:
    """Integrated differential output noise in microvolts rms.

    One stacked adjoint solve over every frequency prices every thermal
    and flicker source; the PSD integrates by trapezoid over the log grid.
    """
    pos, neg = bench.config.output_nets
    system = bench.system
    transfers = system.solve_sweep(
        freqs, [{bench.net_node(pos): 1.0, bench.net_node(neg): -1.0}],
        transposed=True)[:, :, 0]
    ground = np.zeros(len(freqs), dtype=complex)

    def transfer(node: str) -> np.ndarray:
        if node == system.GROUND:
            return ground
        return transfers[:, system.node(node)]

    # Sources accumulate in a fixed order, and ``|t| ** 2`` rounds as a
    # scalar complex ``abs`` (hypot) raised by C ``pow`` does:
    # ``np.abs`` on a complex array and the array square do not.
    psd = np.zeros(len(freqs))
    for node_d, node_s, thermal, flicker in bench.noise_sources:
        t = transfer(node_d) - transfer(node_s)
        psd += (np.float_power(np.hypot(t.real, t.imag), 2.0)
                * (thermal + flicker / freqs))
    variance = np.trapezoid(psd, freqs)
    return float(np.sqrt(max(variance, 0.0)) * 1e6)


def offset_voltage_uv(
    circuit: Circuit,
    parasitics: ParasiticNetwork,
    mismatch_sigma: float,
) -> float:
    """Input-referred offset voltage in microvolts (sensitivity model).

    Three contributions, per DESIGN.md section 2:

    * intrinsic device mismatch across constrained device pairs
      (``|delta_eps| * V_OV / 2`` per pair) — the schematic floor;
    * IR-drop asymmetry: each symmetric net pair contributes its terminal
      resistance mismatch times the mean bias current of the MOS devices on
      the pair;
    * coupling imbalance between symmetric nets, priced at
      ``OFFSET_PER_COUPLING_F`` volts per farad.
    """
    total = 0.0
    for pair in circuit.symmetry_pairs:
        for left, right in pair.device_pairs:
            dev_l = circuit.device(left)
            if not isinstance(dev_l, MOSFET):
                continue
            f_l = mismatch_factor(circuit.name, left, mismatch_sigma)
            f_r = mismatch_factor(circuit.name, right, mismatch_sigma)
            total += abs(f_l - f_r) * V_OV / 2.0

        delta_r = parasitics.resistance_mismatch(pair.net_a, pair.net_b)
        currents = [
            dev.bias_current
            for net_name in (pair.net_a, pair.net_b)
            for dev in (circuit.device(d) for d in circuit.net(net_name).devices())
            if isinstance(dev, MOSFET)
        ]
        mean_current = float(np.mean(currents)) if currents else 0.0
        total += mean_current * delta_r

        delta_cc = parasitics.coupling_mismatch(pair.net_a, pair.net_b)
        total += OFFSET_PER_COUPLING_F * delta_cc
    return total * 1e6


def simulate_performance(
    circuit: Circuit,
    parasitics: ParasiticNetwork,
    config: TestbenchConfig | None = None,
    freqs: np.ndarray = DEFAULT_FREQS,
) -> PerformanceMetrics:
    """Run all analyses and return the paper's five metrics.

    Raises :class:`~repro.reliability.errors.SimulationError` on singular
    systems, malformed testbenches, or under an active fault-injection
    plan for the ``"simulation"`` stage.
    """
    maybe_inject("simulation")
    cfg = config or TestbenchConfig()
    bench = Testbench(circuit, parasitics, cfg)
    ac = ac_analysis(bench, freqs)
    return PerformanceMetrics(
        offset_uv=offset_voltage_uv(circuit, parasitics, cfg.mismatch_sigma),
        cmrr_db=cmrr_db(ac),
        bandwidth_mhz=unity_gain_bandwidth_hz(ac) / 1e6,
        gain_db=dc_gain_db(ac),
        noise_uvrms=output_noise_uvrms(bench, freqs),
    )
