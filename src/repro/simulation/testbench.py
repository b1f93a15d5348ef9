"""OTA testbench: builds the MNA system from a circuit and its parasitics.

Node construction:

* every net gets an *internal* node named after the net, carrying its wire
  ground capacitance and coupling capacitors;
* a terminal with nonzero extracted series resistance gets its own node
  ``net@device.pin`` joined to the internal node through that resistance —
  this is how routing asymmetry enters the electrical network;
* supply nets (VDD/VSS) are driven to AC ground through a stiff conductance
  at their internal node, so supply wire resistance still isolates
  terminals;
* differential inputs are driven through stiff Norton sources, outputs see
  an external load capacitance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.parasitics import ParasiticNetwork
from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor, MOSFET, Resistor
from repro.reliability.errors import ReproError, SimulationError
from repro.simulation.mna import MnaSystem
from repro.simulation.smallsignal import mos_small_signal

#: Series resistance below this is merged into the internal node (ohm).
R_MERGE_THRESHOLD = 1e-3
#: Stiff source / supply conductance (siemens).
G_STIFF = 1e3


@dataclass(frozen=True)
class TestbenchConfig:
    """Testbench knobs.

    Attributes:
        input_nets: differential input net names (positive, negative).
        output_nets: differential output net names (positive, negative).
        load_cap: external load capacitance per output (farad).
        mismatch_sigma: relative device mismatch; gives schematics a finite
            CMRR baseline.
        dc_drive_nets: extra nets pinned to AC ground through a stiff
            conductance (clocks, external bias voltages).  Auto-synthesized
            benches use this for gate-only nets that would otherwise leave
            the MNA matrix singular.
    """

    __test__ = False  # "Test" prefix is domain naming, not a pytest case

    input_nets: tuple[str, str] = ("VINP", "VINN")
    output_nets: tuple[str, str] = ("VOUTP", "VOUTN")
    load_cap: float = 0.5e-12
    mismatch_sigma: float = 5e-7
    dc_drive_nets: tuple[str, ...] = ()


class Testbench:
    """Small-signal testbench over a circuit + parasitic network."""

    __test__ = False  # "Test" prefix is domain naming, not a pytest case

    def __init__(
        self,
        circuit: Circuit,
        parasitics: ParasiticNetwork,
        config: TestbenchConfig | None = None,
    ) -> None:
        self.circuit = circuit
        self.parasitics = parasitics
        self.config = config or TestbenchConfig()
        self.system = MnaSystem()
        self.noise_sources: list[tuple[str, str, float, float]] = []
        self._terminal_node: dict[tuple[str, str], str] = {}
        try:
            self._build()
        except ReproError:
            raise
        except (ValueError, KeyError) as exc:
            # A malformed parasitic network (negative caps, dangling
            # terminals) becomes a typed, per-sample-skippable failure.
            raise SimulationError(
                f"testbench construction failed: {exc}",
                stage="simulation",
                details={"circuit": circuit.name},
            ) from exc

    # -- node helpers -------------------------------------------------------------

    def net_node(self, net: str) -> str:
        """The internal node of a net."""
        return net

    # -- construction --------------------------------------------------------------

    def _build(self) -> None:
        system = self.system
        cfg = self.config

        # Nets: internal nodes, terminal resistances, ground caps.
        for net in self.circuit.nets.values():
            internal = self.net_node(net.name)
            para = self.parasitics.nets.get(net.name)
            ground_cap = para.ground_cap if para else 0.0
            if ground_cap > 0.0:
                system.add_capacitance(internal, MnaSystem.GROUND, ground_cap)
            if net.net_type.is_supply:
                system.add_conductance(internal, MnaSystem.GROUND, G_STIFF)
            for device, pin in net.connections:
                r = 0.0
                if para is not None:
                    r = para.terminal_resistance.get((device, pin), 0.0)
                if r > R_MERGE_THRESHOLD:
                    node = f"{net.name}@{device}.{pin}"
                    system.add_resistance(internal, node, r)
                else:
                    node = internal
                self._terminal_node[(device, pin)] = node

        # Coupling capacitors between internal nodes.
        for (net_a, net_b), cap in self.parasitics.coupling.items():
            if cap > 0.0:
                system.add_capacitance(self.net_node(net_a), self.net_node(net_b), cap)

        # Devices.
        for device in self.circuit.devices.values():
            if isinstance(device, MOSFET):
                self._stamp_mosfet(device)
            elif isinstance(device, Capacitor):
                self._stamp_two_terminal(device.name, "cap", device.value)
            elif isinstance(device, Resistor):
                self._stamp_two_terminal(device.name, "res", device.value)

        # Testbench fixtures: stiff input drives and output loads.
        for net in cfg.input_nets:
            if net in self.circuit.nets:
                system.add_conductance(self.net_node(net), MnaSystem.GROUND, G_STIFF)
        for net in cfg.dc_drive_nets:
            if net in self.circuit.nets:
                system.add_conductance(self.net_node(net), MnaSystem.GROUND, G_STIFF)
        for net in cfg.output_nets:
            if net in self.circuit.nets:
                system.add_capacitance(self.net_node(net), MnaSystem.GROUND,
                                       cfg.load_cap)

    def _pin_node_or_ground(self, device: str, pin: str) -> str:
        """Terminal node, or ground for unconnected pins (bulk taps)."""
        return self._terminal_node.get((device, pin), MnaSystem.GROUND)

    def _stamp_mosfet(self, mos: MOSFET) -> None:
        params = mos_small_signal(
            mos, circuit_name=self.circuit.name,
            mismatch_sigma=self.config.mismatch_sigma,
        )
        g = self._pin_node_or_ground(mos.name, "G")
        d = self._pin_node_or_ground(mos.name, "D")
        s = self._pin_node_or_ground(mos.name, "S")
        system = self.system
        system.add_vccs(d, s, g, s, params.gm)
        system.add_conductance(d, s, params.gds)
        system.add_capacitance(g, s, params.cgs)
        system.add_capacitance(g, d, params.cgd)
        system.add_capacitance(d, MnaSystem.GROUND, params.cdb)
        # Drain-source thermal + flicker current noise.
        self.noise_sources.append(
            (d, s, params.thermal_noise_psd, params.flicker_coeff)
        )

    def _stamp_two_terminal(self, name: str, kind: str, value: float) -> None:
        plus = self._pin_node_or_ground(name, "PLUS")
        minus = self._pin_node_or_ground(name, "MINUS")
        if kind == "cap":
            self.system.add_capacitance(plus, minus, value)
        else:
            self.system.add_resistance(plus, minus, value)
            k_boltzmann_t = 4.142e-21  # 4kT at 300K
            self.noise_sources.append((plus, minus, k_boltzmann_t / value, 0.0))

    # -- drives ----------------------------------------------------------------------

    def input_injections(self, v_p: complex, v_n: complex) -> dict[str, complex]:
        """Norton currents realizing input voltages through stiff sources."""
        inj: dict[str, complex] = {}
        pos, neg = self.config.input_nets
        if pos in self.circuit.nets:
            inj[self.net_node(pos)] = v_p * G_STIFF
        if neg in self.circuit.nets:
            inj[self.net_node(neg)] = v_n * G_STIFF
        return inj

    def differential_output(self, voltages: np.ndarray) -> np.ndarray:
        """``V(out+) - V(out-)`` of node voltages whose last axis is in
        :meth:`MnaSystem.node` index order (ground reads zero).

        Raises:
            KeyError: an output net has no node in the system.
        """
        def at(net: str):
            node = self.net_node(net)
            if node == MnaSystem.GROUND:
                return 0.0
            if not self.system.has_node(node):
                raise KeyError(f"output net {net!r} has no node")
            return voltages[..., self.system.node(node)]

        pos, neg = self.config.output_nets
        return at(pos) - at(neg)
