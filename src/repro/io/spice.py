"""SPICE-style netlist export/import.

The dialect is a practical subset: MOSFETs (``M``), capacitors (``C``),
resistors (``R``), plus comment-encoded extensions carrying what plain
SPICE cannot express — device footprints are re-derived, and symmetry
constraints / net types ride in ``*.SYMNET`` / ``*.NETTYPE`` control
comments so a round trip preserves the full Circuit.
"""

from __future__ import annotations

from pathlib import Path

from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor, Dummy, MOSFET, MOSType, Resistor
from repro.netlist.nets import Net, NetType, SymmetryPair
from repro.reliability.errors import SpiceParseError

#: Sentinel net name the writer emits for unconnected terminals.  The
#: importer must never materialize it as a real net: a round trip would
#: otherwise short every floating pin together through one phantom net.
_FLOATING = "_FLOAT_"


def _terminal_net(circuit: Circuit, device: str, pin: str) -> str:
    net = circuit.net_of(device, pin)
    return net.name if net is not None else _FLOATING


def circuit_to_spice(circuit: Circuit) -> str:
    """Serialize a circuit to SPICE-style text."""
    lines = [f"* circuit: {circuit.name}", f"*.TOPOLOGY {circuit.topology}"]

    for name in sorted(circuit.devices):
        device = circuit.devices[name]
        if isinstance(device, MOSFET):
            d = _terminal_net(circuit, name, "D")
            g = _terminal_net(circuit, name, "G")
            s = _terminal_net(circuit, name, "S")
            b = _terminal_net(circuit, name, "B")
            model = "pch" if device.mos_type is MOSType.PMOS else "nch"
            lines.append(
                f"M{name} {d} {g} {s} {b} {model} W={device.w}u L={device.l}u "
                f"NF={device.fingers} IBIAS={device.bias_current} "
                f"BIASDEV={int(device.is_bias_device)}"
            )
        elif isinstance(device, Capacitor):
            p = _terminal_net(circuit, name, "PLUS")
            m = _terminal_net(circuit, name, "MINUS")
            lines.append(f"C{name} {p} {m} {device.value}")
        elif isinstance(device, Resistor):
            p = _terminal_net(circuit, name, "PLUS")
            m = _terminal_net(circuit, name, "MINUS")
            lines.append(f"R{name} {p} {m} {device.value}")
        elif isinstance(device, Dummy):
            lines.append(f"*.DUMMY {name} W={device.width} H={device.height}")

    for net in sorted(circuit.nets.values(), key=lambda n: n.name):
        flags = f" WEIGHT={net.weight}"
        if net.self_symmetric:
            flags += " SELFSYM=1"
        lines.append(f"*.NETTYPE {net.name} {net.net_type.value}{flags}")

    for pair in circuit.symmetry_pairs:
        devices = " ".join(f"{l}:{r}" for l, r in pair.device_pairs)
        lines.append(f"*.SYMNET {pair.net_a} {pair.net_b} {devices}".rstrip())

    lines.append(".END")
    return "\n".join(lines) + "\n"


def _net_from_meta(name: str, meta: dict) -> Net:
    return Net(
        name=name,
        net_type=meta.get("type", NetType.SIGNAL),
        weight=meta.get("weight", 1.0),
        self_symmetric=meta.get("self_symmetric", False),
    )


def spice_to_circuit(text: str, path: str | None = None) -> Circuit:
    """Parse SPICE-style text produced by :func:`circuit_to_spice`.

    Malformed cards (missing ``W=``/``L=``, non-numeric values, duplicate
    device names, unsupported elements) raise a typed
    :class:`~repro.reliability.errors.SpiceParseError` carrying ``path``
    and the one-based line number of the offending card.
    """
    circuit = Circuit(name="imported")
    # terminal -> net name, gathered first; nets materialize afterwards.
    terminals: list[tuple[str, str, str]] = []  # (device, pin, net)
    net_meta: dict[str, dict] = {}
    sym_lines: list[tuple[str, str, tuple[tuple[str, str], ...]]] = []

    def note_terminal(device: str, pin: str, net: str) -> None:
        if net != _FLOATING:
            terminals.append((device, pin, net))

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == ".END":
            continue
        if line.startswith("* circuit:"):
            circuit.name = line.split(":", 1)[1].strip()
            continue
        if line.startswith("*.TOPOLOGY"):
            circuit.topology = line.split(None, 1)[1].strip()
            continue
        try:
            if line.startswith("*.DUMMY"):
                parts = line.split()
                kwargs = dict(part.split("=") for part in parts[2:])
                circuit.add_device(Dummy(name=parts[1],
                                         width=float(kwargs["W"]),
                                         height=float(kwargs["H"])))
                continue
            if line.startswith("*.NETTYPE"):
                parts = line.split()
                meta = {"type": NetType(parts[2])}
                for extra in parts[3:]:
                    key, value = extra.split("=")
                    if key == "WEIGHT":
                        meta["weight"] = float(value)
                    elif key == "SELFSYM":
                        meta["self_symmetric"] = bool(int(value))
                if parts[1] != _FLOATING:
                    net_meta[parts[1]] = meta
                continue
            if line.startswith("*.SYMNET"):
                parts = line.split()
                pairs = tuple(
                    tuple(token.split(":")) for token in parts[3:]
                )
                sym_lines.append((parts[1], parts[2], pairs))
                continue
            if line.startswith("*"):
                continue

            parts = line.split()
            card, name = parts[0][0].upper(), parts[0][1:]
            if card == "M":
                if len(parts) < 6:
                    raise SpiceParseError(
                        f"MOSFET card needs 4 terminals and a model: "
                        f"{line!r}", path=path, line_no=line_no)
                kwargs = dict(p.split("=") for p in parts[6:])
                for required in ("W", "L"):
                    if required not in kwargs:
                        raise SpiceParseError(
                            f"MOSFET {parts[0]} is missing {required}=",
                            path=path, line_no=line_no)
                mos = MOSFET(
                    name=name,
                    mos_type=(MOSType.PMOS if parts[5] == "pch"
                              else MOSType.NMOS),
                    w=float(kwargs["W"].rstrip("u")),
                    l=float(kwargs["L"].rstrip("u")),
                    fingers=int(kwargs.get("NF", 1)),
                    bias_current=float(kwargs.get("IBIAS", 0.0) or 1e-9),
                    is_bias_device=bool(int(kwargs.get("BIASDEV", 0))),
                )
                circuit.add_device(mos)
                for pin, net in zip(("D", "G", "S", "B"), parts[1:5]):
                    note_terminal(name, pin, net)
            elif card == "C":
                circuit.add_device(Capacitor(name=name,
                                             value=float(parts[3])))
                note_terminal(name, "PLUS", parts[1])
                note_terminal(name, "MINUS", parts[2])
            elif card == "R":
                circuit.add_device(Resistor(name=name,
                                            value=float(parts[3])))
                note_terminal(name, "PLUS", parts[1])
                note_terminal(name, "MINUS", parts[2])
            else:
                raise SpiceParseError(
                    f"unsupported SPICE card: {line!r}",
                    path=path, line_no=line_no)
        except SpiceParseError:
            raise
        except (ValueError, KeyError, IndexError) as exc:
            # Malformed card: short tokens, non-numeric values, duplicate
            # device names (Circuit.add_device raises ValueError), ...
            raise SpiceParseError(
                f"malformed card {line!r}: {exc}",
                path=path, line_no=line_no) from exc

    for device, pin, net_name in terminals:
        if net_name not in circuit.nets:
            circuit.add_net(_net_from_meta(net_name,
                                           net_meta.get(net_name, {})))
        circuit.net(net_name).connect(device, pin)

    # Declared nets never referenced by a device card (e.g. a probe net
    # or a net whose only terminals float) keep their declared type and
    # weight instead of being silently dropped.
    for net_name, meta in net_meta.items():
        if net_name not in circuit.nets:
            circuit.add_net(_net_from_meta(net_name, meta))

    for net_a, net_b, device_pairs in sym_lines:
        circuit.add_symmetry_pair(SymmetryPair(net_a, net_b, device_pairs))

    circuit.validate()
    return circuit


def write_spice(circuit: Circuit, path: str | Path) -> None:
    """Write a circuit to a .sp file."""
    Path(path).write_text(circuit_to_spice(circuit))

