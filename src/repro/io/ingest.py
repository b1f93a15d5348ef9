"""Wild-dialect SPICE ingestion: real-world netlists into Circuits.

:mod:`repro.io.spice` round-trips the repo's own dialect; this module
accepts netlists as they exist in the wild — ``.subckt``/``.ends``
hierarchies, ``X`` instances, ``.param`` substitution, line
continuations, case-insensitive cards, model-card naming conventions
(``nmos``/``nch``/``NMOS_VTL``/...), and sizes written in meters or
microns with SI suffixes.  The output is a flattened
:class:`~repro.netlist.circuit.Circuit` whose W/L are in microns, ready
for symmetry inference (:mod:`repro.netlist.symmetry`) and testbench
synthesis (:mod:`repro.netlist.autobench`).

Anything the flow cannot represent raises a typed
:class:`~repro.reliability.errors.SpiceParseError` (malformed or
unsupported cards, with file/line context) or
:class:`~repro.reliability.errors.IngestError` (no viable top cell,
unresolved subcircuit references) — never a raw ``ValueError`` from deep
inside a ``float()`` call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.netlist.circuit import Circuit
from repro.netlist.devices import Capacitor, MOSFET, MOSType, Resistor
from repro.netlist.nets import Net, NetType
from repro.reliability.errors import IngestError, SpiceParseError

#: SI magnitude suffixes (SPICE convention: ``meg`` is 1e6, ``m`` is 1e-3).
_SI_SUFFIXES = (
    ("MEG", 1e6),
    ("T", 1e12), ("G", 1e9), ("K", 1e3),
    ("M", 1e-3), ("U", 1e-6), ("N", 1e-9), ("P", 1e-12), ("F", 1e-15),
)

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")

#: Model-name fragments that identify device polarity.
_NMOS_HINTS = ("NMOS", "NCH", "NFET", "NSVT", "NLVT", "NHVT")
_PMOS_HINTS = ("PMOS", "PCH", "PFET", "PSVT", "PLVT", "PHVT")

#: Dot-cards that are legal but carry nothing the flow needs.
_IGNORED_CARDS = {
    ".OP", ".TRAN", ".AC", ".DC", ".NOISE", ".PROBE", ".PRINT", ".PLOT",
    ".OPTION", ".OPTIONS", ".TEMP", ".SAVE", ".IC", ".NODESET", ".MEAS",
    ".MEASURE", ".WIDTH", ".BACKANNO",
}

#: Element letters the flow cannot represent electrically.
_UNSUPPORTED_ELEMENTS = {
    "Q": "bipolar transistor", "D": "diode", "J": "JFET",
    "L": "inductor", "K": "coupled inductor", "E": "VCVS", "F": "CCCS",
    "G": "VCCS", "H": "CCVS", "T": "transmission line", "S": "switch",
    "W": "current-controlled switch", "B": "behavioural source",
}


def parse_si_value(token: str, *, path: str | None = None,
                   line_no: int | None = None) -> float:
    """Parse a SPICE numeric token with optional SI suffix (``2u``,
    ``1.5MEG``, ``4e-15``, ``0.18``)."""
    text = token.strip().upper()
    match = _NUMBER_RE.match(text)
    if not match:
        raise SpiceParseError(f"not a numeric value: {token!r}",
                              path=path, line_no=line_no)
    value = float(match.group(0))
    rest = text[match.end():]
    if rest:
        for suffix, scale in _SI_SUFFIXES:
            if rest.startswith(suffix):
                return value * scale
        raise SpiceParseError(
            f"unknown unit suffix {rest!r} in {token!r}",
            path=path, line_no=line_no)
    return value


def size_to_microns(token: str, *, path: str | None = None,
                    line_no: int | None = None) -> float:
    """A W/L token, normalized to microns.

    Netlists write sizes either in meters (``2e-6``, ``0.5u``) or as a
    bare micron count (``0.18``, ``4``).  Any SI value below one
    millimeter is taken as meters; larger values would be absurd
    dimensions in meters, so they are already microns.
    """
    value = parse_si_value(token, path=path, line_no=line_no)
    if value <= 0.0:
        raise SpiceParseError(f"non-positive device size: {token!r}",
                              path=path, line_no=line_no)
    if value < 1e-3:
        return value * 1e6
    return value


def classify_model(model: str, models: dict[str, MOSType], *,
                   path: str | None = None,
                   line_no: int | None = None) -> MOSType:
    """Device polarity from a ``.model`` card or the model's name."""
    name = model.upper()
    if name in models:
        return models[name]
    for hint in _NMOS_HINTS:
        if hint in name:
            return MOSType.NMOS
    for hint in _PMOS_HINTS:
        if hint in name:
            return MOSType.PMOS
    if name.startswith("N"):
        return MOSType.NMOS
    if name.startswith("P"):
        return MOSType.PMOS
    raise SpiceParseError(
        f"cannot tell NMOS from PMOS for model {model!r} — add a .model "
        "card or use a conventional name (nch/pch/nmos*/pmos*)",
        path=path, line_no=line_no)


@dataclass
class _Card:
    """One logical netlist line after continuation joining."""

    line_no: int  # of the first physical line
    tokens: list[str]

    @property
    def head(self) -> str:
        return self.tokens[0]


@dataclass
class _Subckt:
    """A ``.subckt`` definition."""

    name: str
    pins: list[str]
    defaults: dict[str, str]  # header param defaults (raw tokens)
    cards: list[_Card] = field(default_factory=list)


@dataclass
class WildNetlist:
    """Parsed (unflattened) wild-dialect netlist."""

    path: str | None = None
    title: str | None = None
    subckts: dict[str, _Subckt] = field(default_factory=dict)
    top_cards: list[_Card] = field(default_factory=list)
    params: dict[str, str] = field(default_factory=dict)
    globals_: list[str] = field(default_factory=list)
    models: dict[str, MOSType] = field(default_factory=dict)
    sources: list[tuple[str, str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _logical_cards(text: str, path: str | None) -> list[_Card]:
    """Split text into logical cards: comments stripped, ``+``
    continuations joined, tokens uppercased (SPICE is case-insensitive)."""
    cards: list[_Card] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("$", 1)[0].split(";", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not cards:
                raise SpiceParseError(
                    "continuation line with nothing to continue",
                    path=path, line_no=line_no)
            cards[-1].tokens.extend(stripped[1:].upper().split())
            continue
        cards.append(_Card(line_no=line_no, tokens=stripped.upper().split()))
    return cards


def _split_kwargs(tokens: list[str], *, path: str | None,
                  line_no: int) -> tuple[list[str], dict[str, str]]:
    """Split trailing ``KEY=VALUE`` tokens off a card.

    Handles the space-separated variants ``W = 2u`` and ``W= 2u`` by
    re-joining around bare ``=`` tokens first.
    """
    joined: list[str] = []
    for token in tokens:
        if token == "=" and joined:
            joined[-1] += "="
        elif joined and joined[-1].endswith("="):
            joined[-1] += token
        else:
            joined.append(token)
    positional: list[str] = []
    kwargs: dict[str, str] = {}
    for token in joined:
        if "=" in token:
            key, _, value = token.partition("=")
            if not key or not value:
                raise SpiceParseError(
                    f"malformed KEY=VALUE token {token!r}",
                    path=path, line_no=line_no)
            kwargs[key] = value
        else:
            if kwargs:
                raise SpiceParseError(
                    f"positional token {token!r} after KEY=VALUE tokens",
                    path=path, line_no=line_no)
            positional.append(token)
    return positional, kwargs


def parse_wild_spice(text: str, path: str | None = None) -> WildNetlist:
    """Parse wild-dialect SPICE text into an unflattened netlist."""
    netlist = WildNetlist(path=path)
    cards = _logical_cards(text, path)
    current: _Subckt | None = None

    for index, card in enumerate(cards):
        head = card.head
        if index == 0 and not head.startswith((".", "*")) \
                and head[0] not in "MXCRVI" and len(card.tokens) >= 1 \
                and "=" not in head:
            # A classic title line would have been consumed here, but a
            # device card is indistinguishable only by its element letter;
            # anything starting with a known letter falls through.
            netlist.title = " ".join(card.tokens)
            continue
        if head == ".SUBCKT":
            if current is not None:
                raise SpiceParseError(
                    "nested .subckt definitions are not supported",
                    path=path, line_no=card.line_no)
            if len(card.tokens) < 2:
                raise SpiceParseError(".subckt needs a name",
                                      path=path, line_no=card.line_no)
            pins, defaults = _split_kwargs(card.tokens[2:], path=path,
                                           line_no=card.line_no)
            name = card.tokens[1]
            if name in netlist.subckts:
                raise SpiceParseError(
                    f"duplicate .subckt {name}", path=path,
                    line_no=card.line_no)
            current = _Subckt(name=name, pins=pins, defaults=defaults)
            netlist.subckts[name] = current
            continue
        if head == ".ENDS":
            if current is None:
                raise SpiceParseError(".ends without .subckt",
                                      path=path, line_no=card.line_no)
            current = None
            continue
        if head == ".PARAM":
            _, kwargs = _split_kwargs(card.tokens[1:], path=path,
                                      line_no=card.line_no)
            target = current.defaults if current is not None else netlist.params
            target.update(kwargs)
            continue
        if head == ".GLOBAL":
            netlist.globals_.extend(card.tokens[1:])
            continue
        if head == ".MODEL":
            if len(card.tokens) < 3:
                raise SpiceParseError(".model needs a name and a type",
                                      path=path, line_no=card.line_no)
            kind = card.tokens[2].split("(")[0]
            if kind in ("NMOS", "PMOS"):
                netlist.models[card.tokens[1]] = (
                    MOSType.NMOS if kind == "NMOS" else MOSType.PMOS)
            else:
                netlist.warnings.append(
                    f"line {card.line_no}: ignoring non-MOS .model "
                    f"{card.tokens[1]} ({kind})")
            continue
        if head == ".END":
            break
        if head in (".INCLUDE", ".INC", ".LIB"):
            raise SpiceParseError(
                f"{head.lower()} references an external file — flatten "
                "the netlist before ingestion", path=path,
                line_no=card.line_no)
        if head in _IGNORED_CARDS or head.split("(")[0] in _IGNORED_CARDS:
            netlist.warnings.append(
                f"line {card.line_no}: ignoring analysis card {head}")
            continue
        if head.startswith("."):
            raise SpiceParseError(f"unsupported control card {head}",
                                  path=path, line_no=card.line_no)
        if head[0] in ("V", "I"):
            # Independent sources carry bench intent, not devices; keep
            # their terminal names as classification hints.
            if len(card.tokens) >= 3:
                netlist.sources.append((head, card.tokens[1], card.tokens[2]))
            if current is None:
                continue
            netlist.warnings.append(
                f"line {card.line_no}: ignoring source {head} inside "
                f".subckt {current.name}")
            continue
        if head[0] in _UNSUPPORTED_ELEMENTS:
            raise SpiceParseError(
                f"unsupported element {head!r} "
                f"({_UNSUPPORTED_ELEMENTS[head[0]]})",
                path=path, line_no=card.line_no)
        if head[0] not in ("M", "X", "C", "R"):
            raise SpiceParseError(f"unsupported card {head!r}",
                                  path=path, line_no=card.line_no)
        (current.cards if current is not None
         else netlist.top_cards).append(card)

    if current is not None:
        raise SpiceParseError(
            f".subckt {current.name} is never closed with .ends",
            path=path, line_no=len(text.splitlines()))
    return netlist


def _resolve(token: str, params: dict[str, str], *, path: str | None,
             line_no: int, depth: int = 0) -> str:
    """Resolve ``{name}`` / ``'name'`` / bare-name parameter references."""
    if depth > 16:
        raise SpiceParseError(
            f"circular .param reference via {token!r}",
            path=path, line_no=line_no)
    text = token.strip().strip("'\"").strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1].strip()
    if text in params:
        return _resolve(params[text], params, path=path, line_no=line_no,
                        depth=depth + 1)
    return text


@dataclass
class _FlattenState:
    circuit: Circuit
    netlist: WildNetlist
    warnings: list[str]


def _canonical_net(name: str, prefix: str, pin_map: dict[str, str],
                   globals_: frozenset[str]) -> str:
    if name in pin_map:
        return pin_map[name]
    if name in globals_ or name == "0":
        return name
    return f"{prefix}{name}"


def _flatten_cards(state: _FlattenState, cards: list[_Card], prefix: str,
                   pin_map: dict[str, str], params: dict[str, str],
                   stack: tuple[str, ...]) -> None:
    netlist = state.netlist
    path = netlist.path
    globals_ = frozenset(netlist.globals_)

    for card in cards:
        positional, kwargs = _split_kwargs(card.tokens, path=path,
                                           line_no=card.line_no)
        head = card.head
        # The full card name (element letter included) stays the device
        # name: wild netlists routinely have RX/CX pairs that would
        # collide if the letter were stripped the way the round-trip
        # dialect does.
        name = f"{prefix}{head}"
        kind = head[0]

        def net_of(token: str) -> str:
            return _canonical_net(token, prefix, pin_map, globals_)

        def value_of(token: str) -> float:
            return parse_si_value(
                _resolve(token, params, path=path, line_no=card.line_no),
                path=path, line_no=card.line_no)

        if kind == "M":
            # MNAME d g s [b] model — detect the 3-terminal form by
            # checking whether the last positional token is a known or
            # conventionally named model.
            if len(positional) < 5:
                raise SpiceParseError(
                    f"MOSFET {head} needs at least 3 terminals and a "
                    "model", path=path, line_no=card.line_no)
            model = positional[-1]
            nets = positional[1:-1]
            if len(nets) not in (3, 4):
                raise SpiceParseError(
                    f"MOSFET {head} has {len(nets)} terminals "
                    "(expected 3 or 4)", path=path, line_no=card.line_no)
            mos_type = classify_model(model, netlist.models, path=path,
                                      line_no=card.line_no)
            sizes = {}
            for key in ("W", "L"):
                if key not in kwargs:
                    raise SpiceParseError(
                        f"MOSFET {head} is missing {key}=",
                        path=path, line_no=card.line_no)
                sizes[key] = size_to_microns(
                    _resolve(kwargs[key], params, path=path,
                             line_no=card.line_no),
                    path=path, line_no=card.line_no)
            fingers = 1
            for key in ("NF", "M"):
                if key in kwargs:
                    fingers *= max(1, int(value_of(kwargs[key])))
            try:
                state.circuit.add_device(MOSFET(
                    name=name, mos_type=mos_type, w=sizes["W"],
                    l=sizes["L"], fingers=fingers))
            except ValueError as exc:
                raise SpiceParseError(
                    f"bad MOSFET {head}: {exc}", path=path,
                    line_no=card.line_no) from exc
            # Bulk is a substrate/well tap in this flow (repo convention:
            # benchmark MOSFETs leave B unconnected), so it is dropped.
            for pin, net in zip(("D", "G", "S"), nets[:3]):
                _connect(state.circuit, net_of(net), name, pin)
        elif kind in ("C", "R"):
            if len(positional) >= 4:
                value_token = positional[3]
            elif kind in kwargs:  # Cxx a b C=1p
                value_token = kwargs[kind]
            else:
                raise SpiceParseError(
                    f"{'capacitor' if kind == 'C' else 'resistor'} {head} "
                    "has no value", path=path, line_no=card.line_no)
            value = value_of(value_token)
            try:
                device = (Capacitor(name=name, value=value) if kind == "C"
                          else Resistor(name=name, value=value))
                state.circuit.add_device(device)
            except ValueError as exc:
                raise SpiceParseError(
                    f"bad {'capacitor' if kind == 'C' else 'resistor'} "
                    f"{head}: {exc}", path=path,
                    line_no=card.line_no) from exc
            _connect(state.circuit, net_of(positional[1]), name, "PLUS")
            _connect(state.circuit, net_of(positional[2]), name, "MINUS")
        elif kind == "X":
            if len(positional) < 2:
                raise SpiceParseError(
                    f"subcircuit instance {head} has no definition name",
                    path=path, line_no=card.line_no)
            sub_name = positional[-1]
            sub = netlist.subckts.get(sub_name)
            if sub is None:
                raise IngestError(
                    f"instance {head} references undefined subcircuit "
                    f"{sub_name!r}", stage="ingest",
                    details={"path": path, "line_no": card.line_no})
            if sub_name in stack:
                raise IngestError(
                    f"recursive subcircuit instantiation: "
                    f"{' -> '.join(stack + (sub_name,))}", stage="ingest",
                    details={"path": path})
            actuals = positional[1:-1]
            if len(actuals) != len(sub.pins):
                raise SpiceParseError(
                    f"instance {head} connects {len(actuals)} nets but "
                    f".subckt {sub_name} declares {len(sub.pins)} pins",
                    path=path, line_no=card.line_no)
            child_pin_map = {pin: net_of(actual)
                             for pin, actual in zip(sub.pins, actuals)}
            child_params = dict(params)
            child_params.update(sub.defaults)
            child_params.update(kwargs)
            _flatten_cards(state, sub.cards, f"{name}_", child_pin_map,
                           child_params, stack + (sub_name,))
        else:  # pragma: no cover - parse_wild_spice filters other kinds
            raise SpiceParseError(f"unsupported card {head!r}",
                                  path=path, line_no=card.line_no)


def _connect(circuit: Circuit, net_name: str, device: str, pin: str) -> None:
    if net_name not in circuit.nets:
        circuit.add_net(Net(name=net_name, net_type=NetType.SIGNAL))
    circuit.net(net_name).connect(device, pin)


def pick_top_cell(netlist: WildNetlist) -> str | None:
    """The cell to flatten: ``None`` for top-level cards, else the
    largest subcircuit that nothing instantiates."""
    if netlist.top_cards:
        return None
    if not netlist.subckts:
        raise IngestError(
            "netlist has no device cards and no subcircuits",
            stage="ingest", details={"path": netlist.path})
    instantiated = set()
    for sub in netlist.subckts.values():
        for card in sub.cards:
            if card.head[0] == "X":
                positional, _ = _split_kwargs(card.tokens,
                                              path=netlist.path,
                                              line_no=card.line_no)
                if len(positional) >= 2:
                    instantiated.add(positional[-1])
    roots = [name for name in netlist.subckts if name not in instantiated]
    if not roots:
        raise IngestError(
            "no viable top cell: every subcircuit is instantiated by "
            "another (recursive hierarchy?)", stage="ingest",
            details={"path": netlist.path})
    # Deterministic: most device cards wins, name breaks ties.
    return max(sorted(roots),
               key=lambda name: len(netlist.subckts[name].cards))


def wild_to_circuit(text: str, path: str | None = None,
                    top: str | None = None) -> Circuit:
    """Parse and flatten wild-dialect SPICE text into a Circuit."""
    netlist = parse_wild_spice(text, path=path)
    return flatten_netlist(netlist, top=top)


def flatten_netlist(netlist: WildNetlist, top: str | None = None) -> Circuit:
    """Flatten a parsed netlist into a single-level Circuit.

    Instance-local nets and devices get an ``{INST}_`` prefix;
    ``.global`` nets, the literal ground net ``0``, and top pins keep
    their names.
    """
    if top is None:
        top = pick_top_cell(netlist)
    if top is None:
        name = (netlist.title or "ingested").replace(" ", "_")
        if netlist.title is None and len(netlist.top_cards) == 1 \
                and netlist.top_cards[0].head[0] == "X":
            # A lone wrapper instance: borrow the cell's name.
            positional, _ = _split_kwargs(
                netlist.top_cards[0].tokens, path=netlist.path,
                line_no=netlist.top_cards[0].line_no)
            if len(positional) >= 2:
                name = positional[-1]
        circuit = Circuit(name=name)
        cards = netlist.top_cards
        pin_map: dict[str, str] = {}
        params = dict(netlist.params)
    else:
        sub = netlist.subckts.get(top)
        if sub is None:
            raise IngestError(
                f"requested top cell {top!r} is not defined "
                f"(have: {sorted(netlist.subckts)})", stage="ingest",
                details={"path": netlist.path})
        circuit = Circuit(name=sub.name)
        cards = sub.cards
        pin_map = {pin: pin for pin in sub.pins}
        params = dict(netlist.params)
        params.update(sub.defaults)
    state = _FlattenState(circuit=circuit, netlist=netlist,
                          warnings=netlist.warnings)
    _flatten_cards(state, cards, "", pin_map, params, (top,) if top else ())
    if not circuit.devices:
        raise IngestError(
            f"top cell {top or '<toplevel>'} flattens to zero devices",
            stage="ingest", details={"path": netlist.path})
    circuit.validate()
    return circuit


@dataclass
class IngestResult:
    """A fully ingested netlist: circuit, synthesized bench, manifest."""

    circuit: Circuit
    bench: "AutobenchReport"
    warnings: list[str]
    source: str

    @property
    def config(self):
        """The synthesized TestbenchConfig."""
        return self.bench.config()

    def manifest(self) -> dict:
        """JSON-ready summary of everything ingestion decided."""
        circuit = self.circuit
        bench = self.bench
        type_counts: dict[str, int] = {}
        for device in circuit.devices.values():
            key = device.device_type.value
            type_counts[key] = type_counts.get(key, 0) + 1
        return {
            "schema_version": 1,
            "source": self.source,
            "circuit": {
                "name": circuit.name,
                "devices": dict(sorted(type_counts.items())),
                "nets": len(circuit.nets),
                "terminals": sum(net.degree
                                 for net in circuit.nets.values()),
            },
            "classification": {
                "power": list(bench.power),
                "ground": list(bench.ground),
                "inputs": list(bench.inputs or ()),
                "outputs": list(bench.outputs or ()),
                "single_ended": bench.single_ended,
                "clocks": list(bench.clocks),
                "biases": list(bench.biases),
                "dc_drive_nets": list(bench.dc_drive_nets),
            },
            "symmetry": {
                "net_pairs": [list(p) for p in bench.symmetry.net_pairs],
                "self_symmetric": list(bench.symmetry.self_symmetric),
                "device_pairs": [list(p)
                                 for p in bench.symmetry.device_pairs],
            },
            "warnings": list(self.warnings),
        }


def ingest_spice(text: str, path: str | None = None,
                 top: str | None = None) -> IngestResult:
    """Full ingestion: parse, flatten, infer symmetry, synthesize bench."""
    from repro.netlist.autobench import synthesize_testbench

    netlist = parse_wild_spice(text, path=path)
    circuit = flatten_netlist(netlist, top=top)
    bench = synthesize_testbench(circuit)
    return IngestResult(circuit=circuit, bench=bench,
                        warnings=list(netlist.warnings),
                        source=path or "<string>")


def ingest_file(path: str | Path, top: str | None = None) -> IngestResult:
    """Ingest a wild-dialect ``.sp`` file end to end."""
    return ingest_spice(Path(path).read_text(), path=str(path), top=top)
