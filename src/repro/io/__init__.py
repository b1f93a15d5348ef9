"""Persistence: SPICE-style netlists, placements, guidance, and layouts.

Two SPICE surfaces live here: :mod:`repro.io.spice` round-trips the
repo's own dialect losslessly, and :mod:`repro.io.ingest` accepts
wild-dialect netlists (``.subckt`` hierarchies, ``.param``, unit
suffixes) and flattens them into Circuits.
"""

from repro.io.guidance_io import load_guidance, save_guidance
from repro.io.ingest import (
    IngestResult,
    ingest_file,
    ingest_spice,
    wild_to_circuit,
)
from repro.io.layout_io import (
    load_placement,
    routing_to_def_text,
    save_placement,
)
from repro.io.spice import circuit_to_spice, spice_to_circuit

__all__ = [
    "save_guidance",
    "load_guidance",
    "save_placement",
    "load_placement",
    "routing_to_def_text",
    "circuit_to_spice",
    "spice_to_circuit",
    "IngestResult",
    "ingest_file",
    "ingest_spice",
    "wild_to_circuit",
]
