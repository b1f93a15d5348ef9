"""The heterogeneous graph data structure.

Vertex sets: pin access points (``V_AP``) and modules (``V_M``).  Edge
sets: point-to-point (``E_PP``, physical interplay including resource
competition between nearby access points), module-to-module (``E_MM``,
logical netlist connectivity) and point-to-module (``E_MP``, bridging the
physical and logical views) — Section 4.1 of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class EdgeType(enum.Enum):
    """Heterogeneous edge kinds."""

    PP = "pp"
    MP = "mp"
    MM = "mm"


@dataclass
class HeteroGraph:
    """An immutable heterogeneous routing graph for one (circuit, placement).

    Node indexing convention: access points occupy indices
    ``0..num_aps-1``, modules occupy ``num_aps..num_aps+num_modules-1`` in
    the unified node list used by message passing.

    Attributes:
        ap_keys: (device, pin) identity per access point, fixing the order
            guidance vectors are stacked in.
        ap_nets: owning net name per access point.
        module_names: device name per module node.
        ap_positions: (num_aps, 3) grid-space positions (x, y, layer).
        module_positions: (num_modules, 3) positions (center x, y, 0).
        ap_features: (num_aps, F_ap) static features.
        module_features: (num_modules, F_m) static features.
        edges: per edge type, an (E, 2) int array of *undirected* pairs in
            unified node indexing.
    """

    ap_keys: list[tuple[str, str]]
    ap_nets: list[str]
    module_names: list[str]
    ap_positions: np.ndarray
    module_positions: np.ndarray
    ap_features: np.ndarray
    module_features: np.ndarray
    edges: dict[EdgeType, np.ndarray] = field(default_factory=dict)
    #: Memoized ``directed_edges`` output per edge type, keyed by the
    #: identity of the underlying pair array so replacing ``edges[et]``
    #: invalidates the entry.  Excluded from comparison/repr.
    _directed_cache: dict = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ap_keys) != len(self.ap_nets):
            raise ValueError("ap_keys and ap_nets must align")
        if self.ap_positions.shape != (self.num_aps, 3):
            raise ValueError(
                f"ap_positions shape {self.ap_positions.shape} != ({self.num_aps}, 3)"
            )
        if self.module_positions.shape != (self.num_modules, 3):
            raise ValueError("module_positions misshaped")
        for edge_type, pairs in self.edges.items():
            if pairs.size and pairs.max() >= self.num_nodes:
                raise ValueError(f"{edge_type} edge references unknown node")

    @property
    def num_aps(self) -> int:
        return len(self.ap_keys)

    @property
    def num_modules(self) -> int:
        return len(self.module_names)

    @property
    def num_nodes(self) -> int:
        return self.num_aps + self.num_modules

    def num_edges(self, edge_type: EdgeType | None = None) -> int:
        if edge_type is not None:
            return len(self.edges.get(edge_type, ()))
        return sum(len(e) for e in self.edges.values())

    @property
    def positions(self) -> np.ndarray:
        """Unified (num_nodes, 3) position array, APs first."""
        return np.vstack([self.ap_positions, self.module_positions])

    def directed_edges(self, edge_type: EdgeType) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination index arrays with both directions expanded.

        Built once per graph and memoized: the expansion sits on the GNN's
        per-forward path (training evaluates it for every sample, potential
        relaxation for every L-BFGS function evaluation), but depends only
        on the static edge list.  Swapping ``edges[edge_type]`` for a new
        array invalidates the cached entry.
        """
        pairs = self.edges.get(edge_type)
        if pairs is None or len(pairs) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        entry = self._directed_cache.get(edge_type)
        if entry is not None and entry[0] == id(pairs) and entry[1] == len(pairs):
            return entry[2]
        src = np.concatenate([pairs[:, 0], pairs[:, 1]]).astype(np.int64)
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]]).astype(np.int64)
        self._directed_cache[edge_type] = (id(pairs), len(pairs), (src, dst))
        return src, dst

