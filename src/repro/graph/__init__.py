"""Heterogeneous routing graph G_H = <V_AP, V_M, E_PP, E_MP, E_MM> (Sec. 4.1)."""

from repro.graph.builder import build_hetero_graph
from repro.graph.hetero import EdgeType, HeteroGraph

__all__ = [
    "HeteroGraph",
    "EdgeType",
    "build_hetero_graph",
]
