"""Tests for the heterogeneous graph construction."""

import numpy as np
import pytest

from repro.graph import EdgeType, build_hetero_graph
from repro.graph.features import ap_feature_dim, module_feature_dim
from repro.graph.hetero import HeteroGraph


class TestGraphStructure:
    def test_ap_count_matches_terminals(self, ota1, ota1_graph):
        total_terminals = sum(n.degree for n in ota1.nets.values())
        assert ota1_graph.num_aps == total_terminals

    def test_module_count_matches_devices(self, ota1, ota1_graph):
        assert ota1_graph.num_modules == len(ota1.devices)

    def test_feature_dims(self, ota1_graph):
        assert ota1_graph.ap_features.shape == (
            ota1_graph.num_aps, ap_feature_dim())
        assert ota1_graph.module_features.shape == (
            ota1_graph.num_modules, module_feature_dim())

    def test_all_edge_types_present(self, ota1_graph):
        for edge_type in EdgeType:
            assert ota1_graph.num_edges(edge_type) > 0

    def test_positions_shape(self, ota1_graph):
        assert ota1_graph.positions.shape == (ota1_graph.num_nodes, 3)

    def test_edges_reference_valid_nodes(self, ota1_graph):
        for edge_type in EdgeType:
            pairs = ota1_graph.edges[edge_type]
            if len(pairs):
                assert pairs.min() >= 0
                assert pairs.max() < ota1_graph.num_nodes

    def test_pp_edges_between_aps_only(self, ota1_graph):
        pairs = ota1_graph.edges[EdgeType.PP]
        assert pairs.max() < ota1_graph.num_aps

    def test_mm_edges_between_modules_only(self, ota1_graph):
        pairs = ota1_graph.edges[EdgeType.MM]
        assert pairs.min() >= ota1_graph.num_aps

    def test_mp_edges_bridge(self, ota1_graph):
        pairs = ota1_graph.edges[EdgeType.MP]
        assert (pairs[:, 0] < ota1_graph.num_aps).all()
        assert (pairs[:, 1] >= ota1_graph.num_aps).all()

    def test_same_net_aps_fully_connected(self, ota1, ota1_graph):
        net = "NET1L"
        indices = [i for i, n in enumerate(ota1_graph.ap_nets) if n == net]
        degree = ota1.net(net).degree
        pp = {tuple(p) for p in ota1_graph.edges[EdgeType.PP]}
        expected = degree * (degree - 1) // 2
        found = sum(1 for a in indices for b in indices
                    if a < b and (a, b) in pp)
        assert found == expected

    def test_cross_net_competition_edges_exist(self, ota1_graph):
        pp = ota1_graph.edges[EdgeType.PP]
        cross = [
            (a, b) for a, b in pp
            if ota1_graph.ap_nets[a] != ota1_graph.ap_nets[b]
        ]
        assert cross, "proximity edges between different nets expected"

    def test_every_ap_linked_to_its_module(self, ota1_graph):
        mp = {tuple(p) for p in ota1_graph.edges[EdgeType.MP]}
        for i, (device, _pin) in enumerate(ota1_graph.ap_keys):
            module_idx = ota1_graph.module_names.index(device) + ota1_graph.num_aps
            assert (i, module_idx) in mp

    def test_directed_edges_doubles_pairs(self, ota1_graph):
        src, dst = ota1_graph.directed_edges(EdgeType.PP)
        assert len(src) == 2 * ota1_graph.num_edges(EdgeType.PP)
        assert len(src) == len(dst)

    def test_proximity_radius_controls_density(self, ota1_grid):
        tight = build_hetero_graph(ota1_grid, proximity_radius=1.0)
        wide = build_hetero_graph(ota1_grid, proximity_radius=12.0)
        assert wide.num_edges(EdgeType.PP) > tight.num_edges(EdgeType.PP)

    def test_deterministic(self, ota1_grid):
        a = build_hetero_graph(ota1_grid)
        b = build_hetero_graph(ota1_grid)
        assert a.ap_keys == b.ap_keys
        for edge_type in EdgeType:
            np.testing.assert_array_equal(a.edges[edge_type], b.edges[edge_type])


class TestValidation:
    def test_misaligned_positions_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph(
                ap_keys=[("a", "p")], ap_nets=["n"], module_names=[],
                ap_positions=np.zeros((2, 3)),
                module_positions=np.zeros((0, 3)),
                ap_features=np.zeros((1, 4)),
                module_features=np.zeros((0, 4)),
            )

    def test_bad_edge_index_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph(
                ap_keys=[("a", "p")], ap_nets=["n"], module_names=[],
                ap_positions=np.zeros((1, 3)),
                module_positions=np.zeros((0, 3)),
                ap_features=np.zeros((1, 4)),
                module_features=np.zeros((0, 4)),
                edges={EdgeType.PP: np.array([[0, 5]])},
            )

    def test_feature_values_finite(self, ota1_graph):
        assert np.isfinite(ota1_graph.ap_features).all()
        assert np.isfinite(ota1_graph.module_features).all()
