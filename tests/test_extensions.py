"""Tests for the extension circuits."""

import numpy as np
import pytest

from repro.netlist.extensions import EXTENSION_BENCHMARKS, build_folded_cascode
from repro.placement import place_benchmark
from repro.router import IterativeRouter, RoutingGrid
from repro.extraction import extract
from repro.simulation import simulate_performance


class TestFoldedCascode:
    @pytest.fixture(scope="class")
    def ota_fc(self):
        return build_folded_cascode()

    def test_netlist_valid(self, ota_fc):
        ota_fc.validate()
        assert ota_fc.name == "OTA_FC"

    def test_has_symmetry_constraints(self, ota_fc):
        assert len(ota_fc.symmetry_pairs) == 4
        assert any(n.self_symmetric for n in ota_fc.nets.values())

    def test_full_chain(self, ota_fc, tech):
        placement = place_benchmark(ota_fc, variant="A", iterations=100)
        assert placement.is_legal()
        grid = RoutingGrid(placement, tech)
        result = IterativeRouter(grid).route_all()
        assert result.success
        metrics = simulate_performance(ota_fc, extract(result, grid, tech))
        assert metrics.gain_db > 10.0
        assert np.isfinite(metrics.to_normalized()).all()

    def test_registry(self):
        assert "OTA_FC" in EXTENSION_BENCHMARKS
