"""Tests for the evaluation harness (tables, runtime, visualization)."""

import pytest

from repro.eval import (
    SCALES,
    evaluate_cell,
    format_table1,
    format_table2,
    normalized_averages,
    render_guidance,
    render_layout,
    runtime_breakdown_table,
)
from repro.eval.compare import CellResult, MethodResult, wins_against
from repro.eval.runtime import runtime_breakdown
from repro.eval.visualize import guidance_histogram
from repro.router.guidance import uniform_guidance
from repro.simulation import PerformanceMetrics


def _metrics(offset=100.0, cmrr=80.0, bw=50.0, gain=35.0, noise=500.0):
    return PerformanceMetrics(offset, cmrr, bw, gain, noise)


def _fake_cell(name="OTA1", variant="A"):
    cell = CellResult(circuit=name, variant=variant, schematic=_metrics(1.0, 150.0))
    cell.methods["magical"] = MethodResult(_metrics(), 1.0)
    cell.methods["genius"] = MethodResult(_metrics(offset=120.0), 2.0)
    cell.methods["analogfold"] = MethodResult(
        _metrics(offset=50.0, cmrr=90.0), 1.5)
    return cell


class TestTables:
    def test_table1_contains_paper_rows(self):
        table = format_table1()
        assert "OTA1" in table and "OTA4" in table
        assert "25" in table and "36" in table

    def test_table2_formats_all_methods(self):
        table = format_table2([_fake_cell()])
        for token in ("OTA1-A", "Schematic", "[16]", "[11]", "Ours",
                      "Offset Voltage", "Runtime"):
            assert token in table

    def test_table2_average_block(self):
        table = format_table2([_fake_cell(), _fake_cell("OTA2")])
        assert "Average" in table
        assert "1.000" in table  # magical normalized to itself

    def test_normalized_averages_magical_is_unity(self):
        averages = normalized_averages([_fake_cell()])
        for metric, value in averages["magical"].items():
            assert value == pytest.approx(1.0)

    def test_normalized_averages_directions(self):
        averages = normalized_averages([_fake_cell()])
        assert averages["analogfold"]["offset_uv"] < 1.0  # improved
        assert averages["analogfold"]["cmrr_db"] > 1.0
        assert averages["genius"]["offset_uv"] > 1.0  # worse

    def test_empty_cells_raise(self):
        with pytest.raises(ValueError):
            normalized_averages([])

    def test_wins_against(self):
        wins = wins_against([_fake_cell()], "analogfold", "magical")
        assert wins["offset_uv"] == 1
        assert wins["cmrr_db"] == 1
        assert wins["bandwidth_mhz"] == 0


class TestRuntime:
    def _result(self):
        from repro.core.pipeline import AnalogFoldResult
        from repro.router.result import RoutingResult
        return AnalogFoldResult(
            guidance=uniform_guidance(),
            routing=RoutingResult(),
            metrics=_metrics(),
            stage_seconds={
                "construct_database": 1.0,
                "model_training": 8.0,
                "guide_generation": 0.5,
                "guided_routing": 0.5,
            },
        )

    def test_fractions_sum_to_one(self):
        fractions = runtime_breakdown(self._result(), placement_seconds=2.0)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_training_dominates(self):
        fractions = runtime_breakdown(self._result())
        assert max(fractions, key=fractions.get) == "model_training"

    def test_table_renders(self):
        table = runtime_breakdown_table(self._result(), placement_seconds=2.0)
        assert "Model Training" in table
        assert "Placement" in table
        assert "%" in table


class TestVisualize:
    def test_render_layout_dimensions(self, ota1_routed):
        result, grid = ota1_routed
        art = render_layout(result, grid, layer=1)
        rows = art.splitlines()[1:-1]  # strip header and legend
        assert len(rows) == grid.ny
        assert all(len(r) == grid.nx for r in rows)

    def test_render_layout_shows_nets_and_blockage(self, ota1_routed):
        result, grid = ota1_routed
        m1 = render_layout(result, grid, layer=0)
        assert "#" in m1  # device bodies
        assert "*" in m1  # access points
        assert "legend:" in m1

    def test_render_layout_bad_layer(self, ota1_routed):
        result, grid = ota1_routed
        with pytest.raises(ValueError):
            render_layout(result, grid, layer=99)

    def test_render_guidance_lists_aps(self, ota1_routed):
        result, grid = ota1_routed
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        art = render_guidance(uniform_guidance(keys), grid)
        assert "NET1L" in art
        assert "prefers" in art

    def test_guidance_histogram(self):
        keys = [("a", "p"), ("b", "q")]
        art = guidance_histogram(uniform_guidance(keys))
        assert "x:" in art and "z:" in art

    def test_guidance_histogram_empty(self):
        from repro.router.guidance import RoutingGuidance
        assert guidance_histogram(RoutingGuidance()) == "empty guidance"


class TestEvaluateCell:
    def test_smoke_scale_cell(self):
        cell = evaluate_cell("OTA1", "A", scale="smoke")
        assert set(cell.methods) == {"magical", "genius", "analogfold"}
        for method in cell.methods.values():
            assert method.metrics.noise_uvrms > 0
            assert method.runtime_s > 0
        assert cell.cell_name == "OTA1-A"

    def test_scales_registry(self):
        assert set(SCALES) == {"smoke", "fast", "full", "paper"}
        assert SCALES["paper"].dataset_samples == 2000
