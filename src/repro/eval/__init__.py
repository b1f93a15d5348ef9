"""Evaluation harness: Table 1/2, Figure 5/6, and formatting helpers."""

from repro.eval.compare import (
    CellResult,
    EvalScale,
    MethodResult,
    SCALES,
    evaluate_cell,
    normalized_averages,
)
from repro.eval.crosstopo import (
    CROSSTOPO_SCALES,
    CrossTopoResult,
    CrossTopoScale,
    DesignScore,
    format_crosstopo_table,
    run_crosstopo,
)
from repro.eval.runtime import runtime_breakdown_table
from repro.eval.tables import format_table1, format_table2
from repro.eval.visualize import render_guidance, render_layout

__all__ = [
    "CellResult",
    "MethodResult",
    "EvalScale",
    "SCALES",
    "evaluate_cell",
    "normalized_averages",
    "CROSSTOPO_SCALES",
    "CrossTopoResult",
    "CrossTopoScale",
    "DesignScore",
    "format_crosstopo_table",
    "run_crosstopo",
    "format_table1",
    "format_table2",
    "runtime_breakdown_table",
    "render_layout",
    "render_guidance",
]
