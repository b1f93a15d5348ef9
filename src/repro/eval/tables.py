"""Plain-text rendering of the paper's tables."""

from __future__ import annotations

from repro.eval.compare import CellResult, METHOD_ORDER, normalized_averages
from repro.netlist import build_benchmark

#: Metric display rows of Table 2: (attribute, label, better-direction).
_TABLE2_ROWS = (
    ("offset_uv", "Offset Voltage(uV)", "v"),
    ("cmrr_db", "CMRR(dB)", "^"),
    ("bandwidth_mhz", "BandWidth(MHz)", "^"),
    ("gain_db", "DC Gain(dB)", "^"),
    ("noise_uvrms", "Noise(uVrms)", "v"),
)

_METHOD_LABELS = {
    "magical": "[16]",
    "genius": "[11]",
    "analogfold": "Ours",
}


def format_table1(names: tuple[str, ...] = ("OTA1", "OTA2", "OTA3", "OTA4")) -> str:
    """Render Table 1 (benchmark circuit statistics)."""
    lines = [
        "Table 1: Benchmark circuits information.",
        f"{'Benchmark':<10} {'#PMOS':>6} {'#NMOS':>6} {'#Cap':>5} {'#Res':>5} {'#Total':>7}",
    ]
    for name in names:
        stats = build_benchmark(name).stats()
        lines.append(
            f"{name:<10} {stats.num_pmos:>6} {stats.num_nmos:>6} "
            f"{stats.num_cap:>5} {stats.num_res:>5} {stats.num_total:>7}"
        )
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-2:
        return f"{value:.3g}"
    return f"{value:.4g}"


def format_table2(cells: list[CellResult]) -> str:
    """Render Table 2 (method comparison per cell plus normalized averages)."""
    header = (
        f"{'Cell':<9} {'Metric':<20} {'Schematic':>10} "
        + " ".join(f"{_METHOD_LABELS[m]:>10}" for m in METHOD_ORDER)
    )
    lines = [
        "Table 2: Comparison between baseline methods and AnalogFold.",
        header,
        "-" * len(header),
    ]
    for cell in cells:
        for attr, label, arrow in _TABLE2_ROWS:
            schematic = _fmt(getattr(cell.schematic, attr))
            values = " ".join(
                f"{_fmt(getattr(cell.methods[m].metrics, attr)):>10}"
                for m in METHOD_ORDER
            )
            lines.append(
                f"{cell.cell_name:<9} {label + ' ' + arrow:<20} {schematic:>10} {values}"
            )
        runtimes = " ".join(
            f"{_fmt(cell.methods[m].runtime_s):>10}" for m in METHOD_ORDER
        )
        lines.append(f"{cell.cell_name:<9} {'Runtime(s) v':<20} {'-':>10} {runtimes}")
        lines.append("")

    if cells:
        averages = normalized_averages(cells)
        lines.append("Average (normalized to [16] = 1.000):")
        for attr, label, arrow in _TABLE2_ROWS:
            values = " ".join(
                f"{averages[m][attr]:>10.3f}" for m in METHOD_ORDER
            )
            lines.append(f"{'Average':<9} {label + ' ' + arrow:<20} {'-':>10} {values}")
        values = " ".join(
            f"{averages[m]['runtime_s']:>10.3f}" for m in METHOD_ORDER
        )
        lines.append(f"{'Average':<9} {'Runtime(s) v':<20} {'-':>10} {values}")
    return "\n".join(lines)
