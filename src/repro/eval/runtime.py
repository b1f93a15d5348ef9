"""Runtime breakdown reporting (the paper's Figure 5)."""

from __future__ import annotations

from repro.core.pipeline import AnalogFoldResult

#: Stage keys -> Figure 5 labels, in the paper's display order.
STAGE_LABELS = {
    "model_training": "Model Training",
    "placement": "Placement",
    "guide_generation": "Inference: Routing Guide Generation",
    "guided_routing": "Inference: Guided Detailed Routing",
    "construct_database": "Construct Database",
}


def runtime_breakdown(
    result: AnalogFoldResult, placement_seconds: float = 0.0
) -> dict[str, float]:
    """Stage fractions, including placement time measured by the caller."""
    seconds = dict(result.stage_seconds)
    if placement_seconds > 0.0:
        seconds["placement"] = placement_seconds
    total = sum(seconds.values())
    if total <= 0:
        return {k: 0.0 for k in seconds}
    return {k: v / total for k, v in seconds.items()}


def runtime_breakdown_table(
    result: AnalogFoldResult, placement_seconds: float = 0.0
) -> str:
    """Render the Figure 5 pie as a text table."""
    fractions = runtime_breakdown(result, placement_seconds)
    seconds = dict(result.stage_seconds)
    if placement_seconds > 0.0:
        seconds["placement"] = placement_seconds
    lines = ["Figure 5: runtime breakdown"]
    for key, label in STAGE_LABELS.items():
        if key not in fractions:
            continue
        lines.append(
            f"  {fractions[key] * 100:6.2f}%  {label}  ({seconds[key]:.2f}s)"
        )
    lines.append(f"  total: {sum(seconds.values()):.2f}s")
    return "\n".join(lines)
