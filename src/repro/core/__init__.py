"""AnalogFold core: potential modeling, relaxation, dataset, pipeline."""

from repro.core.dataset import (
    Database,
    DatasetConfig,
    GuidanceSample,
    generate_dataset,
)
from repro.core.pipeline import AnalogFold, AnalogFoldConfig, AnalogFoldResult
from repro.core.potential import PotentialFunction
from repro.core.relaxation import PotentialRelaxer, RelaxationConfig, RelaxedGuidance

__all__ = [
    "PotentialFunction",
    "PotentialRelaxer",
    "RelaxationConfig",
    "RelaxedGuidance",
    "Database",
    "DatasetConfig",
    "GuidanceSample",
    "generate_dataset",
    "AnalogFold",
    "AnalogFoldConfig",
    "AnalogFoldResult",
]
