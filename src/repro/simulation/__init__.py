"""Post-layout performance simulation.

Replaces Calibre PEX + Cadence Spectre (DESIGN.md section 2): a complex-
valued MNA engine over the small-signal circuit with the extracted parasitic
network embedded, producing the paper's five metrics — offset voltage, CMRR,
unity-gain bandwidth, DC gain, and integrated output noise.
"""

from repro.simulation.analyses import simulate_performance
from repro.simulation.metrics import FoMWeights, PerformanceMetrics
from repro.simulation.mna import MnaSystem
from repro.simulation.smallsignal import MosSmallSignal, mos_small_signal
from repro.simulation.testbench import Testbench, TestbenchConfig
from repro.simulation.transient import (
    StepMetrics,
    TransientResult,
    step_response_metrics,
    transient,
)

__all__ = [
    "simulate_performance",
    "FoMWeights",
    "PerformanceMetrics",
    "MnaSystem",
    "MosSmallSignal",
    "mos_small_signal",
    "Testbench",
    "TestbenchConfig",
    "StepMetrics",
    "TransientResult",
    "step_response_metrics",
    "transient",
]
