"""Performance metrics and figure-of-merit definitions (Eq. 6-7)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Metric names in the paper's reporting order.
METRIC_NAMES = ("offset_uv", "cmrr_db", "bandwidth_mhz", "gain_db", "noise_uvrms")

#: Whether a larger value is better, per metric.
HIGHER_IS_BETTER = {
    "offset_uv": False,
    "cmrr_db": True,
    "bandwidth_mhz": True,
    "gain_db": True,
    "noise_uvrms": False,
}


@dataclass(frozen=True)
class PerformanceMetrics:
    """The paper's five post-layout metrics.

    Attributes:
        offset_uv: input-referred offset voltage, microvolts (lower better).
        cmrr_db: common-mode rejection ratio at DC, dB (higher better).
        bandwidth_mhz: unity-gain bandwidth, MHz (higher better).
        gain_db: DC differential gain, dB (higher better).
        noise_uvrms: integrated output noise, microvolts rms (lower better).
    """

    offset_uv: float
    cmrr_db: float
    bandwidth_mhz: float
    gain_db: float
    noise_uvrms: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(getattr(self, name) for name in METRIC_NAMES)

    # -- normalization for model training ---------------------------------------
    #
    # Metrics span decades; the network trains on compressed targets and
    # predictions invert the same transform.

    def to_normalized(self) -> np.ndarray:
        """Compress metrics to O(1) training targets."""
        return np.array([
            math.log10(max(self.offset_uv, 1e-3)),
            self.cmrr_db / 40.0,
            math.log10(max(self.bandwidth_mhz, 1e-3)),
            self.gain_db / 20.0,
            math.log10(max(self.noise_uvrms, 1e-3)),
        ])

    @staticmethod
    def from_normalized(vec: np.ndarray) -> "PerformanceMetrics":
        """Invert :meth:`to_normalized`."""
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (5,):
            raise ValueError(f"expected 5 normalized metrics, got shape {arr.shape}")
        return PerformanceMetrics(
            offset_uv=float(10.0 ** arr[0]),
            cmrr_db=float(arr[1] * 40.0),
            bandwidth_mhz=float(10.0 ** arr[2]),
            gain_db=float(arr[3] * 20.0),
            noise_uvrms=float(10.0 ** arr[4]),
        )

    def __str__(self) -> str:
        return (
            f"offset={self.offset_uv:.3g}uV cmrr={self.cmrr_db:.4g}dB "
            f"bw={self.bandwidth_mhz:.4g}MHz gain={self.gain_db:.4g}dB "
            f"noise={self.noise_uvrms:.4g}uVrms"
        )


@dataclass(frozen=True)
class FoMWeights:
    """Figure-of-merit weights ``w_FoM`` of Eq. 7.

    The paper found equal weighting best; lower FoM is better, so metrics
    where higher is better enter with a negative sign.
    """

    offset: float = 1.0
    cmrr: float = 1.0
    bandwidth: float = 1.0
    gain: float = 1.0
    noise: float = 1.0

    def as_signed_vector(self) -> np.ndarray:
        """Weights on *normalized* metrics, sign-flipped where higher is better."""
        return np.array([
            self.offset,
            -self.cmrr,
            -self.bandwidth,
            -self.gain,
            self.noise,
        ])

    def fom(self, metrics: PerformanceMetrics) -> float:
        """Scalar figure of merit (lower is better)."""
        return float(self.as_signed_vector() @ metrics.to_normalized())
