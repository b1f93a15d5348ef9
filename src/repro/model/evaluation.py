"""Model-quality metrics for the trained performance surrogate.

Potential relaxation only needs the surrogate to *rank* guidance points
correctly — absolute calibration is secondary.  So besides per-metric
regression error we report Kendall's tau and Spearman's rho between
predicted and measured figures of merit, the quantities that actually
predict whether relaxation will walk toward good guidance, and where
the predicted-best sample lands in the measured ranking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import ConstantInputWarning, kendalltau, spearmanr

from repro.graph.hetero import HeteroGraph
from repro.model.gnn3d import Gnn3d
from repro.model.training import TrainSample
from repro.nn import Tensor, no_grad
from repro.simulation.metrics import METRIC_NAMES, FoMWeights


@dataclass(frozen=True)
class SurrogateQuality:
    """Evaluation summary of a trained 3DGNN.

    Attributes:
        mae_per_metric: mean absolute error on normalized targets, keyed by
            metric name.
        fom_kendall_tau: Kendall's tau between predicted and true FoM over
            the evaluation set (1 = perfect ranking).
        fom_spearman_rho: Spearman's rho between predicted and true FoM
            (see :func:`spearman`).
        pred_best_percentile: measured-FoM percentile of the sample with
            the best predicted FoM (0 = the prediction picked the truly
            best sample; 100 = the worst).
        fom_top1_hit: whether the sample with the best predicted FoM is in
            the best-true-FoM half of the set.
        num_samples: evaluation set size.
    """

    mae_per_metric: dict[str, float]
    fom_kendall_tau: float
    fom_spearman_rho: float
    pred_best_percentile: float
    fom_top1_hit: bool
    num_samples: int

    @property
    def mean_mae(self) -> float:
        return float(np.mean(list(self.mae_per_metric.values())))


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation with average ranks for ties; 0.0 when
    either ranking is constant, which carries no order information."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("spearman needs two equal-length 1-D arrays")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConstantInputWarning)
        rho = spearmanr(a, b).statistic
    return 0.0 if np.isnan(rho) else float(rho)


def predict_batch(
    model: Gnn3d, graph: HeteroGraph, samples: list[TrainSample]
) -> np.ndarray:
    """Stack predictions for a sample list, shape (n, 5), tape-free."""
    if not samples:
        return np.zeros((0, 5))
    with no_grad():
        return np.stack([model(graph, Tensor(s.guidance)).data
                         for s in samples])


def evaluate_surrogate(
    model: Gnn3d,
    graph: HeteroGraph,
    samples: list[TrainSample],
    weights: FoMWeights | None = None,
) -> SurrogateQuality:
    """Score a trained surrogate on an evaluation set."""
    if len(samples) < 2:
        raise ValueError(f"need at least 2 evaluation samples, got {len(samples)}")
    weights = weights or FoMWeights()
    preds = predict_batch(model, graph, samples)
    targets = np.stack([s.targets for s in samples])

    mae = np.abs(preds - targets).mean(axis=0)
    mae_per_metric = {name: float(mae[i]) for i, name in enumerate(METRIC_NAMES)}

    w = weights.as_signed_vector()
    fom_pred = preds @ w
    fom_true = targets @ w
    tau = kendalltau(fom_pred, fom_true).statistic
    tau = 0.0 if np.isnan(tau) else float(tau)

    best_pred_idx = int(np.argmin(fom_pred))
    true_rank = int(np.argsort(np.argsort(fom_true))[best_pred_idx])
    top1_hit = true_rank < max(len(samples) // 2, 1)
    # Rank of the predicted winner in the measured ordering, ties
    # counted in its favour (lower FoM is better).
    measured_rank = float((fom_true < fom_true[best_pred_idx]).sum())

    return SurrogateQuality(
        mae_per_metric=mae_per_metric,
        fom_kendall_tau=tau,
        fom_spearman_rho=spearman(fom_pred, fom_true),
        pred_best_percentile=100.0 * measured_rank / (len(samples) - 1),
        fom_top1_hit=top1_hit,
        num_samples=len(samples),
    )


def format_quality_report(quality: SurrogateQuality) -> str:
    """Human-readable surrogate-quality summary."""
    lines = [f"Surrogate quality over {quality.num_samples} samples:",
             f"  FoM Kendall tau: {quality.fom_kendall_tau:+.3f}",
             f"  top-1 predicted in best-true half: {quality.fom_top1_hit}"]
    for name, value in quality.mae_per_metric.items():
        lines.append(f"  MAE[{name}]: {value:.4f}")
    return "\n".join(lines)
