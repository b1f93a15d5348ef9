"""Tests for surrogate-quality evaluation."""

import numpy as np
import pytest

from repro.model import Gnn3d, Gnn3dConfig, TrainConfig, Trainer, TrainSample
from repro.model.evaluation import (
    evaluate_surrogate,
    format_quality_report,
    predict_batch,
    spearman,
)
from repro.nn import Tensor, is_grad_enabled
from repro.simulation.metrics import FoMWeights


@pytest.fixture(scope="module")
def learnable_task(ota1_graph):
    """Model trained on a synthetic, clearly learnable mapping."""
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(24):
        c = rng.uniform(0.3, 3.0, size=(ota1_graph.num_aps, 3))
        mean = c.mean()
        samples.append(TrainSample(
            guidance=c,
            targets=np.array([mean, -mean, mean / 2, 1.0, -mean / 3]),
        ))
    model = Gnn3d(
        ota1_graph.ap_features.shape[1], ota1_graph.module_features.shape[1],
        Gnn3dConfig(hidden=16, num_layers=2, seed=0),
    )
    Trainer(model, ota1_graph,
            TrainConfig(epochs=25, val_fraction=0.0, patience=0, lr=5e-3)
            ).fit(samples[:18])
    return model, samples


class TestEvaluateSurrogate:
    def test_predict_batch_shape(self, ota1_graph, learnable_task):
        model, samples = learnable_task
        preds = predict_batch(model, ota1_graph, samples[:4])
        assert preds.shape == (4, 5)

    def test_predict_batch_is_tape_free_and_equals_taped_rows(
            self, ota1_graph, learnable_task, monkeypatch):
        model, samples = learnable_task
        modes = []
        forward = model.forward

        def recorded(graph, guidance):
            modes.append(is_grad_enabled())
            return forward(graph, guidance)
        monkeypatch.setattr(model, "forward", recorded)
        preds = predict_batch(model, ota1_graph, samples[:4])
        assert modes == [False] * 4
        monkeypatch.undo()
        for pred, sample in zip(preds, samples):
            taped = model(ota1_graph, Tensor(sample.guidance))
            assert taped.requires_grad
            assert pred.tobytes() == taped.data.tobytes()

    def test_ranking_fields(self, ota1_graph, learnable_task):
        model, samples = learnable_task
        held_out = samples[18:]
        quality = evaluate_surrogate(model, ota1_graph, held_out)
        signed = FoMWeights().as_signed_vector()
        fom_pred = predict_batch(model, ota1_graph, held_out) @ signed
        fom_true = np.stack([s.targets for s in held_out]) @ signed
        assert quality.fom_spearman_rho == spearman(fom_pred, fom_true)
        # The share of samples measured better than the predicted best.
        better = (fom_true < fom_true[np.argmin(fom_pred)]).sum()
        assert quality.pred_best_percentile == 100.0 * better / 5

    def test_quality_on_learnable_task(self, ota1_graph, learnable_task):
        model, samples = learnable_task
        quality = evaluate_surrogate(model, ota1_graph, samples[18:])
        assert quality.num_samples == 6
        assert quality.fom_kendall_tau > 0.2, "ranking should be learnable"
        assert quality.mean_mae < 2.0

    def test_requires_two_samples(self, ota1_graph, learnable_task):
        model, samples = learnable_task
        with pytest.raises(ValueError):
            evaluate_surrogate(model, ota1_graph, samples[:1])

    def test_untrained_model_worse_ranking(self, ota1_graph, learnable_task):
        _, samples = learnable_task
        untrained = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=16, num_layers=2, seed=5),
        )
        trained_model, _ = learnable_task
        q_trained = evaluate_surrogate(trained_model, ota1_graph, samples[18:])
        q_untrained = evaluate_surrogate(untrained, ota1_graph, samples[18:])
        assert q_trained.mean_mae <= q_untrained.mean_mae

    def test_report_format(self, ota1_graph, learnable_task):
        model, samples = learnable_task
        report = format_quality_report(
            evaluate_surrogate(model, ota1_graph, samples[18:]))
        assert "Kendall tau" in report
        assert "MAE[offset_uv]" in report
