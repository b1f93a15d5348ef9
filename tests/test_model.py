"""Tests for the 3DGNN model and trainer."""

import numpy as np
import pytest

import repro.model.gnn3d as gnn3d_mod
from repro.graph.hetero import EdgeType, HeteroGraph
from repro.model import Gnn3d, Gnn3dConfig, TrainConfig, Trainer, TrainSample
from repro.nn import MLP, Tensor, load_state


@pytest.fixture(scope="module")
def model(ota1_graph):
    return Gnn3d(
        ota1_graph.ap_features.shape[1],
        ota1_graph.module_features.shape[1],
        Gnn3dConfig(hidden=16, num_layers=2, seed=0),
    )


def _guidance(graph, value=1.0):
    return Tensor(np.full((graph.num_aps, 3), value))


def _ring_graph() -> HeteroGraph:
    """Three access points in a ring and one module, with the built-in
    feature widths (19 per access point, 11 per module)."""
    rng = np.random.default_rng(1)
    return HeteroGraph(
        ap_keys=[("d", f"p{i}") for i in range(3)],
        ap_nets=["n0", "n0", "n1"],
        module_names=["m0"],
        ap_positions=rng.uniform(0.0, 20.0, (3, 3)),
        module_positions=rng.uniform(0.0, 20.0, (1, 3)),
        ap_features=rng.normal(size=(3, 19)),
        module_features=rng.normal(size=(1, 11)),
        edges={EdgeType.PP: np.array([[0, 1], [1, 2], [2, 0]]),
               EdgeType.MP: np.array([[3, 0], [3, 2]]),
               EdgeType.MM: np.zeros((0, 2), dtype=np.int64)},
    )


class TestForward:
    def test_output_is_five_metrics(self, model, ota1_graph):
        out = model(ota1_graph, _guidance(ota1_graph))
        assert out.shape == (5,)
        assert np.isfinite(out.data).all()

    def test_wrong_guidance_shape_raises(self, model, ota1_graph):
        with pytest.raises(ValueError):
            model(ota1_graph, Tensor(np.ones((3, 3))))

    def test_guidance_changes_prediction(self, model, ota1_graph):
        a = model(ota1_graph, _guidance(ota1_graph, 0.5)).data
        b = model(ota1_graph, _guidance(ota1_graph, 2.5)).data
        assert not np.allclose(a, b)

    def test_deterministic(self, model, ota1_graph):
        a = model(ota1_graph, _guidance(ota1_graph)).data
        b = model(ota1_graph, _guidance(ota1_graph)).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_reaches_guidance(self, model, ota1_graph):
        c = Tensor(np.full((ota1_graph.num_aps, 3), 1.5), requires_grad=True)
        model(ota1_graph, c).sum().backward()
        assert c.grad is not None
        assert np.abs(c.grad).max() > 0

    def test_guidance_gradient_matches_finite_difference(self, model, ota1_graph):
        c0 = np.full((ota1_graph.num_aps, 3), 1.2)
        c = Tensor(c0.copy(), requires_grad=True)
        model(ota1_graph, c).sum().backward()
        idx = (0, 0)
        eps = 1e-5
        cp, cm = c0.copy(), c0.copy()
        cp[idx] += eps
        cm[idx] -= eps
        fd = (model(ota1_graph, Tensor(cp)).sum().item()
              - model(ota1_graph, Tensor(cm)).sum().item()) / (2 * eps)
        assert c.grad[idx] == pytest.approx(fd, rel=1e-3, abs=1e-8)


class TestAblationConfigs:
    def test_no_cost_distance_kills_guidance_gradient(self, ota1_graph):
        model = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=16, num_layers=1, use_cost_distance=False),
        )
        c = Tensor(np.ones((ota1_graph.num_aps, 3)), requires_grad=True)
        model(ota1_graph, c).sum().backward()
        assert c.grad is None or np.abs(c.grad).max() == 0.0

    def test_raw_distance_mode_runs(self, ota1_graph):
        model = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=16, num_layers=1, use_rbf=False),
        )
        out = model(ota1_graph, _guidance(ota1_graph))
        assert np.isfinite(out.data).all()

    def test_homogeneous_has_fewer_parameters(self, ota1_graph):
        dims = (ota1_graph.ap_features.shape[1],
                ota1_graph.module_features.shape[1])
        hetero = Gnn3d(*dims, Gnn3dConfig(hidden=16, heterogeneous=True))
        homo = Gnn3d(*dims, Gnn3dConfig(hidden=16, heterogeneous=False))
        assert homo.num_parameters() < hetero.num_parameters()

    def test_seed_changes_parameters(self, ota1_graph):
        dims = (ota1_graph.ap_features.shape[1],
                ota1_graph.module_features.shape[1])
        a = Gnn3d(*dims, Gnn3dConfig(hidden=16, seed=0))
        b = Gnn3d(*dims, Gnn3dConfig(hidden=16, seed=1))
        # Compare a weight matrix (parameters()[0] is a zero-init bias).
        pa = a.ap_embed.layers[0].weight.data
        pb = b.ap_embed.layers[0].weight.data
        assert not np.allclose(pa, pb)


class TestTrainer:
    def _samples(self, graph, n=12, seed=0):
        """Synthetic learnable task: targets depend on mean guidance."""
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(n):
            c = rng.uniform(0.3, 3.0, size=(graph.num_aps, 3))
            mean = c.mean()
            targets = np.array([mean, -mean, 0.5 * mean, 1.0, 0.0])
            samples.append(TrainSample(guidance=c, targets=targets))
        return samples

    def test_loss_decreases(self, ota1_graph):
        model = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=16, num_layers=2, seed=0),
        )
        trainer = Trainer(model, ota1_graph,
                          TrainConfig(epochs=15, lr=5e-3, val_fraction=0.0,
                                      patience=0))
        history = trainer.fit(self._samples(ota1_graph, n=16))
        assert history.train_loss[-1] < history.train_loss[0]

    def test_validation_tracked(self, ota1_graph):
        model = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=8, num_layers=1, seed=0),
        )
        trainer = Trainer(model, ota1_graph,
                          TrainConfig(epochs=4, val_fraction=0.25, patience=0))
        history = trainer.fit(self._samples(ota1_graph, n=8))
        assert len(history.val_loss) == len(history.train_loss)
        assert np.isfinite(history.best_val)

    def test_evaluate_is_tape_free_and_bitwise(self, ota1_graph,
                                               monkeypatch):
        """Regression: validation built a full backward tape it never
        used.  Losses stay bitwise those of the taped forward."""
        model = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=8, num_layers=2, seed=0),
        )
        trainer = Trainer(model, ota1_graph, TrainConfig(epochs=1))
        samples = self._samples(ota1_graph, n=4)
        taped = [trainer._sample_loss(s) for s in samples]
        assert all(loss.requires_grad for loss in taped)
        expected = sum(loss.item() for loss in taped) / len(taped)

        losses = []
        real = Trainer._sample_loss
        monkeypatch.setattr(
            Trainer, "_sample_loss",
            lambda self, *a, **k: losses.append(real(self, *a, **k))
            or losses[-1])
        assert trainer.evaluate(samples) == expected
        assert len(losses) == 4
        assert not any(loss.requires_grad for loss in losses)

    def test_too_few_samples_raises(self, ota1_graph, model):
        trainer = Trainer(model, ota1_graph, TrainConfig(epochs=1))
        with pytest.raises(ValueError):
            trainer.fit(self._samples(ota1_graph, n=1))

    def test_fit_is_fit_multi_on_one_design(self, ota1_graph):
        """One epoch loop: ``fit`` trains exactly as ``fit_multi`` does
        on the same single design (weights and history ``==``)."""
        samples = self._samples(ota1_graph, n=12)

        def train(run):
            model = Gnn3d(ota1_graph.ap_features.shape[1],
                          ota1_graph.module_features.shape[1],
                          Gnn3dConfig(hidden=8, num_layers=2, seed=0))
            trainer = Trainer(model, ota1_graph,
                              TrainConfig(epochs=3, batch_size=4,
                                          val_fraction=0.25, patience=0))
            history = run(trainer)
            return [p.data.copy() for p in model.parameters()], history

        single, single_history = train(lambda t: t.fit(samples))
        multi, multi_history = train(
            lambda t: t.fit_multi([(ota1_graph, samples)]))
        assert len(single_history.train_loss) == 3
        assert len(single_history.val_loss) == 3
        assert single_history == multi_history
        assert len(single) == len(multi)
        assert all(np.array_equal(a, b) for a, b in zip(single, multi))

    def test_early_stopping_caps_epochs(self, ota1_graph):
        model = Gnn3d(
            ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1],
            Gnn3dConfig(hidden=8, num_layers=1, seed=0),
        )
        trainer = Trainer(model, ota1_graph,
                          TrainConfig(epochs=50, val_fraction=0.25, patience=2,
                                      lr=1e-9))
        history = trainer.fit(self._samples(ota1_graph, n=8))
        assert len(history.train_loss) < 50


#: ``Gnn3d(19, 11).named_parameters()`` at the default config, in order,
#: before the message layers were fused: checkpoints store exactly these
#: names and shapes.
CHECKPOINT_LAYOUT = [
    ('ap_embed.layers.0.bias', (32,)),
    ('ap_embed.layers.0.weight', (19, 32)),
    ('head.fc.layers.0.bias', (32,)),
    ('head.fc.layers.0.weight', (32, 32)),
    ('head.fc.layers.1.bias', (5,)),
    ('head.fc.layers.1.weight', (32, 5)),
    ('head.node_mlp.layers.0.bias', (32,)),
    ('head.node_mlp.layers.0.weight', (32, 32)),
    ('layers.0._block_list.0.dist_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.0.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.0._block_list.0.out_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.0.out_mlp.layers.0.weight', (32, 32)),
    ('layers.0._block_list.0.src_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.0.src_mlp.layers.0.weight', (32, 32)),
    ('layers.0._block_list.1.dist_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.1.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.0._block_list.1.out_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.1.out_mlp.layers.0.weight', (32, 32)),
    ('layers.0._block_list.1.src_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.1.src_mlp.layers.0.weight', (32, 32)),
    ('layers.0._block_list.2.dist_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.2.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.0._block_list.2.out_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.2.out_mlp.layers.0.weight', (32, 32)),
    ('layers.0._block_list.2.src_mlp.layers.0.bias', (32,)),
    ('layers.0._block_list.2.src_mlp.layers.0.weight', (32, 32)),
    ('layers.1._block_list.0.dist_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.0.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.1._block_list.0.out_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.0.out_mlp.layers.0.weight', (32, 32)),
    ('layers.1._block_list.0.src_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.0.src_mlp.layers.0.weight', (32, 32)),
    ('layers.1._block_list.1.dist_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.1.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.1._block_list.1.out_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.1.out_mlp.layers.0.weight', (32, 32)),
    ('layers.1._block_list.1.src_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.1.src_mlp.layers.0.weight', (32, 32)),
    ('layers.1._block_list.2.dist_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.2.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.1._block_list.2.out_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.2.out_mlp.layers.0.weight', (32, 32)),
    ('layers.1._block_list.2.src_mlp.layers.0.bias', (32,)),
    ('layers.1._block_list.2.src_mlp.layers.0.weight', (32, 32)),
    ('layers.2._block_list.0.dist_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.0.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.2._block_list.0.out_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.0.out_mlp.layers.0.weight', (32, 32)),
    ('layers.2._block_list.0.src_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.0.src_mlp.layers.0.weight', (32, 32)),
    ('layers.2._block_list.1.dist_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.1.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.2._block_list.1.out_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.1.out_mlp.layers.0.weight', (32, 32)),
    ('layers.2._block_list.1.src_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.1.src_mlp.layers.0.weight', (32, 32)),
    ('layers.2._block_list.2.dist_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.2.dist_mlp.layers.0.weight', (16, 32)),
    ('layers.2._block_list.2.out_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.2.out_mlp.layers.0.weight', (32, 32)),
    ('layers.2._block_list.2.src_mlp.layers.0.bias', (32,)),
    ('layers.2._block_list.2.src_mlp.layers.0.weight', (32, 32)),
    ('module_embed.layers.0.bias', (32,)),
    ('module_embed.layers.0.weight', (11, 32)),
]


class TestCheckpointLayout:
    def test_named_parameters_keep_the_layout(self):
        model = Gnn3d(19, 11)
        assert [(name, param.shape) for name, param
                in model.named_parameters()] == CHECKPOINT_LAYOUT

    def test_archive_of_the_layout_loads(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {name: rng.normal(size=shape)
                  for name, shape in CHECKPOINT_LAYOUT}
        np.savez_compressed(tmp_path / "parent.npz", **arrays)
        model = Gnn3d(19, 11)
        load_state(model, tmp_path / "parent.npz")
        for name, param in model.named_parameters():
            assert np.array_equal(param.data, arrays[name]), name
        out = model(_ring_graph(), Tensor(np.ones((3, 3))))
        assert out.shape == (5,) and np.isfinite(out.data).all()

    def test_message_mlps_must_be_one_affine_layer(self, monkeypatch):
        """The fused layer moves each Eq. 5 MLP across the gather or the
        aggregation, which is exact only for one affine layer."""
        monkeypatch.setattr(gnn3d_mod, "MLP",
                            lambda dims, rng: MLP(dims[:1] + dims, rng))
        with pytest.raises(ValueError, match="src_mlp must be one affine"):
            Gnn3d(19, 11)
