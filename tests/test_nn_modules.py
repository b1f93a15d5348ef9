"""Tests for Linear/MLP modules, optimizers, RBF, and serialization."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Linear,
    Module,
    Parameter,
    RBFExpansion,
    Tensor,
    load_state,
    save_state,
)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_parameters_discovered(self, rng):
        layer = Linear(4, 3, rng)
        assert len(layer.parameters()) == 2

    def test_xavier_init_scale(self, rng):
        layer = Linear(100, 100, rng)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound


class TestMLP:
    def test_forward_shape(self, rng):
        mlp = MLP([4, 8, 2], rng)
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_requires_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            MLP([4, 2], rng, final_activation="gelu")

    def test_final_activation_sigmoid_bounds(self, rng):
        mlp = MLP([4, 8, 2], rng, final_activation="sigmoid")
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(10, 4)) * 10))
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_can_fit_linear_function(self, rng):
        mlp = MLP([2, 16, 1], rng)
        opt = Adam(mlp.parameters(), lr=1e-2)
        x = rng.normal(size=(64, 2))
        y = (x @ np.array([[2.0], [-1.0]])) + 0.5
        loss_val = None
        for _ in range(400):
            opt.zero_grad()
            loss = ((mlp(Tensor(x)) - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
            loss_val = loss.item()
        assert loss_val < 1e-2

    def test_named_parameters_unique(self, rng):
        mlp = MLP([3, 5, 2], rng)
        names = [n for n, _ in mlp.named_parameters()]
        assert len(names) == len(set(names))
        assert len(names) == 4  # 2 layers x (weight, bias)


class TestOptim:
    def _quadratic_param(self):
        return Parameter(np.array([5.0, -3.0]))

    def test_adam_descends(self):
        p = self._quadratic_param()
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-2

    def test_skips_none_grads(self):
        p = Parameter(np.ones(2))
        opt = Adam([p])
        opt.step()  # no grad yet: no crash, no change
        np.testing.assert_allclose(p.data, 1.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-1.0)


class TestRBF:
    def test_output_shape(self):
        rbf = RBFExpansion(num_centers=8, cutoff=10.0)
        out = rbf(Tensor(np.linspace(0, 10, 5)))
        assert out.shape == (5, 8)

    def test_peak_at_center(self):
        rbf = RBFExpansion(num_centers=11, cutoff=10.0)
        out = rbf(Tensor(np.array([3.0])))
        assert np.argmax(out.data[0]) == 3  # center at 3.0

    def test_values_in_unit_interval(self):
        rbf = RBFExpansion(num_centers=8, cutoff=10.0)
        out = rbf(Tensor(np.array([0.0, 5.0, 20.0])))
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_gradient_flows(self):
        rbf = RBFExpansion(num_centers=4, cutoff=5.0)
        d = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        rbf(d).sum().backward()
        assert d.grad is not None and np.abs(d.grad).sum() > 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RBFExpansion(num_centers=1)
        with pytest.raises(ValueError):
            RBFExpansion(cutoff=-1.0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            RBFExpansion()(Tensor(np.ones((2, 2))))


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        mlp = MLP([3, 5, 2], rng)
        path = tmp_path / "weights.npz"
        save_state(mlp, path)
        clone = MLP([3, 5, 2], np.random.default_rng(99))
        load_state(clone, path)
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(mlp(x).data, clone(x).data)

    def test_shape_mismatch_raises(self, rng, tmp_path):
        mlp = MLP([3, 5, 2], rng)
        path = tmp_path / "weights.npz"
        save_state(mlp, path)
        other = MLP([3, 6, 2], rng)
        with pytest.raises(ValueError):
            load_state(other, path)

    def test_architecture_mismatch_raises(self, rng, tmp_path):
        mlp = MLP([3, 5, 2], rng)
        path = tmp_path / "weights.npz"
        save_state(mlp, path)
        other = MLP([3, 5, 5, 2], rng)
        with pytest.raises(ValueError):
            load_state(other, path)

    def test_load_closes_archive(self, rng, tmp_path, monkeypatch):
        """Regression: load_state used to leak the NpzFile handle."""
        mlp = MLP([3, 5, 2], rng)
        path = tmp_path / "weights.npz"
        save_state(mlp, path)
        opened = []
        real_load = np.load

        def spying_load(*args, **kwargs):
            archive = real_load(*args, **kwargs)
            opened.append(archive)
            return archive

        monkeypatch.setattr(np, "load", spying_load)
        load_state(MLP([3, 5, 2], rng), path)
        assert len(opened) == 1
        assert opened[0].zip is None  # NpzFile.close() drops the zip

    def test_missing_file_names_both_paths(self, rng, tmp_path):
        """Regression: the .npz fallback used to mask missing files."""
        target = tmp_path / "absent"
        with pytest.raises(FileNotFoundError) as exc_info:
            load_state(MLP([3, 5, 2], rng), target)
        message = str(exc_info.value)
        assert str(target) in message
        assert f"{target}.npz" in message

    def test_missing_npz_path_names_only_itself(self, rng, tmp_path):
        target = tmp_path / "absent.npz"
        with pytest.raises(FileNotFoundError) as exc_info:
            load_state(MLP([3, 5, 2], rng), target)
        message = str(exc_info.value)
        assert str(target) in message
        assert "(or" not in message  # no pointless double-suffix fallback

    def test_suffix_fallback_still_loads(self, rng, tmp_path):
        mlp = MLP([3, 5, 2], rng)
        stem = tmp_path / "weights"
        save_state(mlp, stem)  # np.savez appends .npz
        assert not stem.exists() and stem.with_suffix(".npz").exists()
        clone = MLP([3, 5, 2], np.random.default_rng(7))
        load_state(clone, stem)
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(mlp(x).data, clone(x).data)
