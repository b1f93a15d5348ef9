"""Relaxation's C-only tape: ``repro.nn.frozen`` under the potential.

The contracts under test (see docs/PERFORMANCE.md, "Relaxation
forward-backward"):

* ``PotentialFunction.value_and_grad`` / ``value_and_grad_batch`` leave
  every model parameter's ``.grad`` exactly as it was — the model is
  fixed during relaxation (Eq. 7-8), so no weight gradient is computed;
* every ``requires_grad`` flag comes back after the frozen region, also
  when the forward inside it raises (Adam skips parameters whose grad is
  None, so a flag left off would silently stop training them);
* ``dV/dC`` under the frozen tape is bitwise the gradient the full tape
  (parameters live) computes, on every built-in OTA.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_benchmark, place_benchmark
from repro.core import PotentialFunction
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d, Gnn3dConfig
from repro.nn import Parameter, Tensor, frozen
from repro.router import RoutingGrid

SMALL = Gnn3dConfig(hidden=8, num_layers=2, rbf_centers=4, seed=3)


def small_model(graph) -> Gnn3d:
    return Gnn3d(graph.ap_features.shape[1],
                 graph.module_features.shape[1], config=SMALL)


def live_value_and_grad(pot: PotentialFunction, c_flat: np.ndarray):
    """The potential evaluated with the parameters on the tape."""
    c = Tensor(c_flat.reshape(pot.graph.num_aps, 3), requires_grad=True)
    pred = pot.model(pot.graph, c)
    total = ((pred * Tensor(pot.weights.as_signed_vector())).sum()
             + pot.barrier(c))
    total.backward()
    return total.item(), c.grad.reshape(-1)


def live_value_and_grad_batch(pot: PotentialFunction, c_batch: np.ndarray):
    batch = len(c_batch)
    c = Tensor(c_batch.reshape(batch, pot.graph.num_aps, 3),
               requires_grad=True)
    pred = pot.model.forward_batch(pot.graph, c)
    w = np.tile(pot.weights.as_signed_vector(), (batch, 1))
    flat = c.reshape(batch, pot.num_variables)
    barrier = (flat.log() + (Tensor(np.array(pot.c_max)) - flat).log()
               ).sum(axis=1) * (-pot.barrier_r)
    total = (pred * Tensor(w)).sum(axis=1) + barrier
    total.sum().backward()
    return total.numpy(), c.grad.reshape(batch, pot.num_variables)


class TestFrozen:
    def test_flags_off_inside_and_restored_after(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(2))
        b.requires_grad = False  # a tensor already off stays off
        with frozen([a, b]):
            assert not a.requires_grad and not b.requires_grad
            x = Tensor(np.ones(2), requires_grad=True)
            y = (x * a + b).sum()
            y.backward()
        assert a.requires_grad and not b.requires_grad
        assert a.grad is None and b.grad is None
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_flags_restored_when_body_raises(self):
        params = [Parameter(np.ones(3)) for _ in range(3)]
        with pytest.raises(ValueError):
            with frozen(params):
                raise ValueError("boom")
        assert all(p.requires_grad for p in params)


class TestPotentialTape:
    def test_evaluations_leave_parameter_grads_untouched(self, ota1_graph):
        """Regression: every evaluation accumulated unread weight
        gradients into the model's ``.grad``."""
        model = small_model(ota1_graph)
        params = model.parameters()
        params[0].grad = np.full(params[0].shape, 0.25)
        before = [None if p.grad is None else p.grad.copy() for p in params]
        pot = PotentialFunction(model, ota1_graph)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, size=(3, pot.num_variables))
        pot.value_and_grad(x[0])
        pot.value_and_grad_batch(x)
        for param, grad in zip(params, before):
            assert param.requires_grad
            if grad is None:
                assert param.grad is None
            else:
                assert np.array_equal(param.grad, grad)

    @pytest.mark.parametrize("batched", [False, True])
    def test_flags_restored_when_forward_raises(self, ota1_graph, batched):
        """A forward that fails inside the frozen region (here a model
        built for other feature widths) must not leave parameters off the
        tape for later training."""
        model = Gnn3d(ota1_graph.ap_features.shape[1] + 1,
                      ota1_graph.module_features.shape[1], config=SMALL)
        pot = PotentialFunction(model, ota1_graph)
        x = np.ones((2, pot.num_variables))
        with pytest.raises(ValueError):
            if batched:
                pot.value_and_grad_batch(x)
            else:
                pot.value_and_grad(x[0])
        assert all(p.requires_grad for p in model.parameters())

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_frozen_grad_bitwise_equals_live(self, name, tech):
        circuit = build_benchmark(name)
        placement = place_benchmark(circuit, variant="A", seed=0,
                                    iterations=60)
        graph = build_hetero_graph(RoutingGrid(placement, tech))
        model = small_model(graph)
        pot = PotentialFunction(model, graph)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.3, 3.0, size=(3, pot.num_variables))
        for row in x:
            value, grad = pot.value_and_grad(row)
            live_value, live_grad = live_value_and_grad(pot, row)
            assert value == live_value
            assert np.array_equal(grad.view(np.int64),
                                  live_grad.view(np.int64))
        values, grads = pot.value_and_grad_batch(x)
        live_values, live_grads = live_value_and_grad_batch(pot, x)
        assert np.array_equal(values, live_values)
        assert np.array_equal(grads.view(np.int64),
                              live_grads.view(np.int64))
