"""Frozen evaluations reuse what the guidance does not change, and taped
forwards write into buffers their plan owns.

The contracts under test (see docs/PERFORMANCE.md, "Relaxation
forward-backward"):

* over one ``PotentialRelaxer.run`` the node embeddings and layer 1's
  source product run once per block plan, not once per evaluation;
* the frozen values follow the weights: after an Adam step, a
  ``load_state`` or an edit in place, an evaluation equals a freshly
  built potential's bit for bit;
* a warmed OTA1 B=6 ``value_and_grad_batch`` allocates at most
  :data:`EVAL_PEAK_BYTES` above resting memory;
* a set lives as long as its lease: taped forwards alive at once on
  one plan hold buffer sets of their own, a set is reused once its tape
  is dropped and never while the tape lives, even after its backward,
  and a second backward through a live tape reads intact buffers;
* freeing rests on reference counts alone: with ``gc`` disabled, a fit
  leaves one set on the B=1 plan and a default relaxation three on the
  B=2 plan;
* B=6 gradients at block 2 equal fresh per-block evaluations bitwise.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

import repro.nn.functional as functional
from repro import build_benchmark, place_benchmark
from repro.core import PotentialFunction, PotentialRelaxer, RelaxationConfig
from repro.graph import build_hetero_graph
from repro.model import TrainConfig, Trainer, TrainSample
from repro.model.gnn3d import DEFAULT_CACHE_BLOCK, Gnn3d
from repro.nn import (
    Adam,
    PlanBuffers,
    Tensor,
    load_state,
    no_grad,
    save_state,
)
from repro.router import RoutingGrid

#: Most bytes a warmed OTA1 B=6 ``value_and_grad_batch`` may allocate
#: above resting memory (tracemalloc's peak): a fifth of 11.2 MB.  The
#: same call peaked at 11.5 MB while every taped array was allocated
#: afresh, and reads about 1.3 MB with the arrays in plan-owned buffers.
EVAL_PEAK_BYTES = 11.2e6 / 5


@pytest.fixture(scope="module")
def graph(tech):
    placement = place_benchmark(build_benchmark("OTA1"), variant="A", seed=0)
    return build_hetero_graph(RoutingGrid(placement, tech))


def model_for(graph, seed=0) -> Gnn3d:
    model = Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1])
    if seed:
        rng = np.random.default_rng(seed)
        for param in model.parameters():
            param.data = param.data + rng.normal(0.0, 0.05, param.data.shape)
    return model


def copy_of(model, graph) -> Gnn3d:
    """A fresh model (and forward cache) with ``model``'s weights."""
    fresh = model_for(graph)
    for mine, theirs in zip(fresh.parameters(), model.parameters()):
        mine.data = theirs.data.copy()
    return fresh


def wave(graph, batch=6, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(
        0.5, 2.0, size=(batch, graph.num_aps * 3))


def assert_bitwise(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(map(np.asarray, a), map(np.asarray, b)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestFrozenValues:
    def test_embeddings_and_layer1_sources_run_once_per_block_plan(
            self, graph, monkeypatch):
        model = model_for(graph, seed=1)
        embeds = {"ap": 0, "module": 0}
        for name, mlp in (("ap", model.ap_embed),
                          ("module", model.module_embed)):
            def counted(x, name=name, forward=mlp.forward):
                embeds[name] += 1
                return forward(x)
            monkeypatch.setattr(mlp, "forward", counted)
        inputs = []  # the node rows of every source product
        source_rows = functional._source_rows

        def counted_rows(h, *args, **kwargs):
            inputs.append(h)
            return source_rows(h, *args, **kwargs)
        monkeypatch.setattr(functional, "_source_rows", counted_rows)

        potential = PotentialFunction(model, graph)
        PotentialRelaxer(RelaxationConfig(maxiter=8, seed=3)).run(potential)
        plans = model.cache.union_plan(graph, 6, DEFAULT_CACHE_BLOCK).plans
        assert len(plans) == 3 and len(set(map(id, plans))) == 1
        evals = potential.stats.batched_evals
        assert evals > 10
        assert embeds == {"ap": 1, "module": 1}
        h0 = plans[0].frozen.h0.data
        assert sum(h is h0 for h in inputs) == 1
        # Layers 2 and 3 of every block of every evaluation.
        assert len(inputs) == 1 + 2 * len(plans) * evals

    @pytest.mark.parametrize("change", ["adam", "load_state", "in_place"])
    def test_values_follow_the_weights(self, graph, change, tmp_path):
        model = model_for(graph, seed=2)
        potential = PotentialFunction(model, graph)
        points = wave(graph, seed=4)
        before = potential.value_and_grad_batch(points)
        single = potential.value_and_grad(points[0])
        if change == "adam":
            c = Tensor(points[0].reshape(graph.num_aps, 3))
            model(graph, c).sum().backward()
            Adam(model.parameters(), lr=1e-2).step()
        elif change == "load_state":
            save_state(model_for(graph, seed=5), tmp_path / "w.npz")
            load_state(model, tmp_path / "w.npz")
        else:
            model.ap_embed.layers[0].weight.data[0, 0] += 0.25
        after = potential.value_and_grad_batch(points)
        fresh = PotentialFunction(copy_of(model, graph), graph)
        assert_bitwise(after, fresh.value_and_grad_batch(points))
        assert_bitwise(potential.value_and_grad(points[0]),
                       fresh.value_and_grad(points[0]))
        assert before[0].tobytes() != after[0].tobytes()
        assert single[1].tobytes() != fresh.value_and_grad(
            points[0])[1].tobytes()


class TestTapeBuffers:
    def test_warmed_evaluation_peak_allocation(self, graph):
        potential = PotentialFunction(model_for(graph, seed=1), graph)
        points = wave(graph)
        for _ in range(3):
            potential.value_and_grad_batch(points)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            potential.value_and_grad_batch(points)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= EVAL_PEAK_BYTES, f"peak {peak / 1e6:.2f} MB"

    def test_tapes_alive_at_once_keep_their_own_buffers(self, graph):
        model = model_for(graph, seed=3)
        plan = model.cache.batched(graph, 2)
        guidance = [wave(graph, 2, seed=s).reshape(2, graph.num_aps, 3)
                    for s in (8, 9)]
        cs = [Tensor(g, requires_grad=True) for g in guidance]
        outs = [model.forward_batch(graph, c) for c in cs]
        assert len(plan.buffers._sets) == 2
        values = [out.data.copy() for out in outs]
        for out in reversed(outs):
            out.sum().backward()
        for g, c, value in zip(guidance, cs, values):
            fresh_c = Tensor(g, requires_grad=True)
            fresh = copy_of(model, graph).forward_batch(graph, fresh_c)
            fresh.sum().backward()
            assert_bitwise([value, c.grad], [fresh.data, fresh_c.grad])

    def test_a_set_is_reused_once_its_tape_is_dropped(self, graph):
        model = model_for(graph, seed=4)
        plan = model.cache.batched(graph, 2)
        guidance = wave(graph, 2, seed=10).reshape(2, graph.num_aps, 3)

        def arrays():
            return [[id(a) for a in s.arrays._buffers.values()]
                    for s in plan.buffers._sets]

        def forward():
            return model.forward_batch(
                graph, Tensor(guidance, requires_grad=True))

        out = forward()
        first = arrays()
        del out  # dropped without a backward
        out = forward()
        assert arrays() == first
        out.sum().backward()
        # The backward adds one array: the distance features' gradient.
        after_backward = arrays()
        assert len(after_backward) == 1
        assert after_backward[0][:-1] == first[0]
        # After its backward the tape still holds its set: the next
        # forward, taped or tape-free, gets a set of its own.
        forward().sum().backward()
        with no_grad():
            model.forward_batch(graph, Tensor(guidance))
        assert len(plan.buffers._sets) == 2
        assert arrays()[0] == after_backward[0]
        del out
        forward().sum().backward()
        assert len(plan.buffers._sets) == 2
        assert arrays()[0] == after_backward[0]

    def test_a_second_backward_through_a_live_tape(self, graph,
                                                   monkeypatch):
        """Two backwards through one tape, with taped and tape-free
        forwards on the same plan between them, give what the same
        calls give with the buffer store disabled."""
        model = model_for(graph, seed=4)
        guidance = wave(graph, 2, seed=11).reshape(2, graph.num_aps, 3)
        other = wave(graph, 2, seed=12).reshape(2, graph.num_aps, 3)

        def two_backwards(model):
            c = Tensor(guidance, requires_grad=True)
            total = model.forward_batch(graph, c).sum()
            total.backward()
            model.forward_batch(
                graph, Tensor(other, requires_grad=True)).sum().backward()
            with no_grad():
                model.forward_batch(graph, Tensor(other))
            total.backward()
            return [c.grad] + [p.grad for p in model.parameters()]

        buffered = two_backwards(copy_of(model, graph))
        monkeypatch.setattr(PlanBuffers, "lease", lambda self: None)
        assert_bitwise(buffered, two_backwards(copy_of(model, graph)))

    def test_sets_rest_on_reference_counts(self, graph):
        """With ``gc`` disabled, a 12-sample fit (each sample's tape
        ends when its backward returns) leaves one set on the B=1 plan,
        and a default relaxation three on the B=2 plan."""
        model = model_for(graph, seed=6)
        rng = np.random.default_rng(6)
        samples = [TrainSample(rng.uniform(0.5, 2.0, (graph.num_aps, 3)),
                               rng.normal(size=5)) for _ in range(12)]
        gc.collect()
        gc.disable()
        try:
            Trainer(model, graph, TrainConfig(epochs=3)).fit(samples)
            assert len(model.cache.batched(graph, 1).buffers._sets) == 1
            PotentialRelaxer(RelaxationConfig(seed=3)).run(
                PotentialFunction(model, graph))
            assert len(model.cache.batched(graph, 2).buffers._sets) == 3
        finally:
            gc.enable()

    def test_wave_gradients_equal_fresh_per_block_evaluations(self, graph):
        model = model_for(graph, seed=5)
        potential = PotentialFunction(model, graph)
        for seed in (12, 13):  # the second runs on reused buffers
            points = wave(graph, seed=seed)
            values, grads = potential.value_and_grad_batch(points)
            for start in range(0, 6, DEFAULT_CACHE_BLOCK):
                rows = slice(start, start + DEFAULT_CACHE_BLOCK)
                fresh = PotentialFunction(copy_of(model, graph), graph)
                assert_bitwise([values[rows], grads[rows]],
                               fresh.value_and_grad_batch(points[rows]))
