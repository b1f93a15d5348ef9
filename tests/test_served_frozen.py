"""Served scores run the frozen forward: the model's weights held fixed.

``ScoringService`` scores every wave tape-free under
:class:`repro.nn.frozen` over the model's parameters, so the forward
reads the values that do not depend on the guidance from its plans.
The contracts under test (see docs/SERVING.md, "Scoring service"):

* served scores are bitwise a tape-free ``forward_batch`` with live
  weights, on OTA1-3, in float64 and float32, for waves of 1 to
  ``TAPE_FREE_UNION + 3`` candidates;
* across waves, the node embeddings and layer 1's source rows are
  computed once per union plan;
* after an in-place edit or a ``load_state`` of a registered model's
  weights, the next wave scores bit for bit like a fresh model;
* a registered model keeps its ``requires_grad`` flags and gets no
  gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as functional
from repro import build_benchmark, place_benchmark
from repro.graph import build_hetero_graph
from repro.model.gnn3d import TAPE_FREE_UNION, Gnn3d
from repro.nn import Tensor, load_state, no_grad, save_state
from repro.router import RoutingGrid
from repro.serve import ScoreRequest, ScoringService, ServeConfig

DTYPES = (np.float64, np.float32)


@pytest.fixture(scope="module")
def ota_graphs(tech):
    graphs = {}
    for name in ("OTA1", "OTA2", "OTA3"):
        placement = place_benchmark(build_benchmark(name), variant="A",
                                    seed=0, iterations=60)
        graphs[name] = build_hetero_graph(RoutingGrid(placement, tech))
    return graphs


def model_for(graph, seed=0) -> Gnn3d:
    model = Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1])
    if seed:
        rng = np.random.default_rng(seed)
        for param in model.parameters():
            param.data = param.data + rng.normal(0.0, 0.05, param.data.shape)
    return model


def candidates(graph, batch, seed) -> np.ndarray:
    return np.random.default_rng(seed).uniform(
        0.3, 3.7, size=(batch, graph.num_aps, 3))


def serve(service, guidance) -> np.ndarray:
    """One wave of ``guidance``, scored; the (B, 5) metric rows."""
    for candidate in guidance:
        service.submit(ScoreRequest("g", candidate))
    results = service.flush()
    assert [r.status for r in results] == ["ok"] * len(guidance)
    return np.stack([r.metrics for r in results])


def live(model, graph, guidance) -> np.ndarray:
    """The tape-free forward with the weights left requiring grad."""
    params = model.parameters()
    assert all(p.requires_grad for p in params)
    with no_grad():
        return model.forward_batch(
            graph, Tensor(guidance.astype(params[0].data.dtype))).data


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestServedScoresAreLiveScores:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_every_wave_size(self, name, dtype, ota_graphs):
        graph = ota_graphs[name]
        model = model_for(graph, seed=1)
        precision = np.dtype(dtype).name
        for batch in range(1, TAPE_FREE_UNION + 4):
            service = ScoringService(ServeConfig(max_batch=batch))
            service.register("g", model, graph, precision=precision)
            for seed in (batch, batch + 100):  # built, then reused
                guidance = candidates(graph, batch, seed)
                assert_bitwise(serve(service, guidance),
                               live(model, graph, guidance))


class TestFrozenValues:
    def test_embeddings_and_layer1_sources_run_once_per_union_plan(
            self, ota_graphs, monkeypatch):
        graph = ota_graphs["OTA1"]
        model = model_for(graph, seed=2)
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

        service = ScoringService(ServeConfig(max_batch=16))
        service.register("g", model, graph)
        waves = [16, 16, 6, 16, 6]
        for i, batch in enumerate(waves):
            serve(service, candidates(graph, batch, seed=i))
        # Waves of 16 run four unions of 4, waves of 6 a union of 4 and
        # one of 2: two block plans.
        plans = {id(p): p for batch in set(waves) for p in
                 model.cache.union_plan(graph, batch,
                                        TAPE_FREE_UNION).plans}
        assert sorted(p.batch for p in plans.values()) == [2, 4]
        assert embeds == {"ap": 2, "module": 2}
        firsts = [p.frozen.h0.data for p in plans.values()]
        assert [sum(h is h0 for h in inputs) for h0 in firsts] == [1, 1]
        blocks = sum(-(-batch // TAPE_FREE_UNION) for batch in waves)
        # Layers 2 and 3 of every block of every wave.
        assert len(inputs) == len(plans) + 2 * blocks

    @pytest.mark.parametrize("change", ["in_place", "load_state"])
    def test_scores_follow_the_weights(self, change, ota_graphs, tmp_path):
        graph = ota_graphs["OTA1"]
        model = model_for(graph, seed=3)
        service = ScoringService(ServeConfig(max_batch=6))
        service.register("g", model, graph)
        guidance = candidates(graph, 6, seed=5)
        before = serve(service, guidance)
        single = serve(service, guidance[:1])
        if change == "in_place":
            model.ap_embed.layers[0].weight.data[0, 0] += 0.25
        else:
            save_state(model_for(graph, seed=4), tmp_path / "w.npz")
            load_state(model, tmp_path / "w.npz")
        fresh = Gnn3d(graph.ap_features.shape[1],
                      graph.module_features.shape[1])
        for mine, theirs in zip(fresh.parameters(), model.parameters()):
            mine.data = theirs.data.copy()
        after = serve(service, guidance)
        single_after = serve(service, guidance[:1])
        assert_bitwise(after, live(fresh, graph, guidance))
        assert_bitwise(single_after, live(fresh, graph, guidance[:1]))
        assert before.tobytes() != after.tobytes()
        assert single.tobytes() != single_after.tobytes()


class TestModelFlags:
    def test_register_keeps_requires_grad_flags(self, ota_graphs):
        graph = ota_graphs["OTA1"]
        model = model_for(graph)
        params = model.parameters()
        params[0].requires_grad = False
        flags = [p.requires_grad for p in params]
        service = ScoringService(ServeConfig(max_batch=4))
        service.register("g", model, graph)
        serve(service, candidates(graph, 4, seed=6))
        serve(service, candidates(graph, 1, seed=7))
        assert [p.requires_grad for p in params] == flags
        assert all(p.grad is None for p in params)
