"""Tape-free forwards write into plan-owned buffers: the workspace contract.

With the tape off, ``cost_distance``, ``rbf_expand`` and
``message_layer`` write their per-edge and per-slot arrays into the
:class:`repro.nn.Workspace` of the plan they run on, and
``Gnn3d.forward_batch`` runs up to ``TAPE_FREE_UNION`` candidates as one
union.  The contracts under test (see docs/PERFORMANCE.md, "Tape-free
unions"):

* tape-free outputs are bitwise the taped forward's, on OTA1-3, in
  float64 and float32, at every batch size, as one union and at
  ``block=2``, and on random graphs under every ``Gnn3dConfig`` flag
  (four layers alternate the layer output between two buffers);
* a returned row is a fresh array: a later call, with other guidance,
  on another graph, dtype or batch size, leaves it unchanged, and the
  results equal a fresh model's;
* the float32 cast of a plan has its own workspace, and a taped forward
  writes no buffer;
* served scores at ``max_batch=16`` are bitwise the tape-free forward's
  in blocks of two candidates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import build_benchmark, place_benchmark
from repro.graph import build_hetero_graph
from repro.model.gnn3d import TAPE_FREE_UNION, Gnn3d, Gnn3dConfig
from repro.nn import (
    Tensor,
    Workspace,
    cost_distance,
    message_layer,
    no_grad,
    rbf_expand,
)
from repro.perf.cache import build_batched
from repro.router import RoutingGrid
from repro.serve import ScoreRequest, ScoringService, ServeConfig

from tests.test_forward_blocking import AP_DIM, MODULE_DIM, synthetic_graph

DTYPES = (np.float64, np.float32)


@pytest.fixture(scope="module")
def ota_graphs(tech):
    graphs = {}
    for name in ("OTA1", "OTA2", "OTA3"):
        placement = place_benchmark(build_benchmark(name), variant="A",
                                    seed=0, iterations=60)
        graphs[name] = build_hetero_graph(RoutingGrid(placement, tech))
    return graphs


def model_for(graph, dtype=np.float64, config=None) -> Gnn3d:
    model = Gnn3d(graph.ap_features.shape[1],
                  graph.module_features.shape[1], config=config)
    return model.to_dtype(dtype) if dtype != np.float64 else model


def candidates(graph, batch, seed, dtype=np.float64) -> np.ndarray:
    return np.random.default_rng(seed).uniform(
        0.3, 3.7, size=(batch, graph.num_aps, 3)).astype(dtype)


def tape_free(model, graph, guidance, block=None) -> np.ndarray:
    with no_grad():
        out = model.forward_batch(graph, Tensor(guidance), block=block)
    return out.data


def workspace_buffers(model) -> list[np.ndarray]:
    """Every workspace buffer of every plan (and cast) in the model's
    forward cache."""
    buffers = []
    for entry in model.cache._entries.values():
        for plan in entry.batched.values():
            for owner in (plan, *plan._casts.values()):
                buffers += owner.workspace._buffers.values()
    return buffers


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestTapeFreeMatchesTaped:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_every_batch_and_block(self, name, dtype, ota_graphs):
        graph = ota_graphs[name]
        model = model_for(graph, dtype)
        for batch in (1, 3, 16):
            guidance = candidates(graph, batch, seed=batch, dtype=dtype)
            taped = model.forward_batch(graph, Tensor(guidance))
            assert taped.requires_grad
            assert_bitwise(tape_free(model, graph, guidance), taped.data)
            assert_bitwise(tape_free(model, graph, guidance, block=2),
                           taped.data)
        single = candidates(graph, 1, seed=5, dtype=dtype)[0]
        with no_grad():
            free = model(graph, Tensor(single)).data
        assert_bitwise(free, model(graph, Tensor(single)).data)

    def test_larger_batches_run_in_unions_of_the_cap(self, ota_graphs):
        graph = ota_graphs["OTA1"]
        model = model_for(graph)
        batch = TAPE_FREE_UNION + 4
        guidance = candidates(graph, batch, seed=3)
        out = tape_free(model, graph, guidance)
        plan = model.cache.union_plan(graph, batch, TAPE_FREE_UNION)
        assert [p.batch for p in plan.plans] == [TAPE_FREE_UNION, 4]
        assert_bitwise(out, model.forward_batch(graph,
                                                Tensor(guidance)).data)

    @given(num_aps=st.integers(1, 8), num_modules=st.integers(0, 4),
           batch=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
           num_layers=st.sampled_from([1, 2, 4]), use_rbf=st.booleans(),
           use_cost_distance=st.booleans(), heterogeneous=st.booleans(),
           dtype=st.sampled_from(DTYPES))
    @settings(deadline=None, max_examples=60)
    def test_random_graphs_under_every_flag(self, num_aps, num_modules,
                                            batch, seed, num_layers,
                                            use_rbf, use_cost_distance,
                                            heterogeneous, dtype):
        graph = synthetic_graph(num_aps, num_modules, seed)
        config = Gnn3dConfig(hidden=4, num_layers=num_layers,
                             rbf_centers=4, use_rbf=use_rbf,
                             use_cost_distance=use_cost_distance,
                             heterogeneous=heterogeneous, seed=seed % 7)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=config).to_dtype(dtype)
        guidance = candidates(graph, batch, seed, dtype)
        # At equal block sizes: on a graph this small a block of one
        # replica can hold one node or one edge of a type, whose
        # one-row products BLAS rounds apart from the same row inside a
        # larger union.
        for block in (batch, 2):
            taped = model.forward_batch(graph, Tensor(guidance),
                                        block=block).data
            # Twice: the second call runs on buffers the first filled.
            for _ in range(2):
                assert_bitwise(tape_free(model, graph, guidance, block),
                               taped)
        # The default tape-free call runs unions of TAPE_FREE_UNION.
        assert_bitwise(tape_free(model, graph, guidance),
                       tape_free(model, graph, guidance,
                                 block=TAPE_FREE_UNION))


class TestReturnedRowsAreFresh:
    def test_first_result_survives_a_second_call(self, ota_graphs):
        graph = ota_graphs["OTA1"]
        model = model_for(graph)
        first_guidance = candidates(graph, 16, seed=1)
        first = tape_free(model, graph, first_guidance)
        kept = first.copy()
        second = tape_free(model, graph, candidates(graph, 16, seed=2))
        assert not np.array_equal(first, second)
        assert_bitwise(first, kept)
        for buf in workspace_buffers(model):
            assert not np.shares_memory(first, buf)
            assert not np.shares_memory(second, buf)

    def test_interleaved_calls_match_fresh_models(self, ota_graphs):
        """Graphs, dtypes and batch sizes interleaved on one model (one
        per dtype) give what a fresh model gives for each call alone,
        and no call changes an earlier result."""
        models = {dtype: model_for(ota_graphs["OTA1"], dtype)
                  for dtype in DTYPES}
        calls = [("OTA1", np.float64, 16), ("OTA3", np.float32, 3),
                 ("OTA1", np.float32, 16), ("OTA2", np.float64, 1),
                 ("OTA3", np.float64, 16), ("OTA1", np.float64, 5),
                 ("OTA3", np.float32, 16), ("OTA1", np.float64, 16)]
        results = []
        for i, (name, dtype, batch) in enumerate(calls):
            graph = ota_graphs[name]
            guidance = candidates(graph, batch, seed=i, dtype=dtype)
            out = tape_free(models[dtype], graph, guidance)
            fresh = tape_free(model_for(graph, dtype), graph, guidance)
            assert_bitwise(out, fresh)
            results.append((out, fresh))
        for out, fresh in results:
            assert_bitwise(out, fresh)


class TestWorkspaceOwnership:
    def test_cast_plan_has_its_own_workspace(self, ota_graphs):
        plan = build_batched(ota_graphs["OTA1"], 2)
        cast = plan.as_dtype(np.float32)
        assert cast.workspace is not plan.workspace
        assert plan.as_dtype(np.float32) is cast
        assert plan.as_dtype(np.float64) is plan

    def test_buffers_are_keyed_by_name_and_dtype(self):
        workspace = Workspace()
        a = workspace.buffer("x", (4, 2), np.float64)
        assert workspace.buffer("x", (4, 2), np.float64) is a
        b = workspace.buffer("x", (4, 2), np.float32)
        assert b is not a and b.dtype == np.float32
        assert workspace.buffer("x", (4, 2), np.float64) is a
        c = workspace.buffer("x", (5, 2), np.float64)
        assert c.shape == (5, 2)

    def test_taped_forward_writes_no_buffer(self, ota_graphs):
        graph = ota_graphs["OTA1"]
        model = model_for(graph)
        model.forward_batch(graph, Tensor(candidates(graph, 4, seed=1)))
        assert workspace_buffers(model) == []
        tape_free(model, graph, candidates(graph, 4, seed=1))
        assert workspace_buffers(model) != []

    @pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
    def test_ops_with_a_workspace_match_ops_without(self, dtype):
        graph = synthetic_graph(7, 3, seed=21)
        plan = build_batched(graph, 3).as_dtype(dtype)
        rng = np.random.default_rng(21)
        guidance = Tensor(rng.uniform(0.2, 3.0, (plan.num_nodes, 3))
                          .astype(dtype))
        hidden, num_types = 3, len(plan.edge_types)
        h = Tensor(rng.uniform(-2, 2, (plan.num_nodes, hidden))
                   .astype(dtype))
        weights = [[Tensor(rng.uniform(-2, 2, shape).astype(dtype))
                    for shape in ((hidden, hidden), (hidden,), (4, hidden),
                                  (hidden,), (hidden, hidden), (hidden,))]
                   for _ in range(num_types)]
        centers = np.linspace(0.0, 30.0, 4).astype(dtype)

        def run(workspace):
            with no_grad():
                dist = cost_distance(guidance, plan.receivers, plan.deltas,
                                     workspace=workspace)
                psi = rbf_expand(dist, centers, 0.02, workspace=workspace)
                out = h
                layers = []
                for _ in range(3):
                    out = message_layer(out, psi, plan.src_slots,
                                        plan.dst_slots, plan.in_degree,
                                        plan.edge_offsets, weights,
                                        workspace=workspace)
                    layers.append(out.data.copy())
            return [dist.data.copy(), psi.data.copy(), *layers]

        workspace = Workspace()
        for _ in range(2):
            for with_ws, without in zip(run(workspace), run(None)):
                assert_bitwise(with_ws, without)


class TestServedScores:
    def test_served_wave_matches_two_candidate_blocks(self, ota_graphs):
        graph = ota_graphs["OTA1"]
        model = model_for(graph)
        guidance = candidates(graph, 32, seed=17)
        service = ScoringService(ServeConfig(max_batch=16))
        service.register("g", model, graph)
        results = list(service.score_stream(
            ScoreRequest("g", c) for c in guidance))
        assert {r.status for r in results} == {"ok"}
        assert {r.batch_size for r in results} == {16}
        pairs = np.concatenate([
            tape_free(model, graph, guidance[start:start + 16], block=2)
            for start in (0, 16)])
        for result, row in zip(results, pairs):
            assert_bitwise(result.metrics, row)

    def test_float32_endpoint_matches_taped_float32(self, ota_graphs):
        graph = ota_graphs["OTA3"]
        model = model_for(graph)
        guidance = candidates(graph, 16, seed=4)
        service = ScoringService(ServeConfig(max_batch=16))
        service.register("g", model, graph, precision="float32")
        results = list(service.score_stream(
            ScoreRequest("g", c) for c in guidance))
        taped = model_for(graph, np.float32).forward_batch(
            graph, Tensor(guidance.astype(np.float32))).data
        for row, result in zip(taped, results):
            assert_bitwise(result.metrics, row)
