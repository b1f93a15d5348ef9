"""Fused 3DGNN ops: bitwise parity with their op-by-op composition.

``repro.nn.cost_distance`` (Eq. 1), ``repro.nn.rbf_expand`` (Eq. 2-3)
and ``repro.nn.message_layer`` (one message-passing layer: Eq. 5 over
every edge type, the aggregation at receivers and the residual) each
record one tape node.  Two oracles stand against them.  The contracts
under test (see docs/PERFORMANCE.md, "Relaxation forward-backward"):

* each fused op's output and every gradient equal its op-by-op
  composition's bitwise, in float64 and float32, on the full tape,
  under ``frozen`` and under ``no_grad``, over random graphs with empty
  edge types, no modules, repeated ids and shared weights.  For
  ``message_layer`` that composition is the node-level algebra the op
  implements: the source affines on node rows, one gather of sender
  slots, one aggregation into receiver slots, the output affines after
  it;
* a model whose ops run those compositions computes bitwise the same
  ``value_and_grad``, ``value_and_grad_batch``, trained weights and
  float32 served scores on OTA1-3, and the same potential and
  live-tape gradients on random graphs under every config flag;
* against the edge-level composition the model ran before the fusion
  (Eq. 5's three affines on every edge, one segment sum per edge
  type), which sums in another order, the same quantities agree within
  1e-10 in float64 and ``FLOAT32_PARITY_RTOL`` in float32;
* the first gradient ``Tensor._accumulate`` writes has the bits of
  zeros-then-add, ``-0.0``, casts and broadcasts included;
* one OTA1 potential evaluation records at most 24 tape nodes and runs
  at most 7 scatter (CSR) products.

The op-level checks take their scatters and deltas from the one-replica
plan a single-candidate forward runs on.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.model.gnn3d as gnn3d_mod
import repro.nn.rbf as rbf_mod
from repro import build_benchmark, place_benchmark
from repro.core import PotentialFunction
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d, Gnn3dConfig
from repro.model.training import TrainConfig, Trainer, TrainSample
from repro.nn import (
    Parameter,
    Scatter,
    Tensor,
    concat,
    cost_distance,
    frozen,
    message_layer,
    no_grad,
    rbf_expand,
    segment_sum,
    stack,
)
from repro.perf.cache import build_batched
from repro.router import RoutingGrid
from repro.serve import FLOAT32_PARITY_RTOL, ScoreRequest, ScoringService

from tests.evaluation_shape import evaluation_shape
from tests.test_forward_blocking import synthetic_graph

MODES = ("tape", "frozen", "no_grad")
DTYPES = (np.float64, np.float32)

#: Random-graph model: three layers, so a distance feature's gradient
#: sums three layer terms and their order shows in the bits.
TINY = Gnn3dConfig(hidden=4, num_layers=3, rbf_centers=4, seed=5)

#: The float64 tolerance against the edge-level oracle: absolute up to
#: magnitude 1, relative past it (random graphs without the RBF bank
#: reach gradients of 1e5, where 1e-10 is below one ulp).
EDGE_LEVEL_TOL = 1e-10


# -- the op-by-op oracles ------------------------------------------------------


def oracle_cost_distance(guidance, receivers, deltas, workspace=None):
    c_recv = guidance.gather_rows(receivers)
    weighted = c_recv * Tensor(deltas)
    return ((weighted * weighted).sum(axis=1) + 1e-6).sqrt()


def oracle_rbf_expand(distances, centers, gamma, workspace=None):
    diff = distances.reshape(-1, 1) - Tensor(centers.reshape(1, -1))
    return ((diff * diff) * (-gamma)).exp()


def oracle_message_layer(h, psi, src_slots, dst_slots, in_degree, offsets,
                         weights, workspace=None):
    """``message_layer`` op by op: the bitwise oracle.  It allocates every
    array, so it ignores ``workspace``.

    ``messages + h`` lists the messages first, so the tape walk finishes
    the earlier layers before it enters this one and runs the layers
    last first, as the fused nodes run.
    """
    num_nodes, hidden = h.shape
    num_types = len(weights)
    w_src, b_src, w_dist, b_dist, w_out, b_out = zip(*weights)
    src_out = h.affine(concat(list(w_src), axis=1), concat(list(b_src), axis=0))
    gathered = src_out.reshape(num_nodes * num_types, hidden).gather_rows(
        src_slots)
    dist_out = concat([psi[lo:hi].affine(wd, bd) for lo, hi, wd, bd
                       in zip(offsets[:-1], offsets[1:], w_dist, b_dist)],
                      axis=0)
    summed = segment_sum(gathered * dist_out, dst_slots).reshape(
        num_nodes, num_types * hidden)
    messages = (summed @ concat(list(w_out), axis=0)
                + Tensor(in_degree) @ stack(list(b_out)))
    return messages + h


def oracle_message_sum(h, psi, src, dst, weights):
    """One edge type's Eq. 5 messages on every edge, summed at receivers."""
    w_src, b_src, w_dist, b_dist, w_out, b_out = weights
    gated = (h.gather_rows(src).affine(w_src, b_src)
             * psi.affine(w_dist, b_dist))
    return segment_sum(gated.affine(w_out, b_out), dst)


def edge_level_layer(h, psi, src_slots, dst_slots, in_degree, offsets,
                     weights, workspace=None):
    """``message_layer`` as the model ran it before the fusion: the
    semantic oracle, one edge-level :func:`oracle_message_sum` per edge
    type, summed in type order, plus the residual."""
    num_nodes, num_types = in_degree.shape
    total = None
    for t, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        src, dst = (Scatter(slots.ids[lo:hi] // num_types, num_nodes,
                            h.data.dtype) for slots in (src_slots, dst_slots))
        summed = oracle_message_sum(h, psi[lo:hi], src, dst, weights[t])
        total = summed if total is None else total + summed
    return h + total


@contextlib.contextmanager
def model_ops(layer=oracle_message_layer):
    """Every Gnn3d forward inside the block runs ``layer`` and, for the
    bitwise oracle, the op-by-op distance and RBF compositions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gnn3d_mod, "message_layer", layer)
        if layer is oracle_message_layer:
            patch.setattr(gnn3d_mod, "cost_distance", oracle_cost_distance)
            patch.setattr(rbf_mod, "rbf_expand", oracle_rbf_expand)
        yield


# -- op-level parity -----------------------------------------------------------


def run_op(op, arrays: dict, fixed: tuple, mode: str, grad_names, seed_grad):
    """Run ``op`` on leaf tensors built from ``arrays``; return the
    output and the ``.grad`` of every leaf (None where absent).

    ``grad_names`` are the leaves that require grad; under ``frozen``
    the ones named in ``fixed`` are held fixed, under ``no_grad`` the
    tape is off.
    """
    leaves = {}
    for name, arr in arrays.items():
        leaf = (Parameter(arr.copy()) if name in fixed
                else Tensor(arr.copy(), requires_grad=name in grad_names))
        leaves[name] = leaf
    if mode == "no_grad":
        with no_grad():
            out = op(leaves)
        assert not out.requires_grad
    elif mode == "frozen":
        with frozen([leaves[name] for name in fixed]):
            out = op(leaves)
            if out.requires_grad:
                out.backward(seed_grad)
    else:
        out = op(leaves)
        if out.requires_grad:
            out.backward(seed_grad)
    return out.data, {name: leaf.grad for name, leaf in leaves.items()}


def assert_bitwise(fused, oracle) -> None:
    out_f, grads_f = fused
    out_o, grads_o = oracle
    assert out_f.dtype == out_o.dtype
    assert out_f.shape == out_o.shape
    assert out_f.tobytes() == out_o.tobytes()
    for name, grad in grads_o.items():
        if grad is None:
            assert grads_f[name] is None, name
            continue
        assert grads_f[name].dtype == grad.dtype, name
        assert grads_f[name].tobytes() == grad.tobytes(), name


#: Eq. 5's weights of one edge type, in ``message_layer``'s order.
WEIGHT_NAMES = ("w_src", "b_src", "w_dist", "b_dist", "w_out", "b_out")


def layer_arrays(rng, dtype, num_nodes, num_edges, num_types, shared,
                 hidden=3, width=5) -> dict:
    """Inputs of one ``message_layer``: ``h``, ``psi`` and the weights
    of each edge type (one set for all types when ``shared``)."""
    def draw(*shape):
        return rng.uniform(-2.0, 2.0, size=shape).astype(dtype)

    arrays = {"h": draw(num_nodes, hidden), "psi": draw(num_edges, width)}
    for t in range(1 if shared else num_types):
        for name, shape in zip(WEIGHT_NAMES, (
                (hidden, hidden), (hidden,), (width, hidden), (hidden,),
                (hidden, hidden), (hidden,))):
            arrays[f"{name}{t}"] = draw(*shape)
    return arrays


def layer_op(layer, plan, shared):
    """``layer`` over ``plan``'s edges, on the leaves of
    :func:`layer_arrays`."""
    def op(t):
        weights = [[t[f"{name}{0 if shared else k}"] for name in WEIGHT_NAMES]
                   for k in range(len(plan.edge_types))]
        return layer(t["h"], t["psi"], plan.src_slots, plan.dst_slots,
                     plan.in_degree, plan.edge_offsets, weights)
    return op


class TestOpParity:
    @given(num_aps=st.integers(1, 8), num_modules=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16), mode=st.sampled_from(MODES),
           dtype=st.sampled_from(DTYPES), shared=st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_ops_match_oracles(self, num_aps, num_modules, seed, mode,
                               dtype, shared):
        """``shared`` gives every edge type the same weight tensors, as
        ``heterogeneous=False`` does."""
        graph = synthetic_graph(num_aps, num_modules, seed)
        plan = build_batched(graph, 1).as_dtype(dtype)
        rng = np.random.default_rng(seed)
        num_nodes, num_edges = graph.num_nodes, len(plan.receivers)
        centers = np.linspace(0.0, 30.0, 5).astype(dtype)
        receivers, deltas = plan.receivers, plan.deltas

        guidance = {"g": rng.uniform(0.2, 3.0, (num_nodes, 3)).astype(dtype)}
        seed_d = rng.uniform(-2.0, 2.0, num_edges).astype(dtype)
        fused = run_op(lambda t: cost_distance(t["g"], receivers, deltas),
                       guidance, (), mode, {"g"}, seed_d)
        oracle = run_op(
            lambda t: oracle_cost_distance(t["g"], receivers, deltas),
            guidance, (), mode, {"g"}, seed_d)
        assert_bitwise(fused, oracle)

        dist = {"d": rng.uniform(0.0, 40.0, num_edges).astype(dtype)}
        seed_psi = rng.uniform(-2.0, 2.0, (num_edges, 5)).astype(dtype)
        fused = run_op(lambda t: rbf_expand(t["d"], centers, 0.02),
                       dist, (), mode, {"d"}, seed_psi)
        oracle = run_op(lambda t: oracle_rbf_expand(t["d"], centers, 0.02),
                        dist, (), mode, {"d"}, seed_psi)
        assert_bitwise(fused, oracle)

        if not plan.edge_types:
            return
        arrays = layer_arrays(rng, dtype, num_nodes, num_edges,
                              len(plan.edge_types), shared)
        names = tuple(arrays)[2:]
        seed_h = rng.uniform(-2.0, 2.0, (num_nodes, 3)).astype(dtype)
        # The embeddings without a gradient, as in a frozen layer 1.
        for grad_names in ({"h", "psi"}, {"psi"}):
            fused = run_op(layer_op(message_layer, plan, shared), arrays,
                           names, mode, grad_names, seed_h)
            oracle = run_op(layer_op(oracle_message_layer, plan, shared),
                            arrays, names, mode, grad_names, seed_h)
            assert_bitwise(fused, oracle)

    def test_message_layer_rejects_mismatched_shapes(self):
        """Slot scatters or in-degrees over another node count, or edge
        counts that disagree, raise instead of gathering the wrong
        rows."""
        plan = build_batched(synthetic_graph(5, 2, 3), 1)
        num_types = len(plan.edge_types)
        num_nodes, num_edges = plan.num_nodes, len(plan.receivers)
        weights = [[Tensor(np.ones(shape)) for shape in
                    ((2, 2), (2,), (3, 2), (2,), (2, 2), (2,))]
                   ] * num_types

        def layer(rows, psi_rows, in_degree=plan.in_degree,
                  offsets=plan.edge_offsets):
            return message_layer(
                Tensor(np.ones((rows, 2))), Tensor(np.ones((psi_rows, 3))),
                plan.src_slots, plan.dst_slots, in_degree, offsets, weights)

        assert layer(num_nodes, num_edges).shape == (num_nodes, 2)
        for rows in (num_nodes + 1, num_nodes - 1):
            with pytest.raises(ValueError, match="slot scatters over"):
                layer(rows, num_edges)
        with pytest.raises(ValueError, match="slot scatters over"):
            layer(num_nodes, num_edges, in_degree=plan.in_degree[1:])
        with pytest.raises(ValueError, match="distance feature rows"):
            layer(num_nodes, num_edges + 1)
        with pytest.raises(ValueError, match="typed edges"):
            layer(num_nodes, num_edges, offsets=plan.edge_offsets - 1)


class TestAccumulate:
    @given(values=st.lists(st.sampled_from(
        [0.0, -0.0, 1.5, -2.25, 0.1, 1e-300, -3e38, float("inf")]),
        min_size=1, max_size=12), dtype=st.sampled_from(DTYPES),
        grad_dtype=st.sampled_from(DTYPES), rows=st.integers(0, 3))
    @settings(deadline=None, max_examples=60)
    def test_first_gradient_has_zeros_then_add_bits(self, values, dtype,
                                                    grad_dtype, rows):
        """Also when the gradient casts to the tensor's dtype or, with
        ``rows``, broadcasts one row into that many."""
        grad = np.array(values, dtype=grad_dtype)
        shape = (rows, len(values)) if rows else grad.shape
        expected = np.zeros(shape, dtype)
        expected += grad
        t = Tensor(np.ones(shape, dtype), requires_grad=True)
        t._accumulate(grad)
        assert t.grad.dtype == expected.dtype
        assert t.grad.tobytes() == expected.tobytes()
        assert t.grad is not grad and not np.shares_memory(t.grad, grad)
        assert t.grad.flags.c_contiguous

    def test_transposed_and_broadcast_gradients(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        grad = np.arange(6.0).reshape(2, 3).T  # F-ordered view
        t._accumulate(grad)
        assert t.grad.flags.c_contiguous
        np.testing.assert_array_equal(t.grad, grad)
        s = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        s._accumulate(np.float64(2.0))  # other shape and dtype
        assert s.grad.dtype == np.float32
        np.testing.assert_array_equal(s.grad, np.full((2, 2), 2.0))


# -- whole-model parity --------------------------------------------------------


@pytest.fixture(scope="module")
def ota_graphs(tech):
    graphs = {}
    for name in ("OTA1", "OTA2", "OTA3"):
        placement = place_benchmark(build_benchmark(name), variant="A",
                                    seed=0, iterations=60)
        graphs[name] = build_hetero_graph(RoutingGrid(placement, tech))
    return graphs


def model_for(graph, config=None) -> Gnn3d:
    return Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1],
                 config=config)


def potential_results(graph, config, points) -> list[np.ndarray]:
    pot = PotentialFunction(model_for(graph, config), graph)
    out = []
    for point in points:
        value, grad = pot.value_and_grad(point)
        out += [np.array(value), grad]
    values, grads = pot.value_and_grad_batch(np.stack(points))
    return out + [values, grads]


def trained_results(graph) -> list[np.ndarray]:
    """Weights and train/validation losses after one ``Trainer.fit``
    epoch."""
    rng = np.random.default_rng(12)
    samples = [TrainSample(rng.uniform(0.5, 2.0, (graph.num_aps, 3)),
                           rng.normal(size=5)) for _ in range(8)]
    model = model_for(graph)
    trainer = Trainer(model, graph, TrainConfig(
        epochs=1, batch_size=3, val_fraction=0.25))
    history = trainer.fit(samples)
    return ([p.data for p in model.parameters()]
            + [np.array(history.train_loss + history.val_loss)])


def float32_scores(graph) -> list[np.ndarray]:
    """Metrics and FoMs of ten candidates served in float32."""
    candidates = np.random.default_rng(13).uniform(
        0.5, 2.0, size=(10, graph.num_aps, 3))
    service = ScoringService()
    service.register("g", model_for(graph), graph, precision="float32")
    results = list(service.score_stream(
        ScoreRequest("g", c) for c in candidates))
    assert {r.status for r in results} == {"ok"}
    return ([r.metrics for r in results]
            + [np.array([r.fom for r in results], dtype=np.float32)])


def random_graph_results(graph, config, seed) -> list[np.ndarray]:
    """Potential results at three points, then ``dV/dC`` and every
    parameter gradient of one live-tape forward-backward."""
    rng = np.random.default_rng(seed)
    points = list(rng.uniform(0.3, 3.7, size=(3, graph.num_aps * 3)))
    model = model_for(graph, config)
    c = Tensor(points[0].reshape(graph.num_aps, 3), requires_grad=True)
    model(graph, c).sum().backward()
    return (potential_results(graph, config, points)
            + [c.grad] + [p.grad for p in model.parameters()])


def config_variant(variant: str) -> Gnn3dConfig:
    return dataclasses.replace(
        TINY, use_rbf=variant != "no_rbf",
        use_cost_distance=variant != "euclidean",
        heterogeneous=variant != "shared")


VARIANTS = ["default", "no_rbf", "euclidean", "shared"]


def assert_all_bitwise(fused: list, oracle: list) -> None:
    """Equal bits pairwise; ``None`` (a gradient never written) pairs
    only with ``None``."""
    assert len(fused) == len(oracle)
    for a, b in zip(fused, oracle):
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_all_close(fused: list, oracle: list) -> None:
    """Pairwise within :data:`EDGE_LEVEL_TOL` in float64 and
    ``FLOAT32_PARITY_RTOL`` in float32, both absolute up to magnitude 1
    and relative past it; ``None`` pairs only with ``None``."""
    assert len(fused) == len(oracle)
    for a, b in zip(fused, oracle):
        if a is None or b is None:
            assert a is None and b is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        tol = FLOAT32_PARITY_RTOL if a.dtype == np.float32 else EDGE_LEVEL_TOL
        gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        assert gap.max(initial=0.0) < tol


OTAS = ["OTA1", "OTA2", "OTA3"]


class TestModelParity:
    """Bitwise against the op-by-op node-level composition."""

    @pytest.mark.parametrize("name", OTAS)
    def test_potential_matches_oracle(self, name, ota_graphs):
        graph = ota_graphs[name]
        rng = np.random.default_rng(11)
        points = list(rng.uniform(0.3, 3.7, size=(6, graph.num_aps * 3)))
        fused = potential_results(graph, None, points)
        with model_ops():
            oracle = potential_results(graph, None, points)
        assert_all_bitwise(fused, oracle)

    @pytest.mark.parametrize("name", OTAS)
    def test_trained_weights_match_oracle(self, name, ota_graphs):
        fused = trained_results(ota_graphs[name])
        with model_ops():
            oracle = trained_results(ota_graphs[name])
        assert_all_bitwise(fused, oracle)

    @pytest.mark.parametrize("name", OTAS)
    def test_float32_scores_match_oracle(self, name, ota_graphs):
        fused = float32_scores(ota_graphs[name])
        assert fused[0].dtype == np.float32
        with model_ops():
            oracle = float32_scores(ota_graphs[name])
        assert_all_bitwise(fused, oracle)

    def test_oracle_patches_reach_the_tape_free_path(self, ota_graphs):
        """A served (tape-free, one-union) forward runs every patched
        oracle, so the pins above cover the path that writes into the
        plan's buffers."""
        graph = ota_graphs["OTA1"]
        calls = []

        def counted(name, oracle):
            def op(*args, **kwargs):
                calls.append(name)
                return oracle(*args, **kwargs)
            return op

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gnn3d_mod, "message_layer",
                          counted("layer", oracle_message_layer))
            patch.setattr(gnn3d_mod, "cost_distance",
                          counted("distance", oracle_cost_distance))
            patch.setattr(rbf_mod, "rbf_expand",
                          counted("rbf", oracle_rbf_expand))
            float32_scores(graph)
        assert sorted(set(calls)) == ["distance", "layer", "rbf"]

    @given(num_aps=st.integers(2, 7), num_modules=st.integers(0, 3),
           seed=st.integers(0, 2 ** 16), variant=st.sampled_from(VARIANTS))
    @settings(deadline=None, max_examples=30)
    def test_random_graph_gradients_match_oracle(self, num_aps, num_modules,
                                                 seed, variant):
        """Covers graphs without MM edges, whose last edge type's
        receivers are access points, and shared weights, which sum
        every type's and layer's terms."""
        graph = synthetic_graph(num_aps, num_modules, seed)
        fused = random_graph_results(graph, config_variant(variant), seed)
        with model_ops():
            oracle = random_graph_results(graph, config_variant(variant), seed)
        assert_all_bitwise(fused, oracle)


class TestEdgeLevelParity:
    """Within tolerance of the edge-level composition the fused layer
    replaced: it sums in another order, so the bits differ."""

    @pytest.mark.parametrize("name", OTAS)
    def test_potential_matches_edge_level(self, name, ota_graphs):
        graph = ota_graphs[name]
        rng = np.random.default_rng(11)
        points = list(rng.uniform(0.3, 3.7, size=(6, graph.num_aps * 3)))
        fused = potential_results(graph, None, points)
        with model_ops(edge_level_layer):
            edge = potential_results(graph, None, points)
        assert_all_close(fused, edge)

    @pytest.mark.parametrize("name", OTAS)
    def test_trained_weights_match_edge_level(self, name, ota_graphs):
        fused = trained_results(ota_graphs[name])
        with model_ops(edge_level_layer):
            edge = trained_results(ota_graphs[name])
        assert_all_close(fused, edge)

    @pytest.mark.parametrize("name", OTAS)
    def test_float32_scores_match_edge_level(self, name, ota_graphs):
        fused = float32_scores(ota_graphs[name])
        with model_ops(edge_level_layer):
            edge = float32_scores(ota_graphs[name])
        assert_all_close(fused, edge)

    @given(num_aps=st.integers(2, 7), num_modules=st.integers(0, 3),
           seed=st.integers(0, 2 ** 16), variant=st.sampled_from(VARIANTS))
    @settings(deadline=None, max_examples=30)
    def test_random_graphs_match_edge_level(self, num_aps, num_modules,
                                            seed, variant):
        graph = synthetic_graph(num_aps, num_modules, seed)
        fused = random_graph_results(graph, config_variant(variant), seed)
        with model_ops(edge_level_layer):
            edge = random_graph_results(graph, config_variant(variant), seed)
        assert_all_close(fused, edge)


def ota1_evaluation_shape(graph) -> tuple[list[int], int]:
    pot = PotentialFunction(model_for(graph), graph)
    point = np.full(graph.num_aps * 3, 1.0)
    pot.value_and_grad(point)  # build the plan
    return evaluation_shape(pot, point)


class TestTapeSize:
    def test_ota1_potential_evaluation_records_at_most_24_nodes(
            self, ota_graphs):
        sizes, _ = ota1_evaluation_shape(ota_graphs["OTA1"])
        assert len(sizes) == 1
        assert sizes[0] <= 24, sizes

    def test_ota1_potential_evaluation_runs_at_most_7_scatter_products(
            self, ota_graphs):
        """Three aggregations, the readout's pooling, two sender-slot
        backwards (layer 1's embeddings are frozen) and the Eq. 1
        guidance gather's backward."""
        _, products = ota1_evaluation_shape(ota_graphs["OTA1"])
        assert products <= 7, products
