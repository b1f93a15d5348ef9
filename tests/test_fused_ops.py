"""Fused 3DGNN ops: bitwise parity with their op-by-op composition.

``repro.nn.cost_distance`` (Eq. 1), ``repro.nn.rbf_expand`` (Eq. 2-3)
and ``repro.nn.message_sum`` (Eq. 5 plus the aggregation at receivers)
each record one tape node.  The oracles below are the compositions of
primitive tape ops they replaced.  The contracts under test (see
docs/PERFORMANCE.md, "Relaxation forward-backward"):

* each fused op's output and every gradient equal its oracle's bitwise,
  in float64 and float32, on the full tape, under ``frozen`` and under
  ``no_grad``, over random graphs with empty edge types, no modules and
  repeated ids;
* a model whose ops run the oracles computes bitwise the same
  ``value_and_grad``, ``value_and_grad_batch``, trained weights and
  float32 served scores on OTA1-3, and the same potential gradients on
  random graphs (where the model's layer fold of the ``psi`` gradient
  matters);
* the first gradient ``Tensor._accumulate`` writes has the bits of
  zeros-then-add, ``-0.0``, casts and broadcasts included;
* one OTA1 potential evaluation records at most 43 tape nodes.

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
from repro.graph.hetero import EdgeType
from repro.model.gnn3d import Gnn3d, Gnn3dConfig
from repro.model.training import TrainConfig, Trainer, TrainSample
from repro.nn.functional import _message_sum
from repro.nn import (
    Parameter,
    Tensor,
    cost_distance,
    frozen,
    message_sum,
    no_grad,
    rbf_expand,
    segment_sum,
)
from repro.perf.cache import build_batched
from repro.router import RoutingGrid
from repro.serve import ScoreRequest, ScoringService

from tests.test_forward_blocking import synthetic_graph

MODES = ("tape", "frozen", "no_grad")
DTYPES = (np.float64, np.float32)

#: Random-graph model: three layers, so a distance feature's gradient
#: sums three layer terms and their order shows in the bits.
TINY = Gnn3dConfig(hidden=4, num_layers=3, rbf_centers=4, seed=5)


# -- the op-by-op oracles ------------------------------------------------------


def oracle_cost_distance(guidance, receivers, deltas):
    c_recv = guidance.gather_rows(receivers)
    weighted = c_recv * Tensor(deltas)
    return ((weighted * weighted).sum(axis=1) + 1e-6).sqrt()


def oracle_rbf_expand(distances, centers, gamma):
    diff = distances.reshape(-1, 1) - Tensor(centers.reshape(1, -1))
    return ((diff * diff) * (-gamma)).exp()


def oracle_message_sum(h, psi, src, dst, weights, psi_fold=None):
    w_src, b_src, w_dist, b_dist, w_out, b_out = weights
    gated = (h.gather_rows(src).affine(w_src, b_src)
             * psi.affine(w_dist, b_dist))
    return segment_sum(gated.affine(w_out, b_out), dst)


@contextlib.contextmanager
def oracle_ops():
    """Every Gnn3d forward inside the block runs the oracles."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gnn3d_mod, "_message_sum", oracle_message_sum)
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


class TestOpParity:
    @given(num_aps=st.integers(1, 8), num_modules=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16), mode=st.sampled_from(MODES),
           dtype=st.sampled_from(DTYPES))
    @settings(deadline=None, max_examples=60)
    def test_ops_match_oracles(self, num_aps, num_modules, seed, mode,
                               dtype):
        graph = synthetic_graph(num_aps, num_modules, seed)
        plan = build_batched(graph, 1).as_dtype(dtype)
        rng = np.random.default_rng(seed)
        num_nodes, hidden, width = graph.num_nodes, 3, 5
        centers = np.linspace(0.0, 30.0, width).astype(dtype)
        for edge_type in EdgeType:
            src, dst = plan.edge_cache[edge_type]
            num_edges = len(src)

            def draw(*shape):
                return rng.uniform(-2.0, 2.0, size=shape).astype(dtype)

            guidance = {"g": rng.uniform(0.2, 3.0, (num_nodes, 3)).astype(dtype)}
            deltas = plan.deltas[edge_type]
            seed_d = draw(num_edges)
            fused = run_op(lambda t: cost_distance(t["g"], dst, deltas),
                           guidance, (), mode, {"g"}, seed_d)
            oracle = run_op(
                lambda t: oracle_cost_distance(t["g"], dst, deltas),
                guidance, (), mode, {"g"}, seed_d)
            assert_bitwise(fused, oracle)

            dist = {"d": rng.uniform(0.0, 40.0, num_edges).astype(dtype)}
            seed_psi = draw(num_edges, width)
            fused = run_op(lambda t: rbf_expand(t["d"], centers, 0.02),
                           dist, (), mode, {"d"}, seed_psi)
            oracle = run_op(lambda t: oracle_rbf_expand(t["d"], centers, 0.02),
                            dist, (), mode, {"d"}, seed_psi)
            assert_bitwise(fused, oracle)

            arrays = {"h": draw(num_nodes, hidden),
                      "psi": draw(num_edges, width),
                      "w_src": draw(hidden, hidden), "b_src": draw(hidden),
                      "w_dist": draw(width, hidden), "b_dist": draw(hidden),
                      "w_out": draw(hidden, hidden), "b_out": draw(hidden)}
            names = tuple(arrays)[2:]
            seed_h = draw(num_nodes, hidden)
            # The embeddings without a gradient, as in a frozen layer 1.
            for grad_names in ({"h", "psi"}, {"psi"}):
                def fused_op(t):
                    return message_sum(t["h"], t["psi"], src, dst,
                                       [t[n] for n in names])

                def oracle_op(t):
                    return oracle_message_sum(t["h"], t["psi"], src, dst,
                                              [t[n] for n in names])

                fused = run_op(fused_op, arrays, names, mode, grad_names,
                               seed_h)
                oracle = run_op(oracle_op, arrays, names, mode, grad_names,
                                seed_h)
                assert_bitwise(fused, oracle)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_message_sum_psi_fold_adds_in_build_order(self, dtype):
        """Three layers on one ``psi``: the model's private fold adds the
        terms first layer first, the plain tape last layer first."""
        rng = np.random.default_rng(0)
        plan = build_batched(synthetic_graph(6, 2, 1), 1).as_dtype(dtype)
        src, dst = plan.edge_cache[EdgeType.PP]
        hidden, width = 3, 4
        psi = Tensor(rng.normal(size=(len(src), width)).astype(dtype),
                     requires_grad=True)
        h = Tensor(rng.normal(size=(8, hidden)).astype(dtype))
        layers = [[Tensor(rng.normal(size=shape).astype(dtype)) for shape in
                   ((hidden, hidden), (hidden,), (width, hidden), (hidden,),
                    (hidden, hidden), (hidden,))] for _ in range(3)]

        def psi_grad(fold, only=None):
            """``psi``'s gradient; with ``only``, that layer's term."""
            psi.grad = None
            x = h
            for depth, weights in enumerate(layers):
                reads = psi if only in (None, depth) else Tensor(psi.data)
                x = x + _message_sum(x, reads, src, dst, weights, fold)
            x.sum().backward()
            return psi.grad

        terms = [psi_grad(None, only=depth) for depth in range(3)]
        first_first = (terms[0] + terms[1]) + terms[2]
        last_first = (terms[2] + terms[1]) + terms[0]
        assert first_first.tobytes() != last_first.tobytes()
        assert psi_grad([]).tobytes() == first_first.tobytes()
        assert psi_grad(None).tobytes() == last_first.tobytes()

    def test_message_sum_rejects_mismatched_shapes(self):
        """Scatters over another node count, or edge counts that
        disagree, raise instead of gathering the wrong rows."""
        plan = build_batched(synthetic_graph(5, 2, 3), 1)
        src, dst = plan.edge_cache[EdgeType.PP]
        num_nodes, num_edges = src.num_segments, len(src)
        weights = [Tensor(np.ones(shape)) for shape in
                   ((2, 2), (2,), (3, 2), (2,), (2, 2), (2,))]
        psi = Tensor(np.ones((num_edges, 3)))
        message_sum(Tensor(np.ones((num_nodes, 2))), psi, src, dst, weights)
        for rows in (num_nodes + 1, num_nodes - 1):
            with pytest.raises(ValueError, match="edge scatters over"):
                message_sum(Tensor(np.ones((rows, 2))), psi, src, dst,
                            weights)
        with pytest.raises(ValueError, match="distance feature rows"):
            message_sum(Tensor(np.ones((num_nodes, 2))),
                        Tensor(np.ones((num_edges + 1, 3))), src, dst,
                        weights)


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


class TestModelParity:
    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_potential_matches_oracle(self, name, ota_graphs):
        graph = ota_graphs[name]
        rng = np.random.default_rng(11)
        points = list(rng.uniform(0.3, 3.7, size=(6, graph.num_aps * 3)))
        fused = potential_results(graph, None, points)
        with oracle_ops():
            oracle = potential_results(graph, None, points)
        assert_all_bitwise(fused, oracle)

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_trained_weights_match_oracle(self, name, ota_graphs):
        graph = ota_graphs[name]
        rng = np.random.default_rng(12)
        samples = [TrainSample(rng.uniform(0.5, 2.0, (graph.num_aps, 3)),
                               rng.normal(size=5)) for _ in range(8)]

        def fit():
            model = model_for(graph)
            trainer = Trainer(model, graph, TrainConfig(
                epochs=1, batch_size=3, val_fraction=0.25))
            history = trainer.fit(samples)
            return ([p.data for p in model.parameters()]
                    + [np.array(history.train_loss + history.val_loss)])

        fused = fit()
        with oracle_ops():
            oracle = fit()
        assert_all_bitwise(fused, oracle)

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_float32_scores_match_oracle(self, name, ota_graphs):
        graph = ota_graphs[name]
        rng = np.random.default_rng(13)
        candidates = rng.uniform(0.5, 2.0, size=(10, graph.num_aps, 3))

        def scores():
            service = ScoringService()
            service.register("g", model_for(graph), graph,
                             precision="float32")
            results = list(service.score_stream(
                ScoreRequest("g", c) for c in candidates))
            assert {r.status for r in results} == {"ok"}
            return ([r.metrics for r in results]
                    + [np.array([r.fom for r in results])])

        fused = scores()
        assert fused[0].dtype == np.float32
        with oracle_ops():
            oracle = scores()
        assert_all_bitwise(fused, oracle)

    @given(num_aps=st.integers(2, 7), num_modules=st.integers(0, 3),
           seed=st.integers(0, 2 ** 16),
           variant=st.sampled_from(["default", "no_rbf", "euclidean",
                                    "shared"]))
    @settings(deadline=None, max_examples=30)
    def test_random_graph_gradients_match_oracle(self, num_aps, num_modules,
                                                 seed, variant):
        """Covers graphs without MM edges: there the last aggregated
        edge type's receivers are access points, so its distance
        features' gradient reaches ``dV/dC``."""
        config = dataclasses.replace(
            TINY, use_rbf=variant != "no_rbf",
            use_cost_distance=variant != "euclidean",
            heterogeneous=variant != "shared")
        graph = synthetic_graph(num_aps, num_modules, seed)
        rng = np.random.default_rng(seed)
        points = list(rng.uniform(0.3, 3.7, size=(3, num_aps * 3)))

        def live(model):
            c = Tensor(points[0].reshape(num_aps, 3), requires_grad=True)
            model.zero_grad()
            model(graph, c).sum().backward()
            grads = [p.grad for p in model.parameters()]
            return [c.grad] + grads if c.grad is not None else grads

        fused = potential_results(graph, config, points)
        fused_live = live(model_for(graph, config))
        with oracle_ops():
            oracle = potential_results(graph, config, points)
            oracle_live = live(model_for(graph, config))
        assert_all_bitwise(fused, oracle)
        assert_all_bitwise(fused_live, oracle_live)


class TestTapeSize:
    def test_ota1_potential_evaluation_records_at_most_43_nodes(
            self, ota_graphs, monkeypatch):
        graph = ota_graphs["OTA1"]
        pot = PotentialFunction(model_for(graph), graph)
        sizes = []
        backward = Tensor.backward

        def counting_backward(self, grad=None):
            seen, stack = set(), [self]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(p for p in node._parents if p.requires_grad)
            sizes.append(len(seen))
            return backward(self, grad)

        monkeypatch.setattr(Tensor, "backward", counting_backward)
        pot.value_and_grad(np.full(graph.num_aps * 3, 1.0))
        assert len(sizes) == 1
        assert sizes[0] <= 43, sizes
