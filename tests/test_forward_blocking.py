"""Cache-blocked union forward: parity harness and plan-cache pins.

The contracts under test (see docs/PERFORMANCE.md, "Forward blocking"):

* a single-candidate forward is the blocked pass at ``B=1``: its
  one-replica plan is the graph itself (the edges of each non-empty
  type in order, their slot ids, deltas and in-degrees, features, one
  pooling segment), its output is bitwise the ``B=1`` batch row,
  and it never enters ``forward_batch`` or the union-plan cache;
* the blocked float64 forward matches both the per-candidate forward
  and the single union of all replicas (``block=B``) to <1e-10 for
  arbitrary graphs, batch sizes, and block sizes — including
  degenerate graphs (no modules, empty edge types) and remainder
  blocks.  Not bitwise against the per-candidate forward: the batch
  runs the metric head once over all pooled rows, a multi-row product,
  where a single candidate runs it on one row, and BLAS rounds the two
  differently;
* gradients flow through block slicing exactly as through the union;
* the float32 scoring path stays within ``FLOAT32_PARITY_RTOL`` of
  float64 on every built-in OTA;
* union plans are rebuilt when the graph's content fingerprint changes
  (in-place position mutation) and reused — same object — when it does
  not;
* the per-graph plan caches are strictly LRU (hits refresh recency,
  capacity evicts only the stalest plan) and never alias plans across
  ``(fingerprint, B, block)`` keys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.perf.cache as cache_mod
from repro import build_benchmark, place_benchmark
from repro.graph import build_hetero_graph
from repro.graph.hetero import EdgeType, HeteroGraph
from repro.model.gnn3d import DEFAULT_CACHE_BLOCK, Gnn3d, Gnn3dConfig
from repro.nn import Tensor, no_grad
from repro.perf.cache import MAX_PLANS_PER_GRAPH, ForwardCacheStore
from repro.router import RoutingGrid
from repro.serve import FLOAT32_PARITY_RTOL

#: Tiny model for hypothesis examples (dims fixed by synthetic_graph).
TINY = Gnn3dConfig(hidden=4, num_layers=1, rbf_centers=4, seed=3)

#: Small-but-real model for the OTA float32 parity checks.
SMALL = Gnn3dConfig(hidden=8, num_layers=2, rbf_centers=4, seed=3)

AP_DIM, MODULE_DIM = 4, 3


def synthetic_graph(num_aps: int, num_modules: int,
                    seed: int) -> HeteroGraph:
    """A random but valid HeteroGraph (feature dims AP_DIM/MODULE_DIM).

    Edge counts are drawn from ``seed`` too, including zero — empty
    edge types exercise the plan builders' degenerate paths.
    """
    rng = np.random.default_rng(seed)

    def pairs(count, lo_a, hi_a, lo_b, hi_b):
        if count == 0 or hi_a <= lo_a or hi_b <= lo_b:
            return np.zeros((0, 2), dtype=np.int64)
        return np.stack([rng.integers(lo_a, hi_a, size=count),
                         rng.integers(lo_b, hi_b, size=count)], axis=1)

    num_nodes = num_aps + num_modules
    return HeteroGraph(
        ap_keys=[(f"d{i}", f"p{i}") for i in range(num_aps)],
        ap_nets=[f"n{i % 3}" for i in range(num_aps)],
        module_names=[f"m{i}" for i in range(num_modules)],
        ap_positions=rng.uniform(0.0, 30.0, size=(num_aps, 3)),
        module_positions=rng.uniform(0.0, 30.0, size=(num_modules, 3)),
        ap_features=rng.normal(size=(num_aps, AP_DIM)),
        module_features=rng.normal(size=(num_modules, MODULE_DIM)),
        edges={
            EdgeType.PP: pairs(int(rng.integers(0, 3 * num_aps)),
                               0, num_aps, 0, num_aps),
            EdgeType.MM: pairs(int(rng.integers(0, 2 * num_modules + 1)),
                               num_aps, num_nodes, num_aps, num_nodes),
            EdgeType.MP: pairs(int(rng.integers(0, num_nodes)),
                               num_aps, num_nodes, 0, num_aps),
        },
    )


class TestBlockedForwardParity:
    @given(num_aps=st.integers(2, 10), num_modules=st.integers(0, 4),
           batch=st.integers(1, 16), block=st.integers(1, 8),
           seed=st.integers(0, 2 ** 16))
    @settings(deadline=None, max_examples=25)
    def test_blocked_matches_unbatched_and_union(self, num_aps, num_modules,
                                                 batch, block, seed):
        graph = synthetic_graph(num_aps, num_modules, seed)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        rng = np.random.default_rng(seed + 1)
        cand = rng.uniform(0.5, 2.0, size=(batch, num_aps, 3))

        blocked = model.forward_batch(graph, Tensor(cand),
                                      block=block).numpy()
        union = model.forward_batch(graph, Tensor(cand),
                                    block=batch).numpy()
        singles = np.stack(
            [model(graph, Tensor(row)).numpy() for row in cand])

        assert blocked.shape == singles.shape
        assert np.abs(blocked - singles).max() < 1e-10
        assert np.abs(blocked - union).max() < 1e-10

    def test_default_dispatch_is_blocked(self, ota1_graph):
        """3-D guidance through ``forward`` rides the blocked path."""
        model = Gnn3d(ota1_graph.ap_features.shape[1],
                      ota1_graph.module_features.shape[1], config=SMALL)
        rng = np.random.default_rng(0)
        cand = rng.uniform(0.5, 2.0, size=(6, ota1_graph.num_aps, 3))
        via_forward = model(ota1_graph, Tensor(cand)).numpy()
        via_batch = model.forward_batch(ota1_graph, Tensor(cand),
                                        block=DEFAULT_CACHE_BLOCK).numpy()
        assert np.array_equal(via_forward, via_batch)

    def test_gradients_flow_through_block_slices(self, ota1_graph):
        """Multi-block backward scatters into the right guidance rows."""
        model = Gnn3d(ota1_graph.ap_features.shape[1],
                      ota1_graph.module_features.shape[1], config=SMALL)
        rng = np.random.default_rng(2)
        cand = rng.uniform(0.5, 2.0, size=(5, ota1_graph.num_aps, 3))
        batched = Tensor(cand, requires_grad=True)
        model.forward_batch(ota1_graph, batched, block=2).sum().backward()
        for row in range(5):
            single = Tensor(cand[row], requires_grad=True)
            model(ota1_graph, single).sum().backward()
            assert np.abs(single.grad - batched.grad[row]).max() < 1e-10

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_float32_parity_within_contract(self, name, tech):
        circuit = build_benchmark(name)
        placement = place_benchmark(circuit, variant="A", seed=0,
                                    iterations=60)
        graph = build_hetero_graph(RoutingGrid(placement, tech))
        dims = (graph.ap_features.shape[1], graph.module_features.shape[1])
        model64 = Gnn3d(*dims, config=SMALL)
        model32 = Gnn3d(*dims, config=SMALL).to_dtype(np.float32)

        rng = np.random.default_rng(7)
        cand = rng.uniform(0.5, 2.0, size=(6, graph.num_aps, 3))
        out64 = model64.forward_batch(graph, Tensor(cand)).numpy()
        out32 = model32.forward_batch(
            graph, Tensor(cand.astype(np.float32))).numpy()

        assert out32.dtype == np.float32
        rel = np.abs(out32 - out64) / np.maximum(1.0, np.abs(out64))
        assert rel.max() < FLOAT32_PARITY_RTOL

    def test_no_stale_plans_after_position_mutation(self):
        """Warm plans must not survive an in-place geometry change."""
        graph = synthetic_graph(6, 2, seed=11)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        rng = np.random.default_rng(3)
        cand = rng.uniform(0.5, 2.0, size=(5, 6, 3))
        model.forward_batch(graph, Tensor(cand))  # warm the plan cache
        graph.ap_positions[0, 0] += 2.5
        after = model.forward_batch(graph, Tensor(cand)).numpy()
        # Same seeded weights, cold cache: the ground truth.
        fresh = Gnn3d(AP_DIM, MODULE_DIM, config=TINY).forward_batch(
            graph, Tensor(cand)).numpy()
        assert np.array_equal(after, fresh)


class TestSingleForward:
    @given(num_aps=st.integers(1, 8), num_modules=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16))
    @settings(deadline=None, max_examples=40)
    def test_one_replica_plan_is_the_graph(self, num_aps, num_modules,
                                           seed):
        graph = synthetic_graph(num_aps, num_modules, seed)
        plan = ForwardCacheStore().batched(graph, 1)
        positions = graph.positions
        assert plan.batch == 1 and plan.num_nodes == graph.num_nodes
        assert plan.edge_types == tuple(
            et for et in EdgeType if len(graph.directed_edges(et)[0]))
        num_types = len(plan.edge_types)
        assert plan.receivers.num_segments == graph.num_nodes
        for slots in (plan.src_slots, plan.dst_slots):
            assert slots.num_segments == graph.num_nodes * num_types
        in_degree = np.zeros((graph.num_nodes, num_types))
        for t, edge_type in enumerate(plan.edge_types):
            src, dst = graph.directed_edges(edge_type)
            edges = slice(plan.edge_offsets[t], plan.edge_offsets[t + 1])
            for ids, expected in ((plan.receivers.ids, dst),
                                  (plan.src_slots.ids, src * num_types + t),
                                  (plan.dst_slots.ids, dst * num_types + t)):
                assert ids[edges].tobytes() == expected.tobytes()
            deltas = np.abs(positions[dst] - positions[src])
            assert plan.deltas[edges].shape == deltas.shape
            assert plan.deltas[edges].tobytes() == deltas.tobytes()
            np.add.at(in_degree[:, t], dst, 1.0)
        assert plan.edge_offsets[-1] == len(plan.receivers) == len(plan.deltas)
        assert np.array_equal(plan.in_degree, in_degree)
        assert plan.ap_features.tobytes() == graph.ap_features.tobytes()
        assert (plan.module_features.tobytes()
                == graph.module_features.tobytes())
        assert plan.pool.num_segments == 1
        assert not plan.pool.ids.any() and len(plan.pool) == graph.num_nodes
        assert np.array_equal(plan.neutral_guidance,
                              np.ones((num_modules, 3)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_forward_is_the_one_replica_batch(self, dtype):
        graph = synthetic_graph(6, 2, seed=13)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY).to_dtype(dtype)
        cand = np.random.default_rng(4).uniform(
            0.5, 2.0, size=(6, 3)).astype(dtype)
        single = model(graph, Tensor(cand)).numpy()
        batch = model.forward_batch(graph, Tensor(cand[None])).numpy()
        assert single.dtype == dtype and single.shape == (5,)
        assert single.tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("tape", [True, False], ids=["tape", "no_grad"])
    def test_single_forward_skips_batched_entry_points(self, tape,
                                                       monkeypatch):
        """perfbench counts ``model.forward_batch`` and
        ``cache.union_plan`` calls apart from single forwards."""
        graph = synthetic_graph(6, 2, seed=13)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        cand = np.random.default_rng(4).uniform(0.5, 2.0, size=(6, 3))

        def refuse(*args, **kwargs):
            raise AssertionError("single forward reached a batched path")

        monkeypatch.setattr(Gnn3d, "forward_batch", refuse)
        monkeypatch.setattr(ForwardCacheStore, "union_plan", refuse)
        guidance = Tensor(cand, requires_grad=tape)
        if tape:
            model(graph, guidance).sum().backward()
            assert guidance.grad.shape == (6, 3)
        else:
            with no_grad():
                assert model(graph, guidance).shape == (5,)


class TestUnionPlanCache:
    def test_plan_reused_until_fingerprint_changes(self):
        graph = synthetic_graph(6, 2, seed=5)
        store = ForwardCacheStore()
        plan = store.union_plan(graph, 6, 2)
        assert store.union_plan(graph, 6, 2) is plan
        graph.ap_positions[1, 1] += 4.0
        fresh = store.union_plan(graph, 6, 2)
        assert fresh is not plan
        assert not np.array_equal(fresh.plans[0].deltas,
                                  plan.plans[0].deltas)

    def test_blocked_decomposition_shape(self):
        graph = synthetic_graph(5, 1, seed=8)
        store = ForwardCacheStore()
        plan = store.union_plan(graph, 7, 3)
        assert plan.batch == 7 and plan.block == 3
        assert plan.slices == ((0, 3), (3, 6), (6, 7))
        assert [p.batch for p in plan.plans] == [3, 3, 1]
        # Full blocks share one plan object.
        assert plan.plans[0] is plan.plans[1]
        # Block larger than batch degenerates to one union.
        assert store.union_plan(graph, 2, 16).block == 2

    def test_block_plans_shared_across_batch_sizes(self):
        graph = synthetic_graph(6, 2, seed=6)
        store = ForwardCacheStore()
        p8 = store.union_plan(graph, 8, 4)
        p12 = store.union_plan(graph, 12, 4)
        assert p12.plans[0] is p8.plans[0]

    def test_no_aliasing_across_fingerprints(self):
        """Two same-shape graphs must get distinct plans."""
        g1 = synthetic_graph(6, 2, seed=21)
        g2 = synthetic_graph(6, 2, seed=22)
        store = ForwardCacheStore()
        p1 = store.union_plan(g1, 4, 2)
        p2 = store.union_plan(g2, 4, 2)
        assert p1 is not p2
        assert store.union_plan(g1, 4, 2) is p1
        assert store.union_plan(g2, 4, 2) is p2
        assert not np.array_equal(p1.plans[0].deltas, p2.plans[0].deltas)

    def test_lru_eviction_only_with_hit_refresh(self, monkeypatch):
        """Regression: plan caches must never clear wholesale — LRU
        eviction of exactly the stalest plan, with hits refreshing
        recency."""
        builds: list[int] = []
        real_build = cache_mod.build_batched
        monkeypatch.setattr(
            cache_mod, "build_batched",
            lambda graph, batch:
                builds.append(batch) or real_build(graph, batch))
        graph = synthetic_graph(4, 1, seed=9)
        store = ForwardCacheStore()
        cap = MAX_PLANS_PER_GRAPH
        for size in range(1, cap + 1):
            store.union_plan(graph, size, size)
        assert builds == list(range(1, cap + 1))
        store.union_plan(graph, 1, 1)          # hit refreshes size 1
        assert len(builds) == cap
        store.union_plan(graph, cap + 1, cap + 1)  # evicts size 2 only
        assert builds[-1] == cap + 1
        store.union_plan(graph, 1, 1)          # survived the eviction
        assert builds.count(1) == 1
        store.union_plan(graph, 2, 2)          # the one that was evicted
        assert builds.count(2) == 2

    def test_invalid_batch_and_block_rejected(self):
        graph = synthetic_graph(3, 0, seed=4)
        store = ForwardCacheStore()
        with pytest.raises(ValueError, match="batch"):
            store.union_plan(graph, 0, 2)
        with pytest.raises(ValueError, match="block"):
            store.union_plan(graph, 2, 0)

    def test_misshaped_guidance_rejected(self):
        graph = synthetic_graph(4, 1, seed=12)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        with pytest.raises(ValueError, match="guidance shape"):
            model.forward_batch(graph, Tensor(np.ones((2, 3, 3))))
