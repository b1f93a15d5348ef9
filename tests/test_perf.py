"""Performance layer: the perf record, caches, parallel construction, batching.

The contracts under test:

* parallel ``generate_dataset`` is bit-identical to serial — samples,
  report, and checkpoint bytes — including under injected faults and on
  checkpoint resume;
* the batched GNN forward matches per-candidate forwards to 1e-10, and
  relaxation pays one forward-backward per joint wave evaluation, which
  carries every restart of the wave;
* the BENCH_perf record projects the span aggregates, and its
  regression gate behaves as documented.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import DatasetConfig, generate_dataset
from repro.core.potential import PotentialFunction
from repro.core.relaxation import PotentialRelaxer, RelaxationConfig
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d
from repro.nn import Tensor
from repro.obs import RunContext
from repro.perf import (
    ForwardCacheStore,
    bench_payload,
    compare_to_baseline,
)
from repro.reliability import DegradationPolicy, FaultPlan, inject_faults
from repro.router import RoutingGrid


def _assert_databases_identical(db_a, db_b):
    assert len(db_a.samples) == len(db_b.samples)
    for a, b in zip(db_a.samples, db_b.samples):
        assert set(a.guidance.vectors) == set(b.guidance.vectors)
        for key in a.guidance.vectors:
            assert np.array_equal(a.guidance.vectors[key],
                                  b.guidance.vectors[key])
        assert np.array_equal(a.metrics.to_normalized(),
                              b.metrics.to_normalized())
    # ``reused`` is not compared: a resumed run reuses checkpointed
    # samples by design while producing the same database.
    ra, rb = db_a.report, db_b.report
    assert (ra.valid, ra.resampled) == (rb.valid, rb.resampled)
    assert [(f.sample_index, f.stage) for f in ra.skipped] == \
           [(f.sample_index, f.stage) for f in rb.skipped]


class TestParallelDataset:
    CFG = DatasetConfig(num_samples=4, seed=3)

    def test_workers_bit_identical_to_serial(self, ota1, ota1_placement,
                                             tech):
        serial = generate_dataset(ota1, ota1_placement, tech, self.CFG)
        parallel = generate_dataset(ota1, ota1_placement, tech, self.CFG,
                                    workers=2)
        _assert_databases_identical(serial, parallel)

    def test_workers_bit_identical_under_faults(self, ota1, ota1_placement,
                                                tech):
        # Unit-scoped faults: sample 1 fails all attempts (skip +
        # resample), sample 2 fails only its first attempt (retry
        # recovers).  Unit addressing is process-count-independent.
        plan = FaultPlan(stage="routing",
                         fail_units=frozenset({1, (2, 0)}))
        policy = DegradationPolicy(max_retries=1)
        with inject_faults(plan):
            serial = generate_dataset(ota1, ota1_placement, tech, self.CFG,
                                      policy=policy)
        with inject_faults(plan):
            parallel = generate_dataset(ota1, ota1_placement, tech,
                                        self.CFG, policy=policy, workers=2)
        assert serial.report.skipped, "fault plan must actually skip"
        assert serial.report.retried >= 1
        assert serial.report.retried == parallel.report.retried
        _assert_databases_identical(serial, parallel)

    def test_workers_checkpoint_identical_and_resumable(
            self, ota1, ota1_placement, tech, tmp_path):
        ck_serial = tmp_path / "serial.jsonl"
        ck_parallel = tmp_path / "parallel.jsonl"
        serial = generate_dataset(ota1, ota1_placement, tech, self.CFG,
                                  checkpoint_path=ck_serial)
        parallel = generate_dataset(ota1, ota1_placement, tech, self.CFG,
                                    checkpoint_path=ck_parallel, workers=2)
        _assert_databases_identical(serial, parallel)
        assert ck_serial.read_bytes() == ck_parallel.read_bytes()

        # Truncate to header + 2 samples and resume with workers: reused
        # samples are not recomputed, and the result is still identical.
        lines = ck_parallel.read_text().splitlines(keepends=True)
        ck_resume = tmp_path / "resume.jsonl"
        ck_resume.write_text("".join(lines[:3]))
        resumed = generate_dataset(ota1, ota1_placement, tech, self.CFG,
                                   checkpoint_path=ck_resume,
                                   resume=True, workers=2)
        _assert_databases_identical(serial, resumed)
        assert resumed.report.reused == 2
        assert ck_resume.read_bytes() == ck_parallel.read_bytes()

    def test_timer_collects_worker_stages(self, ota1, ota1_placement, tech):
        # Worker spans reach the parent's aggregates through obs.absorb.
        obs = RunContext.recording()
        generate_dataset(ota1, ota1_placement, tech, self.CFG, workers=2,
                         obs=obs)
        for stage in ("route", "extract", "simulate"):
            assert obs.aggregates[stage].count == self.CFG.num_samples
            assert obs.aggregates[stage].seconds > 0.0

    def test_invalid_worker_count_rejected(self, ota1, ota1_placement,
                                           tech):
        with pytest.raises(ValueError, match="workers"):
            generate_dataset(ota1, ota1_placement, tech, self.CFG, workers=0)


@pytest.fixture(scope="module")
def perf_model(ota1_placement, tech):
    graph = build_hetero_graph(RoutingGrid(ota1_placement, tech))
    model = Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1])
    return graph, model


class TestBatchedForward:
    def test_batched_matches_per_candidate_to_1e10(self, perf_model):
        graph, model = perf_model
        rng = np.random.default_rng(0)
        cand = rng.uniform(0.5, 2.0, size=(4, graph.num_aps, 3))
        singles = np.stack(
            [model(graph, Tensor(cand[b])).numpy() for b in range(4)])
        batched = model(graph, Tensor(cand)).numpy()
        assert batched.shape == (4, singles.shape[1])
        assert np.abs(singles - batched).max() < 1e-10

    def test_batched_gradients_match(self, perf_model):
        graph, model = perf_model
        rng = np.random.default_rng(1)
        cand = rng.uniform(0.5, 2.0, size=(3, graph.num_aps, 3))
        single = Tensor(cand[1], requires_grad=True)
        model(graph, single).sum().backward()
        batch = Tensor(cand, requires_grad=True)
        model(graph, batch).sum().backward()
        assert np.abs(single.grad - batch.grad[1]).max() < 1e-10

    def test_batch_value_and_grad_matches_scalar(self, perf_model):
        graph, model = perf_model
        pot = PotentialFunction(model, graph)
        rng = np.random.default_rng(2)
        X = rng.uniform(0.5, 2.0, size=(3, pot.num_variables))
        values, grads = pot.value_and_grad_batch(X)
        for i in range(3):
            v, g = pot.value_and_grad(X[i])
            assert abs(v - values[i]) < 1e-10
            assert np.abs(g - grads[i]).max() < 1e-10

    def test_batch_infeasible_rows_pushed_back(self, perf_model):
        graph, model = perf_model
        pot = PotentialFunction(model, graph)
        X = np.full((2, pot.num_variables), 1.0)
        X[1, 0] = -0.5  # outside the open region
        values, grads = pot.value_and_grad_batch(X)
        assert np.isfinite(values[0])
        assert values[1] == float("inf")
        assert grads[1, 0] == -1.0

    def test_forward_cache_invalidation(self, ota1_placement, tech):
        graph = build_hetero_graph(RoutingGrid(ota1_placement, tech))
        store = ForwardCacheStore()
        single = store.batched(graph, 1)
        assert store.batched(graph, 1) is single  # cached
        plan = store.batched(graph, 3)
        assert store.batched(graph, 3) is plan
        assert plan.num_nodes == 3 * graph.num_nodes
        # Structural change invalidates the entry.
        et = next(t for t, p in graph.edges.items() if len(p))
        pairs = graph.edges[et]
        graph.edges[et] = pairs[:-1]
        try:
            assert store.batched(graph, 1) is not single
        finally:
            graph.edges[et] = pairs

    def test_inplace_position_mutation_invalidates(self, ota1_placement,
                                                   tech):
        """Regression: a count-only fingerprint served stale Eq.1 deltas
        after ``ap_positions`` was mutated in place."""
        graph = build_hetero_graph(RoutingGrid(ota1_placement, tech))
        store = ForwardCacheStore()
        single = store.batched(graph, 1)
        graph.ap_positions[0, 0] += 3.0
        fresh = store.batched(graph, 1)
        assert fresh is not single
        assert not np.array_equal(fresh.deltas, single.deltas)

    def test_equal_length_edge_swap_invalidates(self, ota1_placement, tech):
        """Regression: swapping an edge array for one of equal length
        kept every count identical and the cache never noticed."""
        graph = build_hetero_graph(RoutingGrid(ota1_placement, tech))
        store = ForwardCacheStore()
        single = store.batched(graph, 1)
        et = next(t for t, p in graph.edges.items() if len(p) > 1)
        original = graph.edges[et]
        graph.edges[et] = np.ascontiguousarray(original[::-1])
        try:
            assert store.batched(graph, 1) is not single
        finally:
            graph.edges[et] = original

    def test_eviction_never_thrashes_hot_entries(self, ota1_placement,
                                                 tech, monkeypatch):
        """Regression: capacity used to clear() the whole store, so
        alternating across ``max_graphs + 1`` graphs rebuilt everything.
        LRU must evict only the stalest entry."""
        import repro.perf.cache as cache_mod
        grid = RoutingGrid(ota1_placement, tech)
        g1, g2, g3 = (build_hetero_graph(grid) for _ in range(3))
        builds = []
        real_build = cache_mod.build_batched
        monkeypatch.setattr(
            cache_mod, "build_batched",
            lambda graph, batch:
                builds.append(id(graph)) or real_build(graph, batch))
        store = ForwardCacheStore(max_graphs=2)
        store.batched(g1, 1)
        store.batched(g2, 1)
        store.batched(g2, 1)       # hit refreshes recency
        assert len(builds) == 2
        store.batched(g3, 1)       # at capacity: evicts g1 only (stalest)
        assert len(builds) == 3
        store.batched(g3, 1)
        store.batched(g2, 1)       # still cached — was NOT wholesale-evicted
        assert len(builds) == 3
        store.batched(g1, 1)       # g1 was the one evicted
        assert len(builds) == 4


class TestBatchedRelaxation:
    RELAX = dict(n_restarts=8, pool_size=4, n_derive=2, maxiter=12,
                 seed_points=0, seed=0)

    def test_one_forward_per_joint_evaluation(self, perf_model):
        graph, model = perf_model
        pot = PotentialFunction(model, graph)
        stats = pot.reset_stats()
        relaxer = PotentialRelaxer(
            RelaxationConfig(**{**self.RELAX, "n_restarts": 7}))
        relaxer.run(pot)
        trace = relaxer.trace
        # Waves of 4 (pool-building) and 3 (pool-seeded) restarts; every
        # restart records its wave's joint evaluation count.
        wave_sizes = (4, 3)
        wave_evals = (trace.restart_evals[0], trace.restart_evals[-1])
        assert trace.restart_evals == [wave_evals[0]] * 4 + [wave_evals[1]] * 3
        assert trace.gnn_forwards == stats.batched_evals == stats.forwards
        assert stats.batched_evals == sum(wave_evals)
        assert stats.candidates == sum(
            size * evals for size, evals in zip(wave_sizes, wave_evals))
        assert stats.evals == 0

    def test_trace_records_per_restart_observability(self, perf_model):
        graph, model = perf_model
        pot = PotentialFunction(model, graph)
        relaxer = PotentialRelaxer(RelaxationConfig(**self.RELAX))
        relaxer.run(pot)
        trace = relaxer.trace
        n = self.RELAX["n_restarts"]
        assert len(trace.restart_seconds) == n
        assert len(trace.restart_evals) == n
        assert all(s >= 0.0 for s in trace.restart_seconds)
        assert all(e >= 1 for e in trace.restart_evals)
        assert trace.gnn_forwards > 0


class TestTiming:
    def test_bench_payload_shape(self):
        spans = {
            "route": {"count": 8, "seconds": 0.25,
                      "outcomes": {"ok": 8}},
            "route.net": {"count": 40, "seconds": 0.2,
                          "outcomes": {"ok": 40}},
            "train": {"count": 1, "seconds": 1.5, "outcomes": {"ok": 1}},
        }
        payload = bench_payload(spans, extra={"scale": "smoke"})
        assert payload["schema_version"] == 1
        assert payload["scale"] == "smoke"
        # Only pipeline stages come out, with ``count`` renamed ``calls``.
        assert payload["stages"] == {
            "route": {"seconds": 0.25, "calls": 8},
            "train": {"seconds": 1.5, "calls": 1},
        }

    def test_regression_gate(self):
        baseline = {"stages": {"route": {"seconds": 1.0, "calls": 1},
                               "noise": {"seconds": 0.001, "calls": 1}}}
        ok = {"stages": {"route": {"seconds": 2.9, "calls": 1},
                         "noise": {"seconds": 1.0, "calls": 1}}}
        assert compare_to_baseline(ok, baseline) == []
        slow = {"stages": {"route": {"seconds": 3.1, "calls": 1}}}
        problems = compare_to_baseline(slow, baseline)
        assert len(problems) == 1 and "route" in problems[0]
        missing = {"stages": {}}
        assert any("missing" in p
                   for p in compare_to_baseline(missing, baseline))
