"""Invariants of pool-assisted potential relaxation.

Four contracts from the relaxation design (Section 4.3):

* the pool's best potential is non-increasing across pool updates —
  ``RelaxationTrace.best_per_restart`` is monotone by construction;
* the batched ``value_and_grad_batch`` that every joint wave evaluation
  runs agrees with the one-candidate ``value_and_grad`` per candidate to
  < 1e-10, across circuit sizes;
* trace timing fields are measured on the monotonic ``perf_counter``
  clock — tests assert shape and monotonicity (non-negative durations,
  one entry per attempted restart), never absolute durations, which are
  load-sensitive;
* a potential evaluation that raises drops the restarts of its wave
  only: the run returns what the other wave kept.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.potential import PotentialFunction
from repro.core.relaxation import PotentialRelaxer, RelaxationConfig
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d
from repro.netlist import build_benchmark
from repro.obs import RunContext
from repro.placement import place_benchmark
from repro.reliability.errors import RelaxationError
from repro.router import RoutingGrid
from repro.tech import generic_40nm

RELAX = dict(n_restarts=8, pool_size=4, n_derive=2, maxiter=12,
             seed_points=0, seed=0)

#: The three circuit sizes the agreement bound is checked on.
CIRCUITS = ("OTA1", "OTA2", "OTA3")


@pytest.fixture(scope="module")
def potentials():
    """One trained-shape potential per benchmark size (lazy, cached)."""
    cache: dict[str, PotentialFunction] = {}
    tech = generic_40nm()

    def get(name: str) -> PotentialFunction:
        if name not in cache:
            circuit = build_benchmark(name)
            placement = place_benchmark(circuit, variant="A", seed=0,
                                        iterations=60)
            graph = build_hetero_graph(RoutingGrid(placement, tech))
            model = Gnn3d(graph.ap_features.shape[1],
                          graph.module_features.shape[1])
            cache[name] = PotentialFunction(model, graph)
        return cache[name]

    return get


class TestPoolMonotonicity:
    def test_best_potential_non_increasing(self, potentials):
        pot = potentials("OTA1")
        relaxer = PotentialRelaxer(RelaxationConfig(**RELAX))
        solutions = relaxer.run(pot)
        best = relaxer.trace.best_per_restart
        assert len(best) == relaxer.trace.restarts > 0
        assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(best, best[1:])), (
            f"pool best potential increased: {best}")
        # The returned top-N is sorted and its head equals the pool best.
        returned = [s.potential for s in solutions]
        assert returned == sorted(returned)
        assert returned[0] == best[-1]

    def test_pool_never_exceeds_configured_size(self, potentials):
        pot = potentials("OTA1")
        cfg = RelaxationConfig(**RELAX)
        relaxer = PotentialRelaxer(cfg)
        pool: list = []
        rng = np.random.default_rng(0)
        for restart in range(10):
            x = rng.uniform(0.5, 2.0, size=pot.num_variables)
            value, _ = pot.value_and_grad(x)
            relaxer._keep(pool, restart, x, float(value), False, pot)
            assert len(pool) <= cfg.pool_size
            assert [s.potential for s in pool] == sorted(
                s.potential for s in pool)


class TestBatchedSerialAgreement:
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_value_and_grad_agree_below_1e10(self, potentials, name):
        pot = potentials(name)
        rng = np.random.default_rng(7)
        X = rng.uniform(0.5, 2.0, size=(3, pot.num_variables))
        values, grads = pot.value_and_grad_batch(X)
        for i in range(X.shape[0]):
            v, g = pot.value_and_grad(X[i])
            assert abs(v - values[i]) < 1e-10, (
                f"{name}: batched value diverges at candidate {i}")
            assert np.abs(g - grads[i]).max() < 1e-10, (
                f"{name}: batched gradient diverges at candidate {i}")


class TestTraceTimingShape:
    """Timing diagnostics: shape and monotonic-clock guarantees only.

    ``restart_seconds`` comes from ``time.perf_counter`` (monotonic), so
    durations are always non-negative; absolute values are load-dependent
    and must never be asserted.
    """

    def test_restart_seconds_shape(self, potentials):
        pot = potentials("OTA1")
        relaxer = PotentialRelaxer(RelaxationConfig(**RELAX))
        relaxer.run(pot)
        trace = relaxer.trace
        n = RELAX["n_restarts"]
        assert len(trace.restart_seconds) == n
        assert len(trace.restart_evals) == n
        assert all(s >= 0.0 for s in trace.restart_seconds)
        assert all(e >= 1 for e in trace.restart_evals)
        # Cumulative duration is monotone (equivalent to non-negativity,
        # stated as the property consumers rely on).
        cumulative = np.cumsum(trace.restart_seconds)
        assert all(a <= b + 1e-12 for a, b in zip(cumulative,
                                                  cumulative[1:]))

    def test_spans_mirror_trace_measurements(self, potentials):
        """relax.restart spans reuse the trace's own measurements."""
        pot = potentials("OTA1")
        obs = RunContext.recording()
        relaxer = PotentialRelaxer(RelaxationConfig(**RELAX), obs=obs)
        relaxer.run(pot)
        events = obs.drain_events()
        restarts = [e for e in events if e["name"] == "relax.restart"]
        assert len(restarts) == RELAX["n_restarts"]
        assert [e["seconds"] for e in restarts] == \
            relaxer.trace.restart_seconds
        assert [e["attrs"]["evals"] for e in restarts] == \
            relaxer.trace.restart_evals
        kept = sum(1 for e in restarts if e["outcome"] == "ok")
        assert kept == relaxer.trace.restarts
        diverged = sum(1 for e in restarts if e["outcome"] == "diverged")
        assert diverged == relaxer.trace.diverged
        # Counter totals match the trace's totals.
        assert obs.counter_values()["gnn_forwards"] == \
            relaxer.trace.gnn_forwards
        assert obs.counter_values()["lbfgs_evals"] >= \
            max(relaxer.trace.restart_evals)

    def test_reused_relaxer_resets_trace(self, potentials):
        pot = potentials("OTA1")
        relaxer = PotentialRelaxer(RelaxationConfig(**RELAX))
        relaxer.run(pot)
        first = list(relaxer.trace.restart_seconds)
        relaxer.run(pot)
        assert len(relaxer.trace.restart_seconds) == len(first)


class TestWaveDegradation:
    def test_error_in_second_wave_drops_that_wave_only(self, potentials,
                                                        monkeypatch):
        """A RelaxationError mid-wave drops every restart of the wave."""
        pot = potentials("OTA1")
        cfg = RelaxationConfig(**{**RELAX, "n_restarts": 7})
        wave1 = cfg.pool_size  # no seed points: wave 1 fills the pool
        reference = PotentialRelaxer(
            RelaxationConfig(**{**RELAX, "n_restarts": wave1})).run(pot)

        relaxer = PotentialRelaxer(cfg)
        evaluate = pot.value_and_grad_batch

        def failing_in_wave2(c_batch):
            if len(relaxer.trace.restart_evals) >= wave1:
                raise RelaxationError("injected wave-2 failure",
                                      stage="relaxation")
            return evaluate(c_batch)

        monkeypatch.setattr(pot, "value_and_grad_batch", failing_in_wave2)
        out = relaxer.run(pot)

        trace = relaxer.trace
        wave2 = list(range(wave1, cfg.n_restarts))
        assert trace.diverged == len(wave2)
        assert trace.restarts == wave1
        assert [f.split(":")[0] for f in trace.failures] == [
            f"restart {i}" for i in wave2]
        assert all("injected wave-2 failure" in f for f in trace.failures)
        assert len(trace.restart_seconds) == cfg.n_restarts
        # The run returns the first wave's survivors, bit for bit.
        assert [s.potential for s in out] == [s.potential for s in reference]
        for got, want in zip(out, reference):
            np.testing.assert_array_equal(got.guidance, want.guidance)
