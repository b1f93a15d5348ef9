"""Tests for the potential function, relaxation, dataset, and pipeline."""

from unittest import mock

import numpy as np
import pytest

from repro.core import (
    AnalogFold,
    AnalogFoldConfig,
    DatasetConfig,
    PotentialFunction,
    PotentialRelaxer,
    RelaxationConfig,
    generate_dataset,
)
from repro.core import relaxation
from repro.eval.runtime import runtime_breakdown
from repro.model import Gnn3d, Gnn3dConfig, TrainConfig
from repro.simulation.metrics import FoMWeights


@pytest.fixture(scope="module")
def trained_setup(ota1, ota1_placement, tech):
    """A tiny trained pipeline shared by core tests."""
    fold = AnalogFold(
        ota1, ota1_placement, tech,
        config=AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=5, seed=0),
            gnn=Gnn3dConfig(hidden=16, num_layers=2, seed=0),
            training=TrainConfig(epochs=4, val_fraction=0.0, patience=0),
            relaxation=RelaxationConfig(n_restarts=3, pool_size=2, n_derive=2,
                                        maxiter=10, seed=0),
        ),
    )
    fold.train()
    return fold


class TestPotential:
    def test_value_and_grad_shapes(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        x = np.full(pot.num_variables, 1.5)
        value, grad = pot.value_and_grad(x)
        assert np.isfinite(value)
        assert grad.shape == (pot.num_variables,)

    def test_gradient_matches_finite_difference(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        x = np.full(pot.num_variables, 1.3)
        _, grad = pot.value_and_grad(x)
        eps = 1e-5
        for i in (0, 7):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (pot.value(xp) - pot.value(xm)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-3, abs=1e-7)

    def test_infeasible_point_returns_inf(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        x = np.full(pot.num_variables, 1.5)
        x[0] = -0.1
        value, grad = pot.value_and_grad(x)
        assert value == float("inf")
        assert grad[0] < 0  # pushes back up

    def test_barrier_explodes_near_boundary(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        mid = pot.value(np.full(pot.num_variables, 2.0))
        near_edge = pot.value(np.full(pot.num_variables, 1e-6))
        assert near_edge > mid

    def test_invalid_config_raises(self, trained_setup):
        with pytest.raises(ValueError):
            PotentialFunction(trained_setup.model,
                              trained_setup.database.graph, c_max=-1.0)


class TestRelaxation:
    def test_returns_n_derive_sorted(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=4, pool_size=3, n_derive=2, maxiter=8, seed=0))
        out = relaxer.run(pot)
        assert len(out) == 2
        assert out[0].potential <= out[1].potential

    def test_solutions_feasible(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=3, pool_size=2, n_derive=1, maxiter=8, seed=1))
        best = relaxer.run(pot)[0]
        assert (best.guidance > 0).all()
        assert (best.guidance < pot.c_max).all()

    def test_relaxation_improves_over_random_init(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        rng = np.random.default_rng(0)
        random_vals = [
            pot.value(rng.uniform(0.5, 2.0, pot.num_variables))
            for _ in range(5)
        ]
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=4, pool_size=3, n_derive=1, maxiter=20, seed=0))
        best = relaxer.run(pot)[0]
        assert best.potential <= min(random_vals)

    def test_pool_seeding_happens(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=8, pool_size=2, n_derive=1, p_relax=1.0, maxiter=5,
            seed=0))
        relaxer.run(pot)
        assert relaxer.trace.pool_seeded > 0

    def test_best_potential_monotone_in_trace(self, trained_setup):
        pot = PotentialFunction(trained_setup.model, trained_setup.database.graph)
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=5, pool_size=3, n_derive=1, maxiter=5, seed=2))
        relaxer.run(pot)
        bests = relaxer.trace.best_per_restart
        assert bests == sorted(bests, reverse=True)

    def test_final_values_reuse_the_last_evaluation(self, trained_setup):
        """A wave reads its per-restart values from L-BFGS-B's last
        evaluation when that was at ``result.x``, and gives the outputs of
        evaluating ``result.x`` again, bit for bit."""
        pot = PotentialFunction(trained_setup.model,
                                trained_setup.database.graph)
        cfg = RelaxationConfig(n_restarts=6, pool_size=3, n_derive=3,
                               maxiter=6, seed=4)

        def run():
            before = pot.stats.forwards
            out = PotentialRelaxer(cfg).run(pot)
            return out, pot.stats.forwards - before

        reused, reused_forwards = run()
        real = relaxation.minimize

        def evaluate_elsewhere_last(fun, x0, **kwargs):
            result = real(fun, x0, **kwargs)
            fun(x0)  # the last evaluation is no longer at result.x
            return result

        with mock.patch.object(relaxation, "minimize",
                               evaluate_elsewhere_last):
            again, again_forwards = run()
        # Two waves; each pays the detour and the evaluation at result.x.
        assert again_forwards == reused_forwards + 2 * 2
        assert [s.potential for s in reused] == [s.potential for s in again]
        for a, b in zip(reused, again):
            assert a.guidance.tobytes() == b.guidance.tobytes()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RelaxationConfig(n_derive=5, pool_size=2)
        with pytest.raises(ValueError):
            RelaxationConfig(p_relax=1.5)


class TestDataset:
    def test_dataset_size_and_labels(self, trained_setup):
        db = trained_setup.database
        assert len(db.samples) == 5
        for sample in db.samples:
            assert sample.result.success
            assert np.isfinite(sample.metrics.to_normalized()).all()

    def test_train_samples_aligned_with_graph(self, trained_setup):
        db = trained_setup.database
        for ts in db.train_samples():
            assert ts.guidance.shape == (db.graph.num_aps, 3)
            assert ts.targets.shape == (5,)

    def test_uniform_sample_first(self, trained_setup):
        first = trained_setup.database.samples[0]
        vec = first.guidance.get(trained_setup.database.graph.ap_keys[0])
        assert (vec == 1.0).all()

    def test_samples_differ(self, trained_setup):
        db = trained_setup.database
        key = db.graph.ap_keys[0]
        vecs = [s.guidance.get(key) for s in db.samples[1:]]
        assert not all((v == vecs[0]).all() for v in vecs)

    def test_deterministic_given_seed(self, ota1, ota1_placement, tech):
        cfg = DatasetConfig(num_samples=2, seed=42)
        a = generate_dataset(ota1, ota1_placement, tech, cfg)
        b = generate_dataset(ota1, ota1_placement, tech, cfg)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.metrics == sb.metrics


class TestPipeline:
    def test_full_run_produces_metrics(self, trained_setup):
        result = trained_setup.run()
        assert result.routing.success
        assert result.metrics.noise_uvrms > 0
        assert len(result.derived) == 2

    def test_stage_timings_recorded(self, trained_setup):
        result = trained_setup.run()
        for stage in ("construct_database", "model_training",
                      "guide_generation", "guided_routing"):
            assert stage in result.stage_seconds
            assert result.stage_seconds[stage] > 0

    def test_runtime_breakdown_sums_to_one(self, trained_setup):
        result = trained_setup.run()
        fractions = runtime_breakdown(result)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_select_by_simulation(self, ota1, ota1_placement, tech):
        fold = AnalogFold(
            ota1, ota1_placement, tech,
            config=AnalogFoldConfig(
                dataset=DatasetConfig(num_samples=3, seed=1),
                gnn=Gnn3dConfig(hidden=8, num_layers=1, seed=1),
                training=TrainConfig(epochs=2, val_fraction=0.0, patience=0),
                relaxation=RelaxationConfig(n_restarts=2, pool_size=2,
                                            n_derive=2, maxiter=5, seed=1),
                select_by="simulation",
            ),
        )
        result = fold.run()
        weights = FoMWeights()
        # The chosen result must be at least as good as every candidate's
        # potential-ranked alternative would have been measured.
        assert np.isfinite(weights.fom(result.metrics))

    def test_invalid_select_by(self):
        with pytest.raises(ValueError):
            AnalogFoldConfig(select_by="magic")
