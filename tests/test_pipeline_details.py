"""Focused tests on pipeline selection and relaxation seeding behavior."""

import numpy as np
import pytest

from repro.core import (
    AnalogFold,
    AnalogFoldConfig,
    DatasetConfig,
    PotentialFunction,
    PotentialRelaxer,
    RelaxationConfig,
)
from repro.model import Gnn3dConfig, TrainConfig
from repro.obs import RunContext
from repro.simulation import FoMWeights


@pytest.fixture(scope="module")
def tiny_fold(ota1, ota1_placement, tech):
    fold = AnalogFold(
        ota1, ota1_placement, tech,
        config=AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=6, seed=2),
            gnn=Gnn3dConfig(hidden=16, num_layers=2, seed=2),
            training=TrainConfig(epochs=4, val_fraction=0.0, patience=0),
            relaxation=RelaxationConfig(n_restarts=4, pool_size=3, n_derive=2,
                                        maxiter=8, seed=2, seed_points=2),
        ),
    )
    fold.train()
    return fold


class TestRelaxationSeeding:
    def test_seed_guidance_used_for_first_restarts(self, tiny_fold):
        potential = PotentialFunction(tiny_fold.model, tiny_fold.database.graph)
        seeds = tiny_fold._best_database_guidance()
        assert len(seeds) == 2
        for s in seeds:
            assert s.shape == (tiny_fold.database.graph.num_aps, 3)

    def test_seeds_are_best_measured_samples(self, tiny_fold):
        weights = FoMWeights()
        ranked = sorted(tiny_fold.database.samples,
                        key=lambda s: weights.fom(s.metrics))
        seeds = tiny_fold._best_database_guidance()
        keys = tiny_fold.database.graph.ap_keys
        np.testing.assert_allclose(seeds[0], ranked[0].guidance.as_array(keys))

    def test_bad_seed_shape_raises(self, tiny_fold):
        potential = PotentialFunction(tiny_fold.model, tiny_fold.database.graph)
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=2, pool_size=2, n_derive=1, maxiter=3, seed_points=1))
        with pytest.raises(ValueError, match="seed guidance"):
            relaxer.run(potential, seed_guidance=[np.ones(5)])

    def test_seeded_run_at_least_as_good_as_unseeded(self, tiny_fold):
        potential = PotentialFunction(tiny_fold.model, tiny_fold.database.graph)
        seeds = tiny_fold._best_database_guidance()

        def best(seed_guidance):
            relaxer = PotentialRelaxer(RelaxationConfig(
                n_restarts=3, pool_size=2, n_derive=1, maxiter=10, seed=0,
                seed_points=2))
            return relaxer.run(potential, seed_guidance=seed_guidance)[0].potential

        # With identical budgets and the same RNG, the seeded variant
        # replaces random inits with known-good points: its best potential
        # must not be dramatically worse.
        assert best(seeds) <= best(None) + 0.5


class TestSelection:
    def test_simulation_selection_never_worse_than_database_best(
        self, tiny_fold
    ):
        result = tiny_fold.run()
        weights = FoMWeights()
        best_db = min(weights.fom(s.metrics)
                      for s in tiny_fold.database.samples)
        assert weights.fom(result.metrics) <= best_db + 1e-9

    def test_potential_selection_routes_once(self, ota1, ota1_placement, tech):
        fold = AnalogFold(
            ota1, ota1_placement, tech,
            config=AnalogFoldConfig(
                dataset=DatasetConfig(num_samples=4, seed=3),
                gnn=Gnn3dConfig(hidden=8, num_layers=1, seed=3),
                training=TrainConfig(epochs=2, val_fraction=0.0, patience=0),
                relaxation=RelaxationConfig(n_restarts=2, pool_size=2,
                                            n_derive=2, maxiter=4, seed=3),
                select_by="potential",
            ),
        )
        result = fold.run()
        # The chosen guidance must correspond to the lowest-potential
        # derived solution.
        best = min(result.derived, key=lambda d: d.potential)
        keys = fold.database.graph.ap_keys
        np.testing.assert_allclose(
            result.guidance.as_array(keys), np.clip(best.guidance, None, None))

    def test_stage_seconds_cover_all_stages(self, tiny_fold):
        result = tiny_fold.run()
        assert set(result.stage_seconds) == {
            "construct_database", "model_training", "guide_generation",
            "guided_routing",
        }


class TestStageFaults:
    def test_recorded_stage_spans_carry_minor_faults(self, ota1,
                                                     ota1_placement, tech):
        obs = RunContext.recording()
        fold = AnalogFold(
            ota1, ota1_placement, tech,
            config=AnalogFoldConfig(
                dataset=DatasetConfig(num_samples=3, seed=5),
                gnn=Gnn3dConfig(hidden=8, num_layers=1, seed=5),
                training=TrainConfig(epochs=1, val_fraction=0.0, patience=0),
                relaxation=RelaxationConfig(n_restarts=2, pool_size=1,
                                            n_derive=1, maxiter=2, seed=5),
            ),
            obs=obs,
        )
        fold.run()
        stages = {e["name"]: e["attrs"] for e in obs.drain_events()
                  if e["name"].startswith("stage.")}
        assert set(stages) == {
            "stage.construct_database", "stage.model_training",
            "stage.guide_generation", "stage.guided_routing"}
        counters = obs.metrics.counter_values()
        for name, attrs in stages.items():
            faults = attrs["minflt"]
            assert isinstance(faults, int) and faults >= 0
            stage = name.removeprefix("stage.")
            assert counters.get(f"stage_minflt_total{{stage={stage}}}", 0) == faults
