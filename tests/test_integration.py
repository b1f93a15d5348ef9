"""Cross-module integration tests: the full physical chain end to end."""

import numpy as np
import pytest

from repro import (
    AnalogFold,
    AnalogFoldConfig,
    DatasetConfig,
    FoMWeights,
    IterativeRouter,
    RoutingGrid,
    build_benchmark,
    extract,
    extract_schematic,
    place_benchmark,
    simulate_performance,
    uniform_guidance,
    generic_40nm,
)
from repro.core import RelaxationConfig
from repro.model import Gnn3dConfig, TrainConfig
from repro.router.guidance import random_guidance
from tests.router_oracle import check_drc


class TestPhysicalChain:
    """Placement -> routing -> extraction -> simulation invariants."""

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3", "OTA4"])
    def test_every_benchmark_routes_and_simulates(self, name, tech):
        circuit = build_benchmark(name)
        placement = place_benchmark(circuit, variant="A", iterations=100)
        grid = RoutingGrid(placement, tech)
        result = IterativeRouter(grid).route_all()
        assert result.success, result.failed_nets
        hard = [v for v in check_drc(result, grid)
                if v.kind in ("short", "open", "unrouted")]
        assert hard == []
        metrics = simulate_performance(circuit, extract(result, grid, tech))
        assert np.isfinite(metrics.to_normalized()).all()

    def test_layout_vs_schematic_ordering(self, tech):
        """Post-layout must never beat the schematic on offset and CMRR."""
        for name in ("OTA1", "OTA3"):
            circuit = build_benchmark(name)
            schem = simulate_performance(
                circuit, extract_schematic(list(circuit.nets)))
            placement = place_benchmark(circuit, variant="A", iterations=100)
            grid = RoutingGrid(placement, tech)
            result = IterativeRouter(grid).route_all()
            layout = simulate_performance(circuit, extract(result, grid, tech))
            assert layout.offset_uv >= schem.offset_uv
            assert layout.cmrr_db <= schem.cmrr_db

    def test_worse_routing_worse_fom_on_average(self, ota1, ota1_placement,
                                                tech):
        """Deliberately chaotic guidance should not beat neutral on FoM
        across several seeds (sanity of the whole objective landscape)."""
        weights = FoMWeights()
        grid = RoutingGrid(ota1_placement, tech)
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        neutral_grid = RoutingGrid(ota1_placement, tech)
        neutral = IterativeRouter(neutral_grid, uniform_guidance()).route_all()
        fom_neutral = weights.fom(simulate_performance(
            ota1, extract(neutral, neutral_grid, tech)))

        foms = []
        for seed in range(3):
            g = RoutingGrid(ota1_placement, tech)
            guided = IterativeRouter(
                g, random_guidance(keys, np.random.default_rng(seed))
            ).route_all()
            foms.append(weights.fom(simulate_performance(
                ota1, extract(guided, g, tech))))
        assert fom_neutral <= max(foms)


class TestLearningSignal:
    """The 3DGNN must learn something real from the database."""

    def test_model_beats_mean_predictor(self, ota1, ota1_placement, tech):
        from repro.core import generate_dataset
        from repro.model import Gnn3d, Trainer

        db = generate_dataset(ota1, ota1_placement, tech,
                              DatasetConfig(num_samples=14, seed=3))
        samples = db.train_samples()
        train, test = samples[:11], samples[11:]
        model = Gnn3d(db.graph.ap_features.shape[1],
                      db.graph.module_features.shape[1],
                      Gnn3dConfig(hidden=16, num_layers=2, seed=0))
        trainer = Trainer(model, db.graph,
                          TrainConfig(epochs=30, val_fraction=0.0, patience=0,
                                      lr=3e-3))
        trainer.fit(train)

        targets = np.stack([s.targets for s in train])
        mean_pred = targets.mean(axis=0)
        model_err, mean_err = 0.0, 0.0
        from repro.nn import Tensor
        for s in test:
            pred = model(db.graph, Tensor(s.guidance)).numpy()
            model_err += float(((pred - s.targets) ** 2).mean())
            mean_err += float(((mean_pred - s.targets) ** 2).mean())
        assert model_err <= mean_err * 1.5  # at least competitive


class TestAnalogFoldEndToEnd:
    def test_fold_result_not_catastrophic(self, ota1, ota1_placement, tech):
        """AnalogFold's chosen routing must stay within a sane FoM band of
        the unguided router even at tiny training scale."""
        from repro.baselines import route_magical

        fold = AnalogFold(
            ota1, ota1_placement, tech,
            config=AnalogFoldConfig(
                dataset=DatasetConfig(num_samples=8, seed=0),
                gnn=Gnn3dConfig(hidden=16, num_layers=2, seed=0),
                training=TrainConfig(epochs=8, val_fraction=0.0, patience=0),
                relaxation=RelaxationConfig(n_restarts=4, pool_size=3,
                                            n_derive=2, maxiter=15, seed=0),
            ),
        )
        result = fold.run()
        magical, _ = route_magical(ota1, ota1_placement, tech)
        weights = FoMWeights()
        assert weights.fom(result.metrics) < weights.fom(magical.metrics) + 3.0

    def test_derived_guidance_in_feasible_region(self, ota1, ota1_placement,
                                                 tech):
        fold = AnalogFold(
            ota1, ota1_placement, tech,
            config=AnalogFoldConfig(
                dataset=DatasetConfig(num_samples=4, seed=1),
                gnn=Gnn3dConfig(hidden=8, num_layers=1, seed=1),
                training=TrainConfig(epochs=2, val_fraction=0.0, patience=0),
                relaxation=RelaxationConfig(n_restarts=2, pool_size=2,
                                            n_derive=1, maxiter=5, seed=1),
            ),
        )
        derived = fold.derive_guidance()
        for d in derived:
            assert (d.guidance > 0).all()
            assert (d.guidance < fold.config.dataset.c_max).all()
