"""Fault-injection tests proving every degradation path of the pipeline.

Faults are injected deterministically (explicit call indices, or a
probability hashed per call index) so each test exercises a known failure
pattern: skip-and-resample, retry-with-perturbed-guidance, the
``min_valid_samples`` floor, dropped NaN restarts in relaxation, and
checkpoint write/resume round trips.
"""

import json
import math

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
from repro.core.dataset import GuidanceSample
from repro.model import Gnn3dConfig, TrainConfig
from repro.reliability import (
    CheckpointError,
    DataQualityError,
    DegradationPolicy,
    FaultInjector,
    FaultPlan,
    RelaxationError,
    ReproError,
    RetryPolicy,
    RoutingError,
    ServeError,
    SimulationError,
    dataset_fingerprint,
    error_for_stage,
    fault_scope,
    inject_faults,
    load_checkpoint,
    retry_call,
    validate_sample,
)
from repro.router import RoutingGrid
from repro.router.result import RoutingResult
from repro.simulation.metrics import PerformanceMetrics


@pytest.fixture(scope="module")
def trained_fold(ota1, ota1_placement, tech):
    """A tiny trained pipeline shared by relaxation/pipeline tests."""
    fold = AnalogFold(
        ota1, ota1_placement, tech,
        config=AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=4, seed=3),
            gnn=Gnn3dConfig(hidden=12, num_layers=1, seed=0),
            training=TrainConfig(epochs=3, val_fraction=0.0, patience=0),
            relaxation=RelaxationConfig(n_restarts=3, pool_size=2,
                                        n_derive=2, maxiter=6, seed=0),
        ),
    )
    fold.train()
    return fold


@pytest.fixture(scope="module")
def potential(trained_fold):
    return PotentialFunction(trained_fold.model, trained_fold.database.graph)


class TestErrorTaxonomy:
    def test_context_in_message(self):
        err = RoutingError("net unroutable", stage="routing",
                           sample_index=7, net="VOUTP", attempt=1)
        text = str(err)
        assert "net unroutable" in text
        assert "stage=routing" in text
        assert "sample_index=7" in text
        assert "net=VOUTP" in text

    def test_subclasses_runtime_error(self):
        # Pre-taxonomy call sites catch RuntimeError; they must keep working.
        assert issubclass(SimulationError, RuntimeError)
        with pytest.raises(RuntimeError):
            raise DataQualityError("bad sample")

    def test_with_context_fills_only_missing(self):
        err = SimulationError("singular", stage="simulation")
        err.with_context(stage="other", sample_index=3)
        assert err.stage == "simulation"
        assert err.sample_index == 3

    def test_error_for_stage(self):
        assert error_for_stage("routing") is RoutingError
        assert error_for_stage("nonsense") is ReproError

    def test_context_dict(self):
        err = RoutingError("x", stage="routing", details={"grid": "full"})
        assert err.context() == {"stage": "routing",
                                 "details": {"grid": "full"}}


class TestRetry:
    def test_succeeds_after_reseed(self):
        calls = []

        def flaky(seed=0):
            calls.append(seed)
            if seed < 2:
                raise RoutingError("bad seed", stage="routing")
            return seed

        result = retry_call(
            flaky,
            policy=RetryPolicy(max_attempts=4),
            reseed=lambda attempt, kw: {"seed": attempt},
        )
        assert result == 2
        assert calls == [0, 1, 2]

    def test_gives_up_with_attempt_context(self):
        def always_fails(seed=0):
            raise RoutingError("nope", stage="routing")

        with pytest.raises(RoutingError) as exc_info:
            retry_call(always_fails, policy=RetryPolicy(max_attempts=3),
                       reseed=lambda attempt, kw: kw)
        assert exc_info.value.attempt == 2

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def typo():
            calls.append(1)
            raise KeyError("not a pipeline failure")

        with pytest.raises(KeyError):
            retry_call(typo, policy=RetryPolicy(max_attempts=5))
        assert len(calls) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)

    def test_backoff_schedule(self):
        pol = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                          backoff_max=3.0)
        assert pol.sleep_for(1) == 1.0
        assert pol.sleep_for(2) == 2.0
        assert pol.sleep_for(3) == 3.0  # capped

    def test_full_jitter_bounded_by_schedule_and_cap(self):
        pol = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                          backoff_max=3.0, jitter="full")
        for attempt in range(1, 8):
            ceiling = min(2.0 ** (attempt - 1), 3.0)
            assert 0.0 <= pol.sleep_for(attempt) <= ceiling

    def test_full_jitter_is_deterministic_per_seed(self):
        pol_a = RetryPolicy(backoff_base=1.0, jitter="full", jitter_seed=7)
        pol_b = RetryPolicy(backoff_base=1.0, jitter="full", jitter_seed=7)
        draws_a = [pol_a.sleep_for(n) for n in range(1, 6)]
        # Draws depend only on (jitter_seed, attempt): re-asking the
        # same policy — or an identically-seeded twin — repeats them.
        assert [pol_a.sleep_for(n) for n in range(1, 6)] == draws_a
        assert [pol_b.sleep_for(n) for n in range(1, 6)] == draws_a

    def test_differently_seeded_policies_decorrelate(self):
        pol_a = RetryPolicy(backoff_base=1.0, jitter="full", jitter_seed=0)
        pol_b = RetryPolicy(backoff_base=1.0, jitter="full", jitter_seed=1)
        assert [pol_a.sleep_for(n) for n in range(1, 6)] != \
            [pol_b.sleep_for(n) for n in range(1, 6)]

    def test_zero_base_never_sleeps_even_with_jitter(self):
        pol = RetryPolicy(backoff_base=0.0, jitter="full")
        assert all(pol.sleep_for(n) == 0.0 for n in range(1, 5))

    def test_jitter_mode_validation(self):
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter="equal")


class TestConfigValidation:
    def test_dataset_config(self):
        with pytest.raises(ValueError, match="num_samples"):
            DatasetConfig(num_samples=0)
        with pytest.raises(ValueError, match="c_max"):
            DatasetConfig(c_max=-1.0)
        with pytest.raises(ValueError, match="routing_pitch"):
            DatasetConfig(routing_pitch=0.0)

    def test_relaxation_config(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            RelaxationConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError, match="maxiter"):
            RelaxationConfig(maxiter=0)
        with pytest.raises(ValueError, match="seed_points"):
            RelaxationConfig(n_restarts=2, seed_points=5)

    def test_degradation_policy(self):
        with pytest.raises(ValueError, match="max_retries"):
            DegradationPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="min_valid_fraction"):
            DegradationPolicy(min_valid_fraction=1.5)

    def test_min_valid_samples_floor(self):
        assert DegradationPolicy(min_valid_fraction=0.5).min_valid_samples(5) == 3
        assert DegradationPolicy(min_valid_fraction=0.0).min_valid_samples(5) == 1
        assert DegradationPolicy(min_valid_fraction=1.0).min_valid_samples(5) == 5


class TestFaultPlan:
    def test_explicit_indices(self):
        plan = FaultPlan(stage="routing", fail_indices={1, 3})
        assert [plan.selects(i) for i in range(5)] == [
            False, True, False, True, False]

    def test_probability_deterministic_per_index(self):
        plan = FaultPlan(stage="routing", probability=0.2, seed=10)
        first = [plan.selects(i) for i in range(12)]
        assert first == [plan.selects(i) for i in range(12)]
        assert first == [i == 1 for i in range(12)]  # seed chosen for this

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(stage="routing", probability=1.5)

    def test_injected_error_type_matches_stage(self):
        injector = FaultInjector(
            FaultPlan(stage="simulation", fail_indices={0}))
        with injector:
            with pytest.raises(SimulationError) as exc_info:
                injector.check("simulation")
        assert exc_info.value.details["injected"] is True

    def test_stall_plan_reports_duration_instead_of_raising(self):
        plan = FaultPlan(stage="serve_stall", fail_units={2},
                         stall_seconds=1.5)
        injector = FaultInjector(plan)
        with injector:
            with fault_scope(1):
                assert injector.stall("serve_stall") == 0.0
            with fault_scope(2):
                # A stall plan never raises — check() sees no raising
                # plan on the stage — it reports the stall duration.
                injector.check("serve_stall")
                assert injector.stall("serve_stall") == 1.5

    def test_stall_and_raise_plans_are_independent(self):
        stall = FaultPlan(stage="serve", fail_units={0},
                          stall_seconds=2.0)
        raising = FaultPlan(stage="serve", fail_units={1})
        injector = FaultInjector(stall, raising)
        with injector:
            with fault_scope(0):
                assert injector.stall("serve") == 2.0
                injector.check("serve")  # raising plan targets unit 1
            with fault_scope(1):
                assert injector.stall("serve") == 0.0
                with pytest.raises(ServeError):
                    injector.check("serve")

    def test_stall_seconds_validation(self):
        with pytest.raises(ValueError, match="stall_seconds"):
            FaultPlan(stage="serve", stall_seconds=-1.0)


class TestDatasetDegradation:
    def test_skip_and_resample_backfills(self, ota1, ota1_placement, tech):
        plan = FaultPlan(stage="routing", fail_indices={1})
        with inject_faults(plan):
            db = generate_dataset(
                ota1, ota1_placement, tech,
                DatasetConfig(num_samples=3, seed=0),
                policy=DegradationPolicy(max_retries=0),
            )
        assert len(db.samples) == 3  # skipped sample backfilled
        assert db.report.valid == 3
        assert db.report.resampled == 1
        assert len(db.report.skipped) == 1
        assert db.report.skipped[0].stage == "routing"
        assert db.report.skipped[0].sample_index == 1

    def test_retry_with_perturbed_guidance_recovers(
            self, ota1, ota1_placement, tech):
        plan = FaultPlan(stage="routing", fail_indices={1})
        with inject_faults(plan) as injector:
            db = generate_dataset(
                ota1, ota1_placement, tech,
                DatasetConfig(num_samples=3, seed=0),
                policy=DegradationPolicy(max_retries=1),
            )
        assert len(db.samples) == 3
        assert db.report.retried == 1
        assert not db.report.skipped
        assert db.report.resampled == 0
        # 3 samples + 1 retry = 4 router invocations.
        assert injector.calls["routing"] == 4

    def test_twenty_percent_faults_meets_floor(
            self, ota1, ota1_placement, tech):
        # Acceptance criterion: 20% injected faults, the database still
        # meets min_valid_samples and reaches the requested size.
        policy = DegradationPolicy(max_retries=1, min_valid_fraction=0.5)
        plan = FaultPlan(stage="routing", probability=0.2, seed=10)
        with inject_faults(plan) as injector:
            db = generate_dataset(
                ota1, ota1_placement, tech,
                DatasetConfig(num_samples=5, seed=0),
                policy=policy,
            )
        assert injector.injected  # at least one fault actually fired
        assert len(db.samples) >= policy.min_valid_samples(5)
        assert db.report.valid == len(db.samples)

    def test_faults_beyond_floor_raise_data_quality_error(
            self, ota1, ota1_placement, tech):
        plan = FaultPlan(stage="routing", probability=1.0)
        with inject_faults(plan):
            with pytest.raises(DataQualityError) as exc_info:
                generate_dataset(
                    ota1, ota1_placement, tech,
                    DatasetConfig(num_samples=3, seed=0),
                    policy=DegradationPolicy(max_retries=0,
                                             min_valid_fraction=0.5,
                                             resample_budget=1),
                )
        err = exc_info.value
        assert err.stage == "database"
        assert err.details["valid"] == 0
        assert err.details["floor"] == 2
        assert err.details["requested"] == 3
        assert err.details["failures_by_stage"]["routing"] == 4

    def test_simulation_stage_faults_are_typed(
            self, ota1, ota1_placement, tech):
        plan = FaultPlan(stage="simulation", fail_indices={0})
        with inject_faults(plan):
            db = generate_dataset(
                ota1, ota1_placement, tech,
                DatasetConfig(num_samples=2, seed=0),
                policy=DegradationPolicy(max_retries=0),
            )
        assert len(db.samples) == 2
        assert db.report.skipped[0].stage == "simulation"

    def test_quality_gate_rejects_nan_metrics(
            self, ota1, ota1_placement, tech, monkeypatch):
        import repro.core.dataset as dataset_mod

        def nan_metrics(circuit, parasitics, config=None):
            return PerformanceMetrics(
                offset_uv=math.nan, cmrr_db=60.0, bandwidth_mhz=100.0,
                gain_db=30.0, noise_uvrms=50.0)

        monkeypatch.setattr(dataset_mod, "simulate_performance", nan_metrics)
        with pytest.raises(DataQualityError) as exc_info:
            generate_dataset(
                ota1, ota1_placement, tech,
                DatasetConfig(num_samples=1, seed=0),
                policy=DegradationPolicy(max_retries=0, resample_budget=0),
            )
        assert exc_info.value.details["failures_by_stage"] == {"quality": 1}

    def test_no_faults_identical_to_seed_behavior(
            self, ota1, ota1_placement, tech):
        # The degradation machinery must not perturb the no-failure path.
        cfg = DatasetConfig(num_samples=2, seed=42)
        plain = generate_dataset(ota1, ota1_placement, tech, cfg)
        policied = generate_dataset(
            ota1, ota1_placement, tech, cfg,
            policy=DegradationPolicy(max_retries=3, min_valid_fraction=1.0))
        for a, b in zip(plain.samples, policied.samples):
            assert a.metrics == b.metrics


class TestValidateSample:
    def _sample(self, **overrides) -> GuidanceSample:
        metrics = PerformanceMetrics(**{
            "offset_uv": 12.0, "cmrr_db": 60.0, "bandwidth_mhz": 100.0,
            "gain_db": 30.0, "noise_uvrms": 50.0, **overrides})
        return GuidanceSample(guidance=None, result=RoutingResult(),
                              metrics=metrics)

    def test_finite_sample_passes(self):
        assert validate_sample(self._sample()) is None

    def test_nan_and_inf_rejected(self):
        reason = validate_sample(self._sample(offset_uv=math.nan))
        assert "offset_uv" in reason
        reason = validate_sample(self._sample(noise_uvrms=math.inf))
        assert "noise_uvrms" in reason

    def test_require_routed(self):
        sample = self._sample()
        sample.result.failed_nets = ["VOUTP"]
        assert validate_sample(sample) is None
        assert "VOUTP" in validate_sample(sample, require_routed=True)


class TestRelaxationDegradation:
    def test_trace_resets_between_runs(self, potential):
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=3, pool_size=2, n_derive=1, maxiter=4, seed=0))
        relaxer.run(potential)
        relaxer.run(potential)
        assert relaxer.trace.restarts == 3  # not 6: one run's diagnostics
        assert len(relaxer.trace.best_per_restart) == 3

    def test_nan_restarts_dropped_with_survivors(self, potential):
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=3, pool_size=2, n_derive=1, maxiter=4, seed=0))
        with inject_faults(FaultPlan(stage="relaxation", fail_indices={0})):
            out = relaxer.run(potential)
        assert len(out) == 1
        assert np.isfinite(out[0].potential)
        assert relaxer.trace.diverged == 1
        assert relaxer.trace.restarts == 2
        assert "non-finite potential" in relaxer.trace.failures[0]

    def test_all_diverged_raises_with_trace(self, potential):
        relaxer = PotentialRelaxer(RelaxationConfig(
            n_restarts=3, pool_size=2, n_derive=1, maxiter=4, seed=0))
        with inject_faults(FaultPlan(stage="relaxation", probability=1.0)):
            with pytest.raises(RelaxationError) as exc_info:
                relaxer.run(potential)
        trace = exc_info.value.details["trace"]
        assert trace["diverged"] == 3
        assert len(trace["failures"]) == 3


class TestCheckpoint:
    def _config(self):
        return DatasetConfig(num_samples=3, seed=0)

    def test_round_trip(self, ota1, ota1_placement, tech, tmp_path):
        path = tmp_path / "db.ckpt.jsonl"
        cfg = self._config()
        db = generate_dataset(ota1, ota1_placement, tech, cfg,
                              checkpoint_path=path)
        grid = RoutingGrid(ota1_placement, tech, pitch=cfg.routing_pitch)
        loaded = load_checkpoint(
            path, dataset_fingerprint(ota1, cfg, grid), grid)
        assert sorted(loaded) == [0, 1, 2]
        for index, sample in enumerate(db.samples):
            restored = loaded[index]
            assert restored.metrics == sample.metrics
            keys = db.graph.ap_keys
            np.testing.assert_array_equal(restored.guidance.as_array(keys),
                                          sample.guidance.as_array(keys))
            for net, route in sample.result.routes.items():
                assert restored.result.routes[net].cells() == route.cells()

    def test_resume_does_not_reroute_completed_samples(
            self, ota1, ota1_placement, tech, tmp_path):
        path = tmp_path / "db.ckpt.jsonl"
        cfg = self._config()
        first = generate_dataset(ota1, ota1_placement, tech, cfg,
                                 checkpoint_path=path)
        with FaultInjector() as observer:  # no plans: pure call counting
            resumed = generate_dataset(ota1, ota1_placement, tech, cfg,
                                       checkpoint_path=path, resume=True)
        assert observer.calls.get("routing", 0) == 0
        assert observer.calls.get("simulation", 0) == 0
        assert resumed.report.reused == 3
        for a, b in zip(first.samples, resumed.samples):
            assert a.metrics == b.metrics

    def test_resume_after_midway_kill_recomputes_only_missing(
            self, ota1, ota1_placement, tech, tmp_path):
        path = tmp_path / "db.ckpt.jsonl"
        cfg = self._config()
        # Simulate a mid-run kill: sample 2 fails and is not backfilled,
        # so the checkpoint holds samples 0 and 1 plus a torn final line.
        with inject_faults(FaultPlan(stage="routing", fail_indices={2})):
            generate_dataset(
                ota1, ota1_placement, tech, cfg, checkpoint_path=path,
                policy=DegradationPolicy(max_retries=0, resample_budget=0,
                                         min_valid_fraction=0.5))
        with path.open("a") as handle:
            handle.write('{"kind": "sample", "index": 2, "trunc')
        with FaultInjector() as observer:
            resumed = generate_dataset(ota1, ota1_placement, tech, cfg,
                                       checkpoint_path=path, resume=True)
        assert observer.calls["routing"] == 1  # only sample 2
        assert resumed.report.reused == 2
        assert len(resumed.samples) == 3

    def test_fingerprint_mismatch_raises(
            self, ota1, ota1_placement, tech, tmp_path):
        path = tmp_path / "db.ckpt.jsonl"
        generate_dataset(ota1, ota1_placement, tech, self._config(),
                         checkpoint_path=path)
        with pytest.raises(CheckpointError, match="different run"):
            generate_dataset(ota1, ota1_placement, tech,
                             DatasetConfig(num_samples=3, seed=99),
                             checkpoint_path=path, resume=True)

    def test_mid_file_corruption_raises(
            self, ota1, ota1_placement, tech, tmp_path):
        path = tmp_path / "db.ckpt.jsonl"
        cfg = self._config()
        generate_dataset(ota1, ota1_placement, tech, cfg,
                         checkpoint_path=path)
        lines = path.read_text().splitlines()
        lines.insert(2, "{corrupt")
        path.write_text("\n".join(lines) + "\n")
        grid = RoutingGrid(ota1_placement, tech, pitch=cfg.routing_pitch)
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path, dataset_fingerprint(ota1, cfg, grid), grid)

    def test_missing_checkpoint_resumes_fresh(
            self, ota1, ota1_placement, tech, tmp_path):
        path = tmp_path / "absent.jsonl"
        db = generate_dataset(ota1, ota1_placement, tech, self._config(),
                              checkpoint_path=path, resume=True)
        assert db.report.reused == 0
        assert len(db.samples) == 3
        assert path.exists()


class TestPipelineObservability:
    def test_simulation_select_records_candidates(self, trained_fold):
        result = trained_fold.run()
        # n_derive=2 candidates plus the database best.
        assert len(result.candidate_foms) == 3
        assert result.winner_index == int(np.argmin(result.candidate_foms))
        assert result.winner_source in ("derived", "database")
        weights = trained_fold.config.fom_weights
        assert weights.fom(result.metrics) == pytest.approx(
            result.candidate_foms[result.winner_index])

    def test_potential_select_records_single_candidate(
            self, ota1, ota1_placement, tech, trained_fold):
        fold = AnalogFold(
            ota1, ota1_placement, tech,
            config=AnalogFoldConfig(
                dataset=trained_fold.config.dataset,
                gnn=trained_fold.config.gnn,
                training=trained_fold.config.training,
                relaxation=trained_fold.config.relaxation,
                select_by="potential",
            ),
        )
        fold.database = trained_fold.database
        fold.model = trained_fold.model
        result = fold.run()
        assert len(result.candidate_foms) == 1
        assert result.winner_index == 0
        assert result.winner_source == "derived"


class TestCliReliability:
    def test_fold_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "fold", "OTA1", "--checkpoint", "db.jsonl", "--resume",
            "--max-retries", "3", "--min-valid-fraction", "0.8"])
        assert args.checkpoint == "db.jsonl"
        assert args.resume is True
        assert args.max_retries == 3
        assert args.min_valid_fraction == 0.8

    def test_typed_errors_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        place_file = tmp_path / "p.json"
        main(["place", "OTA1", "--iterations", "50",
              "--out", str(place_file)])
        capsys.readouterr()
        with inject_faults(FaultPlan(stage="routing", probability=1.0)):
            code = main(["fold", "OTA1", "--placement", str(place_file),
                         "--samples", "3", "--max-retries", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "stage=database" in err
