"""Serving layer: model registry integrity and the scoring service.

The contracts under test:

* a registry checkpoint round-trips — save → load → score equals the
  original model's direct forwards to 1e-10 on every benchmark circuit;
* every integrity violation (corrupt weights, wrong graph, missing or
  mutated manifest, unknown model) raises a typed ``ServeError``;
* the service coalesces waves, preserves submission order, rejects at
  the admission boundary, degrades — never crashes — on mid-flight
  cache invalidation or forward errors, and counts all of it through
  ``repro.obs``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d, Gnn3dConfig
from repro.netlist import build_benchmark
from repro.nn import Tensor
from repro.obs import RunContext
from repro.placement import place_benchmark
from repro.reliability import ServeError
from repro.router import RoutingGrid
from repro.serve import (
    ModelManifest,
    ModelRegistry,
    NORMALIZATION_SCHEME,
    REGISTRY_SCHEMA_VERSION,
    ScoreRequest,
    ScoringService,
    ServeConfig,
)
from repro.tech import generic_40nm

SMALL = Gnn3dConfig(hidden=8, num_layers=1, rbf_centers=4, seed=3)


def small_model(graph, config: Gnn3dConfig = SMALL) -> Gnn3d:
    return Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1],
                 config)


def guidance_stream(graph, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.5, 2.0, size=(graph.num_aps, 3))
            for _ in range(n)]


@pytest.fixture()
def fresh_graph(ota1_placement, tech):
    """A mutable graph per test (the session ``ota1_graph`` is read-only)."""
    return build_hetero_graph(RoutingGrid(ota1_placement, tech))


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


# -- registry -------------------------------------------------------------------------


class TestModelRegistry:
    def test_save_load_roundtrip_scores_identically(self, fresh_graph,
                                                    registry):
        model = small_model(fresh_graph)
        manifest = registry.save("ota1", model, fresh_graph)
        assert manifest.version == "v0001"
        loaded, loaded_manifest = registry.load("ota1", graph=fresh_graph)
        assert loaded_manifest == manifest
        for guidance in guidance_stream(fresh_graph, 3):
            want = model(fresh_graph, Tensor(guidance)).numpy()
            got = loaded(fresh_graph, Tensor(guidance)).numpy()
            np.testing.assert_array_equal(got, want)

    def test_versions_are_ordinal(self, fresh_graph, registry):
        model = small_model(fresh_graph)
        assert registry.versions("ota1") == []
        registry.save("ota1", model, fresh_graph)
        registry.save("ota1", model, fresh_graph)
        assert registry.versions("ota1") == ["v0001", "v0002"]
        assert registry.latest("ota1") == "v0002"
        _, manifest = registry.load("ota1", "v0001")
        assert manifest.version == "v0001"

    def test_manifest_records_provenance(self, fresh_graph, registry):
        from repro.perf import graph_fingerprint

        manifest = registry.save("ota1", small_model(fresh_graph),
                                 fresh_graph, c_max=3.5)
        assert manifest.schema_version == REGISTRY_SCHEMA_VERSION
        assert manifest.normalization == NORMALIZATION_SCHEME
        assert tuple(manifest.graph_fingerprint) == \
            tuple(graph_fingerprint(fresh_graph))
        assert manifest.gnn_config["hidden"] == SMALL.hidden
        assert manifest.c_max == 3.5
        assert len(manifest.metric_names) == 5
        # And it round-trips through its dict form.
        assert ModelManifest.from_dict(manifest.to_dict()) == manifest

    def test_unknown_model_raises(self, registry):
        with pytest.raises(ServeError, match="no servable versions"):
            registry.load("nope")

    def test_corrupt_weights_detected(self, fresh_graph, registry):
        manifest = registry.save("ota1", small_model(fresh_graph),
                                 fresh_graph)
        weights = (registry.root / "ota1" / manifest.version /
                   "weights.npz")
        with weights.open("ab") as handle:
            handle.write(b"tampered")
        with pytest.raises(ServeError, match="digest mismatch"):
            registry.load("ota1")

    def test_wrong_graph_rejected(self, fresh_graph, registry,
                                  ota1_placement, tech):
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        other = build_hetero_graph(RoutingGrid(ota1_placement, tech))
        other.ap_positions[0, 0] += 2.0
        with pytest.raises(ServeError, match="fingerprint"):
            registry.load("ota1", graph=other)
        # Without a graph pin, the same load succeeds.
        registry.load("ota1")

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(normalization="something-else.v9"),
         "normalization"),
        (lambda d: d.update(schema_version=99), "schema"),
        (lambda d: d.update(surprise=1), "unknown fields"),
        (lambda d: d.pop("ap_dim"), "missing fields"),
    ])
    def test_manifest_violations_raise(self, fresh_graph, registry,
                                       mutate, match):
        manifest = registry.save("ota1", small_model(fresh_graph),
                                 fresh_graph)
        path = (registry.root / "ota1" / manifest.version /
                "manifest.json")
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ServeError, match=match):
            registry.load_manifest("ota1")


# -- registry durability: atomic saves, tolerant listing, quarantine -----------------


class TestRegistryDurability:
    def test_crashed_save_leaves_no_torn_version(self, fresh_graph,
                                                 registry, monkeypatch):
        import repro.serve.registry as registry_module

        def explode(model, path):
            path.write_bytes(b"partial")  # half-written weights
            raise OSError("disk full")

        monkeypatch.setattr(registry_module, "save_state", explode)
        with pytest.raises(OSError, match="disk full"):
            registry.save("ota1", small_model(fresh_graph), fresh_graph)
        monkeypatch.undo()
        # The crash is invisible: no version, no staging litter, and the
        # next save still claims v0001.
        assert registry.versions("ota1") == []
        assert registry.all_versions("ota1") == []
        assert list((registry.root / "ota1").glob(".tmp-*")) == []
        manifest = registry.save("ota1", small_model(fresh_graph),
                                 fresh_graph)
        assert manifest.version == "v0001"
        registry.load("ota1")

    def test_leftover_staging_is_invisible_and_reclaimed(self, fresh_graph,
                                                         registry):
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        staging = registry.root / "ota1" / ".tmp-v0002"
        staging.mkdir()
        (staging / "weights.npz").write_bytes(b"torn")
        assert registry.versions("ota1") == ["v0001"]
        assert registry.latest("ota1") == "v0001"
        manifest = registry.save("ota1", small_model(fresh_graph),
                                 fresh_graph)
        assert manifest.version == "v0002"
        assert not staging.exists()
        registry.load("ota1", "v0002")

    def test_bad_manifest_skipped_and_counted(self, fresh_graph, tmp_path):
        obs = RunContext(run_id="registry-test")
        registry = ModelRegistry(tmp_path / "registry", obs=obs)
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        manifest = registry.root / "ota1" / "v0001" / "manifest.json"
        manifest.write_text("{ torn json", encoding="utf-8")
        # One rotten directory does not take the model offline.
        assert registry.versions("ota1") == ["v0002"]
        assert registry.latest("ota1") == "v0002"
        assert registry.all_versions("ota1") == ["v0001", "v0002"]
        registry.load("ota1")
        assert obs.counter_values()[
            "serve_registry_skipped_total{reason=bad_manifest}"] >= 1

    def test_quarantine_hides_version_from_serving(self, fresh_graph,
                                                   tmp_path):
        obs = RunContext(run_id="registry-test")
        registry = ModelRegistry(tmp_path / "registry", obs=obs)
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        marker = registry.quarantine("ota1", "v0002",
                                     reason="failed verification")
        assert registry.is_quarantined("ota1", "v0002")
        assert not registry.is_quarantined("ota1", "v0001")
        assert json.loads(marker.read_text())["reason"] == \
            "failed verification"
        assert registry.versions("ota1") == ["v0001"]
        assert registry.latest("ota1") == "v0001"
        # The artifact stays on disk for postmortem.
        assert registry.all_versions("ota1") == ["v0001", "v0002"]
        counters = obs.counter_values()
        assert counters["serve_quarantine_total{model=ota1}"] == 1
        assert counters[
            "serve_registry_skipped_total{reason=quarantined}"] >= 1

    def test_quarantining_everything_raises_servable_error(
            self, fresh_graph, registry):
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        registry.quarantine("ota1", "v0001", reason="bad")
        with pytest.raises(ServeError, match="no servable versions"):
            registry.latest("ota1")

    def test_quarantine_unknown_version_raises(self, fresh_graph, registry):
        registry.save("ota1", small_model(fresh_graph), fresh_graph)
        with pytest.raises(ServeError, match="no such version"):
            registry.quarantine("ota1", "v0009", reason="bad")


# -- service scoring ------------------------------------------------------------------


class TestScoringParity:
    @pytest.mark.parametrize("circuit", ["OTA1", "OTA2", "OTA3"])
    def test_batched_service_matches_direct_forwards(self, circuit,
                                                     tmp_path):
        placement = place_benchmark(build_benchmark(circuit), variant="A",
                                    seed=0, iterations=60)
        graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
        model = small_model(graph)
        registry = ModelRegistry(tmp_path / "reg")
        registry.save(circuit.lower(), model, graph)

        service = ScoringService(ServeConfig(max_batch=8))
        service.register_checkpoint(circuit.lower(), registry,
                                    circuit.lower(), graph)
        stream = guidance_stream(graph, 6, seed=1)
        results = list(service.score_stream(
            ScoreRequest(circuit.lower(), g) for g in stream))
        assert [r.status for r in results] == ["ok"] * 6
        for guidance, result in zip(stream, results):
            direct = model(graph, Tensor(guidance)).numpy()
            assert np.abs(result.metrics - direct).max() < 1e-10
            w = service._endpoints[circuit.lower()].w_signed
            assert result.fom == pytest.approx(float(w @ direct))

    def test_one_model_call_per_wave(self, fresh_graph):
        model = small_model(fresh_graph)
        shapes = []
        real_forward = model.forward

        def spying_forward(graph, guidance):
            shapes.append(guidance.data.shape)
            return real_forward(graph, guidance)

        model.forward = spying_forward
        service = ScoringService(ServeConfig(max_batch=7))
        service.register("g", model, fresh_graph)
        stream = guidance_stream(fresh_graph, 9)
        results = list(service.score_stream(
            ScoreRequest("g", g) for g in stream))
        # Waves of 7 and 2, each one call, which the model runs in
        # unions of its own size.
        assert [s[0] for s in shapes] == [7, 2]
        assert [r.batch_size for r in results] == [7] * 7 + [2] * 2
        assert all(r.status == "ok" for r in results)

    def test_results_in_submission_order_across_graphs(self, fresh_graph,
                                                       ota1_placement,
                                                       tech):
        other = build_hetero_graph(RoutingGrid(ota1_placement, tech))
        model = small_model(fresh_graph)
        service = ScoringService(ServeConfig(max_batch=4))
        service.register("a", model, fresh_graph)
        service.register("b", model, other)
        ids = []
        for i, graph_id in enumerate("abba"):
            queued = service.submit(ScoreRequest(
                graph_id, guidance_stream(fresh_graph, 1, seed=i)[0]))
            ids.append(queued.request_id)
        results = service.flush()
        assert [r.request_id for r in results] == ids
        assert [r.graph_id for r in results] == list("abba")

    def test_score_single(self, fresh_graph):
        model = small_model(fresh_graph)
        service = ScoringService()
        service.register("g", model, fresh_graph)
        guidance = guidance_stream(fresh_graph, 1)[0]
        result = service.score("g", guidance, request_id="mine")
        assert result.request_id == "mine"
        direct = model(fresh_graph, Tensor(guidance)).numpy()
        assert np.abs(result.metrics - direct).max() < 1e-10


class TestAdmissionControl:
    def test_unknown_graph_rejected(self, fresh_graph):
        service = ScoringService()
        service.register("known", small_model(fresh_graph), fresh_graph)
        with pytest.raises(ServeError, match="unknown graph_id"):
            service.submit(ScoreRequest(
                "other", guidance_stream(fresh_graph, 1)[0]))
        assert service.stats.rejected == 1

    def test_misshaped_and_nonfinite_guidance_rejected(self, fresh_graph):
        service = ScoringService()
        service.register("g", small_model(fresh_graph), fresh_graph)
        with pytest.raises(ServeError, match="shape"):
            service.submit(ScoreRequest("g", np.ones((2, 3))))
        bad = guidance_stream(fresh_graph, 1)[0]
        bad[0, 0] = np.nan
        with pytest.raises(ServeError, match="non-finite"):
            service.submit(ScoreRequest("g", bad))
        assert service.stats.rejected == 2
        assert service.queue_depth == 0  # rejected requests never queue

    def test_queue_full_rejects_and_counts(self, fresh_graph):
        obs = RunContext.recording()
        service = ScoringService(ServeConfig(max_batch=8, max_queue=2),
                                 obs=obs)
        service.register("g", small_model(fresh_graph), fresh_graph)
        stream = guidance_stream(fresh_graph, 3)
        service.submit(ScoreRequest("g", stream[0]))
        service.submit(ScoreRequest("g", stream[1]))
        with pytest.raises(ServeError, match="queue full"):
            service.submit(ScoreRequest("g", stream[2]))
        results = service.flush()
        assert [r.status for r in results] == ["ok", "ok"]
        counters = obs.counter_values()
        assert counters["serve_requests_total{status=rejected}"] == 1
        assert counters["serve_requests_total{status=ok}"] == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(max_queue=0)


class TestDegradation:
    def test_midflight_mutation_degrades_not_fails(self, fresh_graph):
        """Regression companion to the fingerprint fix: geometry mutated
        between submit and flush must be served unbatched, not scored
        against stale statics."""
        obs = RunContext.recording()
        model = small_model(fresh_graph)
        service = ScoringService(ServeConfig(max_batch=4), obs=obs)
        service.register("g", model, fresh_graph)
        stream = guidance_stream(fresh_graph, 3)
        for g in stream:
            service.submit(ScoreRequest("g", g))
        fresh_graph.ap_positions[0, 0] += 1.0  # invalidates forward cache
        results = service.flush()
        assert [r.status for r in results] == ["ok"] * 3
        assert all(r.degraded and r.batch_size == 1 for r in results)
        assert obs.counter_values()[
            "serve_degraded_total{reason=cache_invalidated}"] == 1
        # Scores reflect the *new* geometry.
        direct = model(fresh_graph, Tensor(stream[0])).numpy()
        assert np.abs(results[0].metrics - direct).max() < 1e-10
        # The pin updated: a stable new geometry re-batches next flush.
        for g in stream:
            service.submit(ScoreRequest("g", g))
        rebatched = service.flush()
        assert all(not r.degraded for r in rebatched)

    def test_batched_forward_error_falls_back_unbatched(self, fresh_graph):
        model = small_model(fresh_graph)
        real_forward = model.forward

        def batched_forward_explodes(graph, guidance):
            if guidance.data.ndim == 3:
                raise ValueError("union forward exploded")
            return real_forward(graph, guidance)

        model.forward = batched_forward_explodes
        obs = RunContext.recording()
        service = ScoringService(ServeConfig(max_batch=4), obs=obs)
        service.register("g", model, fresh_graph)
        stream = guidance_stream(fresh_graph, 3)
        results = list(service.score_stream(
            ScoreRequest("g", g) for g in stream))
        assert [r.status for r in results] == ["ok"] * 3
        assert all(r.degraded for r in results)
        assert obs.counter_values()[
            "serve_degraded_total{reason=forward_error}"] == 1
        assert service.stats.degraded_batches == 1

    def test_nonfinite_prediction_fails_that_request_only(self, fresh_graph):
        model = small_model(fresh_graph)
        real_forward = model.forward
        poisoned = []

        def sometimes_nan(graph, guidance):
            out = real_forward(graph, guidance)
            if poisoned:
                out.data[..., 0] = np.nan
            return out

        model.forward = sometimes_nan
        service = ScoringService(ServeConfig(max_batch=2))
        service.register("g", model, fresh_graph)
        good = service.score("g", guidance_stream(fresh_graph, 1)[0])
        assert good.status == "ok"
        poisoned.append(True)
        bad = service.score("g", guidance_stream(fresh_graph, 1)[0])
        assert bad.status == "failed"
        assert "non-finite" in bad.error
        assert bad.metrics is None and bad.fom is None
        assert service.stats.failed == 1


# -- CLI ------------------------------------------------------------------------------


class TestServeCli:
    @pytest.fixture(scope="class")
    def placement_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve_cli") / "ota1.json"
        assert main(["place", "OTA1", "--iterations", "50",
                     "--out", str(path)]) == 0
        return path

    def test_save_then_score_random(self, placement_file, tmp_path,
                                    capsys):
        reg = tmp_path / "registry"
        assert main(["serve-save", "OTA1", "--placement",
                     str(placement_file), "--registry", str(reg)]) == 0
        assert "ota1@v0001" in capsys.readouterr().out
        out = tmp_path / "scores.jsonl"
        code = main(["serve-score", "OTA1", "--placement",
                     str(placement_file), "--registry", str(reg),
                     "--model", "ota1", "--random", "6",
                     "--max-batch", "4", "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in
                out.read_text().splitlines()]
        assert len(rows) == 6
        assert all(row["status"] == "ok" for row in rows)
        assert all(len(row["metrics"]) == 5 for row in rows)
        assert rows[0]["batch_size"] == 4

    def test_score_from_request_file(self, placement_file, tmp_path,
                                     capsys):
        reg = tmp_path / "registry"
        assert main(["serve-save", "OTA1", "--placement",
                     str(placement_file), "--registry", str(reg)]) == 0
        capsys.readouterr()
        graph = build_hetero_graph(RoutingGrid(
            place_benchmark(build_benchmark("OTA1"), variant="A", seed=0,
                            iterations=50), generic_40nm()))
        requests = tmp_path / "requests.jsonl"
        guidance = np.ones((graph.num_aps, 3)).tolist()
        requests.write_text("\n".join(
            json.dumps({"id": f"c{i}", "guidance": guidance})
            for i in range(3)) + "\n")
        out = tmp_path / "scores.jsonl"
        code = main(["serve-score", "OTA1", "--placement",
                     str(placement_file), "--registry", str(reg),
                     "--model", "ota1@v0001", "--in", str(requests),
                     "--out", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["id"] for row in rows] == ["c0", "c1", "c2"]
        # Identical guidance must score identically.
        assert rows[0]["fom"] == rows[1]["fom"] == rows[2]["fom"]

    def test_score_requires_input(self, placement_file, tmp_path, capsys):
        code = main(["serve-score", "OTA1", "--placement",
                     str(placement_file), "--registry", str(tmp_path),
                     "--model", "ota1"])
        assert code != 0
        assert "--in PATH or --random" in capsys.readouterr().err
