"""Golden-file regression tests for on-disk record formats.

Locks the *shape* (recursive type skeleton, see :func:`schema_of`) of:

* checkpoint JSONL records (header + sample lines),
* the observability trace JSONL records (header + span lines),
* the run manifest,
* the model-registry manifest (including the ``precision`` execution
  dtype and its typed rejection of unknown values).

A schema change fails with a readable unified diff against the fixture
under ``tests/golden/``.  To accept an intentional format change, rerun
with ``REPRO_UPDATE_GOLDEN=1`` and commit the regenerated fixtures::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_golden.py
"""

from __future__ import annotations

import difflib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import DatasetConfig, generate_dataset
from repro.model.gnn3d import Gnn3d, Gnn3dConfig
from repro.obs import RunContext, load_trace
from repro.reliability.errors import ServeError
from repro.serve import (
    FLOAT32_PARITY_RTOL,
    ModelManifest,
    ModelRegistry,
    PRECISIONS,
    ScoringService,
    ServeConfig,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))


def schema_of(value):
    """Recursive type skeleton of a JSON value.

    Dict keys are kept verbatim (they are part of the format); lists of
    uniformly shaped elements collapse to a single-element skeleton so
    fixtures stay readable.
    """
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "null"
    if isinstance(value, list):
        shapes = [schema_of(v) for v in value]
        uniform = all(s == shapes[0] for s in shapes)
        return shapes[:1] if uniform else shapes
    if isinstance(value, dict):
        return {key: schema_of(value[key]) for key in sorted(value)}
    return type(value).__name__  # pragma: no cover - no other JSON types


def check_golden(name: str, schema) -> None:
    """Compare ``schema`` against the committed fixture (or regenerate)."""
    path = GOLDEN_DIR / name
    rendered = json.dumps(schema, indent=2, sort_keys=True) + "\n"
    if UPDATE:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
    if not path.exists():
        pytest.fail(
            f"golden fixture {path} missing; run with REPRO_UPDATE_GOLDEN=1 "
            f"to create it")
    expected = path.read_text(encoding="utf-8")
    if rendered != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            fromfile=f"golden/{name} (committed)",
            tofile=f"golden/{name} (current code)",
        ))
        pytest.fail(
            f"schema of {name.removesuffix('.json')} drifted from the "
            f"golden fixture.\nIf the change is intentional, regenerate "
            f"with REPRO_UPDATE_GOLDEN=1 and commit the fixture.\n{diff}")


@pytest.fixture(scope="module")
def traced_run(ota1, ota1_placement, tech, tmp_path_factory):
    """One tiny traced + checkpointed database construction."""
    tmp = tmp_path_factory.mktemp("golden")
    checkpoint = tmp / "db.ckpt.jsonl"
    trace = tmp / "run.trace.jsonl"
    obs = RunContext.to_file(trace, run_id="run-golden")
    generate_dataset(ota1, ota1_placement, tech,
                     DatasetConfig(num_samples=2, seed=0),
                     checkpoint_path=checkpoint, obs=obs)
    obs.close()
    return {
        "checkpoint": [json.loads(line)
                       for line in checkpoint.read_text().splitlines()],
        "trace": load_trace(trace),
        "manifest": json.loads(obs.manifest_path.read_text()),
    }


class TestGoldenSchemas:
    def test_checkpoint_header_schema(self, traced_run):
        header = traced_run["checkpoint"][0]
        assert header["kind"] == "header"
        check_golden("checkpoint_header_schema.json", schema_of(header))

    def test_checkpoint_sample_schema(self, traced_run):
        sample = traced_run["checkpoint"][1]
        assert sample["kind"] == "sample"
        check_golden("checkpoint_sample_schema.json", schema_of(sample))

    def test_trace_header_schema(self, traced_run):
        header = traced_run["trace"][0]
        assert header["kind"] == "header"
        check_golden("trace_header_schema.json", schema_of(header))

    def test_trace_span_schema(self, traced_run):
        spans = [r for r in traced_run["trace"] if r["kind"] == "span"]
        # One exemplar per span name: shapes may differ in attrs.
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], span)
        schema = {name: schema_of(by_name[name])
                  for name in sorted(by_name)}
        check_golden("trace_span_schema.json", schema)

    def test_manifest_schema(self, traced_run):
        manifest = traced_run["manifest"]
        assert manifest["kind"] == "manifest"
        check_golden("manifest_schema.json", schema_of(manifest))

    def test_manifest_counter_names_locked(self, traced_run):
        """The documented metric names are part of the contract."""
        counters = traced_run["manifest"]["counters"]
        assert set(counters) == {
            "route_expansions_total{mode=bucketed}",
            "route_expansions_total{mode=scalar}",
            "samples_requested",
            "samples_resampled",
            "samples_reused",
            "samples_skipped",
            "samples_valid",
        }


@pytest.fixture(scope="module")
def saved_checkpoint(ota1_graph, tmp_path_factory):
    """One float32 checkpoint in a throwaway registry."""
    tmp = tmp_path_factory.mktemp("registry_golden")
    dims = (ota1_graph.ap_features.shape[1],
            ota1_graph.module_features.shape[1])
    model = Gnn3d(*dims, Gnn3dConfig(hidden=8, num_layers=1,
                                     rbf_centers=4, seed=0))
    registry = ModelRegistry(tmp)
    manifest = registry.save("ota1", model, ota1_graph,
                             precision="float32")
    return registry, manifest


class TestRegistryManifest:
    def test_registry_manifest_schema(self, saved_checkpoint):
        """The on-disk registry manifest shape, ``precision`` included."""
        registry, manifest = saved_checkpoint
        on_disk = json.loads(
            (registry.root / "ota1" / manifest.version / "manifest.json")
            .read_text(encoding="utf-8"))
        assert on_disk["precision"] in PRECISIONS
        check_golden("registry_manifest_schema.json", schema_of(on_disk))

    def test_precision_round_trips(self, saved_checkpoint, ota1_graph):
        registry, manifest = saved_checkpoint
        assert manifest.precision == "float32"
        loaded = registry.load_manifest("ota1", manifest.version)
        assert loaded.precision == "float32"
        model, _ = registry.load("ota1", manifest.version, graph=ota1_graph)
        # The load already cast the verified float64 weights.
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_precision_defaults_for_legacy_manifests(self, saved_checkpoint):
        """Pre-``precision`` schema-v1 manifests keep loading as float64."""
        registry, manifest = saved_checkpoint
        data = json.loads(
            (registry.root / "ota1" / manifest.version / "manifest.json")
            .read_text(encoding="utf-8"))
        del data["precision"]
        assert ModelManifest.from_dict(data).precision == "float64"

    def test_unknown_precision_rejected_on_save(self, saved_checkpoint,
                                                ota1_graph):
        registry, _ = saved_checkpoint
        dims = (ota1_graph.ap_features.shape[1],
                ota1_graph.module_features.shape[1])
        model = Gnn3d(*dims, Gnn3dConfig(hidden=8, num_layers=1,
                                         rbf_centers=4, seed=0))
        with pytest.raises(ServeError, match="unknown precision"):
            registry.save("ota1", model, ota1_graph, precision="float16")

    def test_unknown_precision_rejected_on_load(self, saved_checkpoint):
        """A hand-edited manifest must fail with a typed ServeError."""
        registry, manifest = saved_checkpoint
        path = registry.root / "ota1" / manifest.version / "manifest.json"
        original = path.read_text(encoding="utf-8")
        data = json.loads(original)
        data["precision"] = "bfloat16"
        path.write_text(json.dumps(data), encoding="utf-8")
        try:
            with pytest.raises(ServeError, match="unknown precision"):
                registry.load_manifest("ota1", manifest.version)
        finally:
            path.write_text(original, encoding="utf-8")

    def test_unknown_precision_rejected_on_register(self, ota1_graph):
        service = ScoringService(ServeConfig())
        dims = (ota1_graph.ap_features.shape[1],
                ota1_graph.module_features.shape[1])
        model = Gnn3d(*dims, Gnn3dConfig(hidden=8, num_layers=1,
                                         rbf_centers=4, seed=0))
        with pytest.raises(ServeError, match="unknown precision"):
            service.register("ota1", model, ota1_graph, precision="int8")

    def test_float32_checkpoint_scores_within_contract(self, saved_checkpoint,
                                                       ota1_graph):
        """End to end: a float32 checkpoint served through the scoring
        service agrees with its float64 twin within the documented
        tolerance."""
        registry, manifest = saved_checkpoint
        service = ScoringService(ServeConfig(max_batch=4))
        loaded = service.register_checkpoint(
            "ota1-f32", registry, "ota1", ota1_graph,
            version=manifest.version)
        assert loaded.precision == "float32"
        dims = (ota1_graph.ap_features.shape[1],
                ota1_graph.module_features.shape[1])
        # Same seeded weights as the checkpoint, left in float64.
        service.register("ota1-f64", Gnn3d(
            *dims, Gnn3dConfig(hidden=8, num_layers=1, rbf_centers=4,
                               seed=0)), ota1_graph)
        rng = np.random.default_rng(5)
        for _ in range(3):
            guidance = rng.uniform(0.5, 2.0, size=(ota1_graph.num_aps, 3))
            r32 = service.score("ota1-f32", guidance)
            r64 = service.score("ota1-f64", guidance)
            assert r32.status == "ok" and r64.status == "ok"
            rel = (np.abs(r32.metrics - r64.metrics)
                   / np.maximum(1.0, np.abs(r64.metrics)))
            assert rel.max() < FLOAT32_PARITY_RTOL


class TestSchemaOf:
    def test_scalars(self):
        assert schema_of(True) == "bool"
        assert schema_of(3) == "int"
        assert schema_of(1.5) == "float"
        assert schema_of("x") == "str"
        assert schema_of(None) == "null"

    def test_uniform_list_collapses(self):
        assert schema_of([1, 2, 3]) == ["int"]
        assert schema_of([[1.0, 2.0], [3.0, 4.0]]) == [["float"]]

    def test_mixed_list_keeps_shapes(self):
        assert schema_of([1, "a"]) == ["int", "str"]

    def test_dict_keys_sorted(self):
        assert schema_of({"b": 1, "a": "x"}) == {"a": "str", "b": "int"}

    def test_diff_is_readable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "tests.test_obs_golden.GOLDEN_DIR", tmp_path, raising=False)
        monkeypatch.setattr("tests.test_obs_golden.UPDATE", False)
        (tmp_path / "t.json").write_text(
            json.dumps({"a": "int"}, indent=2, sort_keys=True) + "\n")
        with pytest.raises(pytest.fail.Exception) as exc_info:
            check_golden("t.json", {"a": "str"})
        message = str(exc_info.value)
        assert "REPRO_UPDATE_GOLDEN" in message
        assert '-  "a": "int"' in message
        assert '+  "a": "str"' in message
