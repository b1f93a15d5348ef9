"""Versioned model-artifact registry for the scoring service.

A trained ``f_theta`` is only servable if everything that shaped its
predictions travels with the weights: the graph it was fitted on (pinned
by the :func:`repro.perf.cache.graph_fingerprint` content digest), the
metric-normalization scheme the targets used, the FoM weighting and
feasible-region bound scoring applies, and the exact
:class:`~repro.model.gnn3d.Gnn3dConfig`.  The registry persists all of
it per version::

    <root>/<name>/v0001/weights.npz     # repro.nn.serialization archive
    <root>/<name>/v0001/manifest.json   # ModelManifest

Loads are integrity-checked end to end — manifest schema version, a
SHA-256 digest of the weights archive, parameter-name/shape agreement
(via :func:`repro.nn.serialization.load_state`), normalization-scheme
identity, and (when a serving graph is supplied) graph-fingerprint
equality.  Every violation raises a typed
:class:`~repro.reliability.errors.ServeError` so callers can tell a
corrupt artifact from an unroutable request.

Durability and rollover support:

* **atomic saves** — a version is assembled in a hidden ``.tmp-`` sibling
  and renamed into place, so a crash mid-save can never leave a
  half-written ``v000N`` that :meth:`ModelRegistry.latest` would serve;
* **tolerant listing** — :meth:`versions`/:meth:`latest` skip entries
  whose manifest is missing or unparseable (counting them under
  ``serve_registry_skipped_total``) instead of letting one corrupt
  directory take down every load of the model;
* **quarantine** — :meth:`quarantine` stamps a version with a
  ``quarantined.json`` marker; quarantined versions disappear from
  :meth:`versions`/:meth:`latest` (the cluster's rollback path) while
  the artifact stays on disk for postmortem.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.graph.hetero import HeteroGraph
from repro.model.gnn3d import Gnn3d, Gnn3dConfig
from repro.nn.serialization import load_state, save_state
from repro.obs import NULL_CONTEXT, RunContext
from repro.perf.cache import graph_fingerprint
from repro.reliability.errors import ServeError
from repro.simulation.metrics import METRIC_NAMES, FoMWeights

#: Schema version of registry manifests; bump on incompatible changes.
REGISTRY_SCHEMA_VERSION = 1

#: Identity of the target-normalization transform the model was trained
#: on (:meth:`repro.simulation.metrics.PerformanceMetrics.to_normalized`).
#: A served model whose manifest names a different scheme must not be
#: scored — its outputs would be denormalized with the wrong inverse.
NORMALIZATION_SCHEME = "performance-metrics.to_normalized.v1"

#: Serving precisions a manifest may declare.  Weights are always
#: persisted float64; ``precision`` is the *execution* dtype the scoring
#: service casts to after an integrity-checked load.
PRECISIONS = ("float64", "float32")

#: Documented parity contract of the float32 scoring path: predictions
#: agree with the float64 forward to within this relative tolerance
#: (relative to the O(1) normalized-metric scale — enforced as
#: ``|f32 - f64| <= FLOAT32_PARITY_RTOL * max(1, |f64|)``).  Measured
#: error on the built-in OTAs is ~1e-6; the bound leaves two decades of
#: margin for trained weights.  float64 batches stay <1e-10 of the
#: single-candidate forward: the pooled rows are equal, and only the
#: metric head differs, a multi-row against a one-row product (see
#: ``tests/test_forward_blocking.py``).
FLOAT32_PARITY_RTOL = 1e-4

#: Manifest fields absent from pre-``precision`` (still schema v1)
#: manifests; they default rather than fail the missing-field check.
_OPTIONAL_FIELDS = frozenset({"precision"})

_WEIGHTS_FILE = "weights.npz"
_MANIFEST_FILE = "manifest.json"
_QUARANTINE_FILE = "quarantined.json"

#: Committed version directories: ``v`` + zero-padded ordinal.  The
#: ``.tmp-`` staging siblings of an in-progress save never match, so a
#: crashed save is invisible to :meth:`ModelRegistry.versions`.
_VERSION_RE = re.compile(r"^v\d{4,}$")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class ModelManifest:
    """Everything needed to rebuild and trust one checkpoint.

    Attributes:
        name: registry model name.
        version: registry version string (``v0001`` ...).
        weights_sha256: SHA-256 of the weights archive at save time.
        graph_fingerprint: content fingerprint of the training graph
            (see :func:`repro.perf.cache.graph_fingerprint`).
        ap_dim / module_dim: feature widths the model was built with.
        gnn_config: :class:`Gnn3dConfig` fields as a plain dict.
        c_max: guidance feasible-region bound the database sampled in.
        fom_weights: raw (unsigned) FoM weights, metric order.
        metric_names: metric reporting order at training time.
        normalization: target-normalization scheme identifier.
        precision: serving execution dtype (one of :data:`PRECISIONS`);
            weights are stored float64 and cast on load.
    """

    name: str
    version: str
    weights_sha256: str
    graph_fingerprint: tuple
    ap_dim: int
    module_dim: int
    gnn_config: dict
    c_max: float
    fom_weights: tuple
    metric_names: tuple
    normalization: str = NORMALIZATION_SCHEME
    precision: str = PRECISIONS[0]
    schema_version: int = REGISTRY_SCHEMA_VERSION

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["graph_fingerprint"] = list(self.graph_fingerprint)
        out["fom_weights"] = list(self.fom_weights)
        out["metric_names"] = list(self.metric_names)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelManifest":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ServeError(
                f"manifest carries unknown fields {sorted(unknown)}",
                stage="serve")
        missing = fields - set(data) - _OPTIONAL_FIELDS
        if missing:
            raise ServeError(
                f"manifest is missing fields {sorted(missing)}",
                stage="serve")
        data = dict(data)
        data["graph_fingerprint"] = tuple(data["graph_fingerprint"])
        data["fom_weights"] = tuple(data["fom_weights"])
        data["metric_names"] = tuple(data["metric_names"])
        return cls(**data)

    def signed_fom_vector(self):
        """The signed ``w_FoM`` vector scoring applies to predictions."""
        return FoMWeights(*self.fom_weights).as_signed_vector()


class ModelRegistry:
    """Filesystem-backed store of versioned scoring checkpoints.

    Args:
        root: registry root directory (created lazily on first save).
        obs: observability context; skipped-entry and quarantine events
            are counted through it (``serve_registry_skipped_total``,
            ``serve_quarantine_total``).
    """

    def __init__(self, root: str | Path,
                 obs: RunContext | None = None) -> None:
        self.root = Path(root)
        self.obs = obs if obs is not None else NULL_CONTEXT

    # -- layout -------------------------------------------------------------------

    def _version_dir(self, name: str, version: str) -> Path:
        return self.root / name / version

    def _committed(self, path: Path) -> bool:
        """Whether a version directory is listable (sound manifest,
        not quarantined); counts the corrupt ones it skips."""
        manifest = path / _MANIFEST_FILE
        try:
            json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # Missing or torn manifest: a crashed writer or bit rot.
            # One bad directory must not take the whole model offline.
            self.obs.counter("serve_registry_skipped_total",
                             reason="bad_manifest").inc()
            return False
        if (path / _QUARANTINE_FILE).exists():
            self.obs.counter("serve_registry_skipped_total",
                             reason="quarantined").inc()
            return False
        return True

    def versions(self, name: str) -> list[str]:
        """Servable versions of a model, oldest first; [] when unknown.

        Skips (and counts) directories with a missing/unparseable
        manifest and quarantined versions — see :meth:`all_versions`
        for the unfiltered listing.
        """
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        return sorted(p.name for p in model_dir.iterdir()
                      if p.is_dir() and _VERSION_RE.match(p.name)
                      and self._committed(p))

    def all_versions(self, name: str) -> list[str]:
        """Every committed version directory, servable or not."""
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        return sorted(p.name for p in model_dir.iterdir()
                      if p.is_dir() and _VERSION_RE.match(p.name))

    def latest(self, name: str) -> str:
        versions = self.versions(name)
        if not versions:
            raise ServeError(
                f"no servable versions of model {name!r} in registry "
                f"{self.root}", stage="serve", details={"name": name})
        return versions[-1]

    # -- quarantine ---------------------------------------------------------------

    def quarantine(self, name: str, version: str, reason: str) -> Path:
        """Mark a version unservable; returns the marker path.

        The artifact stays on disk for postmortem, but the version
        disappears from :meth:`versions`/:meth:`latest` so rollbacks
        and restarts can never pick it up again.
        """
        target = self._version_dir(name, version)
        if not target.is_dir():
            raise ServeError(
                f"cannot quarantine {name}@{version}: no such version in "
                f"registry {self.root}", stage="serve",
                details={"name": name, "version": version})
        marker = target / _QUARANTINE_FILE
        marker.write_text(
            json.dumps({"name": name, "version": version, "reason": reason},
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        self.obs.counter("serve_quarantine_total", model=name).inc()
        return marker

    def is_quarantined(self, name: str, version: str) -> bool:
        return (self._version_dir(name, version) / _QUARANTINE_FILE).exists()

    # -- save ---------------------------------------------------------------------

    def save(
        self,
        name: str,
        model: Gnn3d,
        graph: HeteroGraph,
        c_max: float = 4.0,
        weights: FoMWeights | None = None,
        precision: str = PRECISIONS[0],
    ) -> ModelManifest:
        """Persist a new version of ``model`` pinned to ``graph``.

        The version is assembled in a ``.tmp-`` sibling and renamed into
        place, so a crash at any point leaves :meth:`latest` pointing at
        the previous version — readers never observe a torn checkpoint.

        ``precision`` stamps the serving execution dtype into the
        manifest; the weights archive itself is always float64.
        """
        if precision not in PRECISIONS:
            raise ServeError(
                f"unknown precision {precision!r} (supported: {PRECISIONS})",
                stage="serve", details={"precision": precision})
        existing = self.all_versions(name)
        ordinal = (int(existing[-1][1:]) + 1) if existing else 1
        version = f"v{ordinal:04d}"
        target = self._version_dir(name, version)
        staging = target.parent / f".tmp-{version}"
        if staging.exists():
            shutil.rmtree(staging)  # leftover from a crashed save
        staging.mkdir(parents=True)
        try:
            weights_path = staging / _WEIGHTS_FILE
            save_state(model, weights_path)
            fom = weights or FoMWeights()
            manifest = ModelManifest(
                name=name,
                version=version,
                weights_sha256=_sha256(weights_path),
                graph_fingerprint=graph_fingerprint(graph),
                ap_dim=graph.ap_features.shape[1],
                module_dim=graph.module_features.shape[1],
                gnn_config=dataclasses.asdict(model.config),
                c_max=c_max,
                fom_weights=tuple(
                    getattr(fom, f.name) for f in dataclasses.fields(fom)),
                metric_names=tuple(METRIC_NAMES),
                precision=precision,
            )
            (staging / _MANIFEST_FILE).write_text(
                json.dumps(manifest.to_dict(), indent=2,
                           sort_keys=True) + "\n",
                encoding="utf-8")
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        os.replace(staging, target)
        return manifest

    # -- load ---------------------------------------------------------------------

    def load_manifest(self, name: str,
                      version: str | None = None) -> ModelManifest:
        """Read and schema-check one version's manifest."""
        version = version or self.latest(name)
        path = self._version_dir(name, version) / _MANIFEST_FILE
        if not path.exists():
            raise ServeError(
                f"no manifest for {name}@{version} in registry {self.root}",
                stage="serve", details={"name": name, "version": version})
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"unreadable manifest {path}: {exc}", stage="serve",
            ) from exc
        manifest = ModelManifest.from_dict(data)
        if manifest.schema_version != REGISTRY_SCHEMA_VERSION:
            raise ServeError(
                f"manifest schema {manifest.schema_version} != supported "
                f"{REGISTRY_SCHEMA_VERSION}", stage="serve")
        if manifest.normalization != NORMALIZATION_SCHEME:
            raise ServeError(
                f"checkpoint normalization {manifest.normalization!r} != "
                f"serving scheme {NORMALIZATION_SCHEME!r} — predictions "
                "would be denormalized with the wrong inverse",
                stage="serve")
        if manifest.precision not in PRECISIONS:
            raise ServeError(
                f"manifest declares unknown precision "
                f"{manifest.precision!r} (supported: {PRECISIONS})",
                stage="serve",
                details={"precision": manifest.precision})
        return manifest

    def load(
        self,
        name: str,
        version: str | None = None,
        graph: HeteroGraph | None = None,
    ) -> tuple[Gnn3d, ModelManifest]:
        """Rebuild a checkpointed model, verifying artifact integrity.

        With ``graph`` given, the serving graph's content fingerprint
        must equal the manifest's — the checkpoint is only valid for the
        exact geometry it was trained against.

        When the manifest declares ``precision: float32``, the verified
        float64 weights are cast in place after loading — the returned
        model scores in the declared execution dtype.
        """
        manifest = self.load_manifest(name, version)
        weights_path = (self._version_dir(manifest.name, manifest.version)
                        / _WEIGHTS_FILE)
        if not weights_path.exists():
            raise ServeError(
                f"weights archive missing at {weights_path}", stage="serve")
        actual_sha = _sha256(weights_path)
        if actual_sha != manifest.weights_sha256:
            raise ServeError(
                f"weights digest mismatch for {name}@{manifest.version}: "
                f"manifest {manifest.weights_sha256[:12]}…, file "
                f"{actual_sha[:12]}… — artifact corrupted or overwritten",
                stage="serve")
        model = Gnn3d(manifest.ap_dim, manifest.module_dim,
                      Gnn3dConfig(**manifest.gnn_config))
        try:
            load_state(model, weights_path)
        except ValueError as exc:
            raise ServeError(
                f"weights archive for {name}@{manifest.version} does not "
                f"fit the manifest's architecture: {exc}",
                stage="serve") from exc
        if manifest.precision == "float32":
            model.to_dtype(np.float32)
        if graph is not None:
            self.verify_graph(manifest, graph)
        return model, manifest

    @staticmethod
    def verify_graph(manifest: ModelManifest, graph: HeteroGraph) -> None:
        """Raise unless ``graph`` matches the checkpoint's fingerprint."""
        current = graph_fingerprint(graph)
        if tuple(current) != tuple(manifest.graph_fingerprint):
            raise ServeError(
                f"serving graph fingerprint {current} != checkpoint's "
                f"{tuple(manifest.graph_fingerprint)} — the model "
                f"{manifest.name}@{manifest.version} was trained on "
                "different geometry",
                stage="serve",
                details={"expected": list(manifest.graph_fingerprint),
                         "actual": list(current)})
