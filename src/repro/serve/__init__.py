"""Inference front-end: serve a trained ``f_theta`` as a scoring oracle.

The relaxation loop evaluates guidance candidates through block-diagonal
union forwards; this package turns that capability into a persistent,
fault-tolerant service (see ``docs/SERVING.md``):

* :class:`ModelRegistry` — versioned on-disk checkpoints (weights +
  graph fingerprint + normalization stats + config manifest) with
  end-to-end integrity checks on load, atomic saves, and a quarantine
  mechanism for artifacts that fail verification;
* :class:`ScoringService` — synchronous API over internally
  micro-batched forwards, with bounded-queue admission control,
  degradation to unbatched forwards on mid-flight cache invalidation,
  and ``serve_*`` metrics through :mod:`repro.obs`;
* :class:`ServeCluster` — a supervised pool of worker processes each
  running a :class:`ScoringService`, adding per-request deadlines,
  circuit breakers, load shedding, at-least-once re-dispatch of work
  stranded on killed workers, and zero-downtime version rollover with
  automatic rollback (chaos-tested by ``benchmarks/bench_chaos.py``).
"""

from repro.reliability.errors import ServeError, ServeTimeoutError
from repro.serve.cluster import (
    ClusterConfig,
    RolloverResult,
    ServeCluster,
)
from repro.serve.dispatch import (
    CircuitBreaker,
    ClusterResult,
    ClusterStats,
    Dispatcher,
)
from repro.serve.registry import (
    FLOAT32_PARITY_RTOL,
    ModelManifest,
    ModelRegistry,
    NORMALIZATION_SCHEME,
    PRECISIONS,
    REGISTRY_SCHEMA_VERSION,
)
from repro.serve.service import (
    ScoreRequest,
    ScoreResult,
    ScoringService,
    ServeConfig,
    ServiceStats,
)
from repro.serve.supervisor import Supervisor
from repro.serve.worker import WorkerContext

__all__ = [
    "FLOAT32_PARITY_RTOL",
    "PRECISIONS",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterResult",
    "ClusterStats",
    "Dispatcher",
    "ModelManifest",
    "ModelRegistry",
    "NORMALIZATION_SCHEME",
    "REGISTRY_SCHEMA_VERSION",
    "RolloverResult",
    "ScoreRequest",
    "ScoreResult",
    "ScoringService",
    "ServeCluster",
    "ServeConfig",
    "ServeError",
    "ServeTimeoutError",
    "ServiceStats",
    "Supervisor",
    "WorkerContext",
]
