"""Reliability subsystem: error taxonomy, retries, degradation, checkpoints.

The AnalogFold flow is a long chain (sample guidance -> route -> extract
-> simulate, many times over, then train, relax, and route again).  This
package makes per-unit failures survivable instead of fatal:

* :mod:`~repro.reliability.errors` — the structured exception taxonomy
  every stage raises, with stage/sample context attached;
* :mod:`~repro.reliability.retry` — generic retry/backoff with
  per-attempt input reseeding;
* :mod:`~repro.reliability.policy` — degradation policies (skip, retry,
  resample, quality gates, minimum-survivor floors);
* :mod:`~repro.reliability.checkpoint` — incremental JSONL checkpointing
  of database construction with resume support;
* :mod:`~repro.reliability.faults` — deterministic fault injection used
  by the test suite to prove every degradation path.

See ``docs/RELIABILITY.md`` for the operational overview.
"""

from repro.reliability.errors import (
    CheckpointError,
    DataQualityError,
    ExtractionError,
    IngestError,
    RelaxationError,
    ReproError,
    RoutingError,
    ServeError,
    SpiceParseError,
    ServeTimeoutError,
    SimulationError,
    error_for_stage,
)
from repro.reliability.faults import (
    FaultInjector,
    FaultPlan,
    active_plans,
    fault_scope,
    inject_faults,
    maybe_stall,
)
from repro.reliability.retry import RetryPolicy, retry_call
from repro.reliability.policy import (
    ConstructionReport,
    DegradationPolicy,
    FailureRecord,
    validate_sample,
)
from repro.reliability.checkpoint import (
    CheckpointWriter,
    dataset_fingerprint,
    load_checkpoint,
    validate_header,
)

__all__ = [
    "ReproError",
    "RoutingError",
    "ExtractionError",
    "SimulationError",
    "RelaxationError",
    "DataQualityError",
    "CheckpointError",
    "ServeError",
    "ServeTimeoutError",
    "IngestError",
    "SpiceParseError",
    "error_for_stage",
    "RetryPolicy",
    "retry_call",
    "DegradationPolicy",
    "ConstructionReport",
    "FailureRecord",
    "validate_sample",
    "CheckpointWriter",
    "dataset_fingerprint",
    "load_checkpoint",
    "validate_header",
    "FaultPlan",
    "FaultInjector",
    "inject_faults",
    "fault_scope",
    "active_plans",
    "maybe_stall",
]
