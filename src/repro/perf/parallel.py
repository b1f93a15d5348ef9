"""Process-pool execution of database construction.

Database samples are embarrassingly parallel — each one routes, extracts,
and simulates an independent guidance draw — but *bit-identical* parallel
output takes care:

* every sample's inputs are computed up front from deterministic RNG
  streams (the base guidance sequence, per-``(sample, attempt)`` retry
  perturbations, and a dedicated resample stream consumed by the parent
  in failure-discovery order), so no RNG state ever crosses a process
  boundary;
* workers run the *same* ``attempt_sample`` code path as serial mode and
  return typed outcomes (sample / failure / retry counts); the parent
  applies the degradation policy, so retry/skip-and-resample decisions
  are made exactly once, in the same order as a serial run;
* fault-injection plans active in the parent are re-installed in each
  worker, and unit-scoped selection (:func:`repro.reliability.faults.
  fault_scope`) addresses faults by sample index rather than process-local
  call order, keeping injected failures identical across worker counts.

The parent consumes futures in submission order, so checkpoint lines are
appended in the same order a serial run would write them.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import multiprocessing

from repro.reliability.faults import FaultInjector, FaultPlan, _ACTIVE

#: Per-worker construction context, installed by :func:`_init_worker`.
_WORKER_CTX: dict[str, Any] | None = None


@dataclass
class ParallelConfig:
    """Knobs of parallel database construction.

    Attributes:
        workers: worker processes; 1 means in-process serial execution.
        start_method: multiprocessing start method; ``None`` picks
            ``fork`` where available (cheap, inherits loaded modules)
            and the platform default elsewhere.
    """

    workers: int = 1
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def _resolve_context(start_method: str | None):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _init_worker(ctx: dict[str, Any]) -> None:
    """Install the construction context (and fault plans) in a worker."""
    global _WORKER_CTX
    _WORKER_CTX = ctx
    # A fork-started worker inherits the parent's active injectors, whose
    # process-local call counters would diverge from a serial run.  Start
    # clean and install the shipped plans so selection is purely
    # unit-scoped (deterministic regardless of scheduling).
    _ACTIVE.clear()
    plans: tuple[FaultPlan, ...] = ctx.get("fault_plans", ())
    if plans:
        FaultInjector(*plans).__enter__()  # active for the worker's lifetime


def _worker_run(task: tuple[int, Any]):
    """Run one sample attempt inside a worker process.

    When the parent's observability context is enabled, the attempt
    records spans into a per-worker in-memory context; the buffered
    records ride back on the outcome and the parent absorbs them in
    submission order, keeping traces identical across worker counts.
    """
    from repro.core.dataset import attempt_sample
    from repro.obs import RunContext

    assert _WORKER_CTX is not None, "worker used before initialization"
    index, guidance = task
    c = _WORKER_CTX
    obs = RunContext.recording() if c.get("obs_enabled") else None
    return attempt_sample(
        c["circuit"], c["placement"], c["tech"], guidance, index,
        c["config"], c["policy"], c["router_config"], c["testbench_config"],
        obs=obs,
    )


class SamplePool:
    """A process pool pre-loaded with one design's construction context.

    Args:
        context: everything a worker needs to attempt a sample —
            circuit, placement, tech, dataset config, degradation policy,
            router/testbench configs, and the active fault plans.
        config: worker-count and start-method knobs.
    """

    def __init__(self, context: dict[str, Any],
                 config: ParallelConfig) -> None:
        self.config = config
        self._executor = ProcessPoolExecutor(
            max_workers=config.workers,
            mp_context=_resolve_context(config.start_method),
            initializer=_init_worker,
            initargs=(context,),
        )

    def submit(self, index: int, guidance: Any) -> Future:
        """Schedule one sample attempt; the future yields its outcome."""
        return self._executor.submit(_worker_run, (index, guidance))

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "SamplePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
