"""Generic retry with exponential backoff and per-attempt reseeding.

The pipeline's unit of work is usually a pure function of an RNG seed (a
guidance sample, an L-BFGS restart).  Retrying the identical inputs would
fail identically, so :func:`retry_call` threads the attempt number into a
``reseed`` callback that perturbs the inputs before each retry — e.g. a
failed guidance sample is retried with noise added to its guidance
vectors, then skipped.

Backoff sleeping defaults to zero: the failures here are deterministic
(solver divergence, unroutable nets), not transient I/O, and tests need
determinism.  A nonzero ``backoff_base`` enables real sleeping for
service deployments where the failure may be resource contention; those
deployments should also set ``jitter="full"`` so colliding retriers
(e.g. several supervisor-restarted workers hammering one registry)
decorrelate instead of thundering in lockstep.  Jitter draws come from
a ``default_rng([jitter_seed, attempt])`` stream — deterministic given
the policy, independent of call history — so the RNG discipline that
makes parallel runs bit-identical (RNG001) holds for backoff too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

import numpy as np

from repro.reliability.errors import ReproError

T = TypeVar("T")

#: Valid values of :attr:`RetryPolicy.jitter`.
JITTER_MODES = ("none", "full")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry knobs.

    Attributes:
        max_attempts: total tries (1 = no retry).
        retry_on: exception types that trigger a retry; anything else
            propagates immediately.
        backoff_base: seconds slept before the first retry (0 disables).
        backoff_factor: multiplier applied per subsequent retry.
        backoff_max: cap on a single sleep, seconds.
        jitter: ``"none"`` sleeps the exact exponential schedule;
            ``"full"`` draws uniformly from ``[0, schedule]`` (AWS-style
            full jitter), bounded by the same ``backoff_max`` cap.
        jitter_seed: seed of the jitter stream; draws depend only on
            ``(jitter_seed, attempt)``, so two policies with different
            seeds decorrelate while each stays deterministic.
    """

    max_attempts: int = 3
    retry_on: tuple[type[BaseException], ...] = (ReproError,)
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: str = "none"
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter not in JITTER_MODES:
            raise ValueError(
                f"jitter must be one of {JITTER_MODES}, got {self.jitter!r}")

    def sleep_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based retries).

        With ``jitter="full"`` the return value is a deterministic
        uniform draw from ``[0, min(base * factor**(attempt-1), max)]``
        seeded by ``(jitter_seed, attempt)``.
        """
        if self.backoff_base <= 0:
            return 0.0
        ceiling = min(self.backoff_base * self.backoff_factor ** (attempt - 1),
                      self.backoff_max)
        if self.jitter == "none":
            return ceiling
        draw = np.random.default_rng([self.jitter_seed, attempt]).random()
        return draw * ceiling


def retry_call(
    fn: Callable[..., T],
    *args: Any,
    policy: RetryPolicy | None = None,
    reseed: Callable[[int, dict[str, Any]], dict[str, Any]] | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
    **kwargs: Any,
) -> T:
    """Call ``fn(*args, **kwargs)``, retrying per ``policy``.

    Args:
        fn: the callable to run.
        policy: retry policy (default :class:`RetryPolicy`).
        reseed: optional hook called before each retry with
            ``(attempt, kwargs)``; returns the perturbed kwargs for that
            attempt.  ``attempt`` is 1-based for retries (first call is
            attempt 0 and is never reseeded).
        on_retry: optional observer called with ``(attempt, error)``
            after each failed attempt that will be retried.

    Raises:
        The last error, with ``attempt`` context attached when it is a
        :class:`ReproError`.
    """
    pol = policy or RetryPolicy()
    attempt_kwargs = dict(kwargs)
    last_error: BaseException | None = None
    for attempt in range(pol.max_attempts):
        if attempt > 0:
            delay = pol.sleep_for(attempt)
            if delay > 0:
                time.sleep(delay)
            if reseed is not None:
                attempt_kwargs = reseed(attempt, dict(kwargs))
        try:
            return fn(*args, **attempt_kwargs)
        except pol.retry_on as exc:
            last_error = exc
            if isinstance(exc, ReproError):
                exc.with_context(attempt=attempt)
            if on_retry is not None and attempt + 1 < pol.max_attempts:
                on_retry(attempt, exc)
    assert last_error is not None
    raise last_error
