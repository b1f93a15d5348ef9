"""Dispatch core of the serving cluster: pure state, no processes.

The :class:`Dispatcher` owns every request between acknowledgement and
terminal outcome: the bounded pending queue (with oldest-deadline-first
load shedding), graph-affinity worker selection, per-worker in-flight
tracking, deadline expiry, per-worker :class:`CircuitBreaker` routing,
and the at-least-once re-dispatch of work stranded on a dead worker —
deduplicated by request id so a request is never double-scored.

It deliberately knows nothing about pipes or processes: callers (the
cluster's pump loop in :mod:`repro.serve.cluster`, or a simulated
harness in tests) feed it events — ``ack``, ``assign``, ``record_result``,
``worker_down``, ``expire`` — and it maintains the one invariant the
chaos gate checks: **every acknowledged request reaches exactly one
terminal outcome** (``ok`` / ``failed`` / ``timeout`` / ``shed``), so

    ok + failed + timeout + shed + rejected == submitted

holds at quiescence for any interleaving of kills and restarts.  Time is
injected (a ``clock`` callable, default ``time.perf_counter``) so tests
drive virtual time instead of sleeping.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs import NULL_CONTEXT, RunContext
from repro.serve.service import ScoreRequest

#: Breaker states, in escalation order.  The ``serve_breaker_state``
#: gauge reports the numeric value.
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2


class CircuitBreaker:
    """Per-worker breaker: open after K consecutive failures, half-open
    probe after a cooldown, close again on a successful probe.

    All transitions are driven by the caller's clock value, so the
    breaker itself never reads time.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._open_until = 0.0
        self._probe_outstanding = False

    def state(self, now: float) -> int:
        if self._state == BREAKER_OPEN and now >= self._open_until:
            self._state = BREAKER_HALF_OPEN
            self._probe_outstanding = False
        return self._state

    def allows(self, now: float) -> bool:
        """Whether a request may be routed to this worker right now.

        In half-open state only a single probe is allowed out at a time;
        the caller must report its fate via :meth:`record_success` /
        :meth:`record_failure`.
        """
        state = self.state(now)
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_OPEN:
            return False
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._probe_outstanding = False
        self._state = BREAKER_CLOSED

    def record_failure(self, now: float) -> None:
        self._consecutive_failures += 1
        self._probe_outstanding = False
        if (self._state == BREAKER_HALF_OPEN
                or self._consecutive_failures >= self.threshold):
            self._state = BREAKER_OPEN
            self._open_until = now + self.cooldown_s


@dataclass(eq=False)
class PendingRequest:
    """One acknowledged request travelling through the dispatcher.

    Attributes:
        request: the acknowledged :class:`ScoreRequest` (id assigned).
        unit: monotonically increasing acknowledgement ordinal; doubles
            as the fault-injection unit so injected serve faults address
            requests identically regardless of which worker serves them.
        submitted_at: clock reading at acknowledgement.
        deadline: absolute clock value after which the request times
            out; ``inf`` when the caller set none.
        attempts: dispatch attempts so far (re-dispatches increment).
    """

    request: ScoreRequest
    unit: int
    submitted_at: float
    deadline: float = math.inf
    attempts: int = 0


@dataclass(frozen=True)
class ClusterResult:
    """Terminal outcome of one acknowledged cluster request.

    ``status`` is one of ``"ok"``, ``"failed"`` (scored but unusable),
    ``"timeout"`` (missed its deadline; the error text carries the typed
    :class:`~repro.reliability.errors.ServeTimeoutError` message), or
    ``"shed"`` (dropped by admission control under saturation).
    """

    request_id: str
    graph_id: str
    status: str
    metrics: np.ndarray | None = None
    fom: float | None = None
    worker: int | None = None
    version: str | None = None
    batch_size: int = 0
    degraded: bool = False
    error: str | None = None
    latency_s: float = 0.0
    attempts: int = 1

    def to_dict(self) -> dict:
        """JSON-ready record (the CLI's output-JSONL line)."""
        return {
            "id": self.request_id,
            "graph_id": self.graph_id,
            "status": self.status,
            "metrics": (None if self.metrics is None
                        else [float(m) for m in self.metrics]),
            "fom": None if self.fom is None else float(self.fom),
            "worker": self.worker,
            "version": self.version,
            "batch_size": self.batch_size,
            "degraded": self.degraded,
            "error": self.error,
            "latency_s": round(float(self.latency_s), 6),
            "attempts": self.attempts,
        }


@dataclass
class ClusterStats:
    """Cumulative accounting; mirrors the obs counters so the invariant
    is checkable even without a recording context.

    Invariant at quiescence:
    ``ok + failed + timeout + shed + rejected == submitted``.
    """

    submitted: int = 0
    rejected: int = 0
    ok: int = 0
    failed: int = 0
    timeout: int = 0
    shed: int = 0
    redispatched: int = 0
    duplicates: int = 0
    restarts: int = 0
    hung_kills: int = 0
    rollovers: int = 0
    rollbacks: int = 0

    def completed(self) -> int:
        return self.ok + self.failed + self.timeout + self.shed

    def accounted(self) -> int:
        return self.completed() + self.rejected


def affinity(graph_id: str, workers: int) -> int:
    """Stable preferred worker for a graph: keeps that graph's forward
    cache warm in one process instead of cold in all of them."""
    digest = hashlib.blake2b(graph_id.encode("utf-8"),
                             digest_size=4).digest()
    return int.from_bytes(digest, "big") % workers


class Dispatcher:
    """Routes acknowledged requests to workers and accounts outcomes.

    Args:
        workers: fixed worker-slot count (slots restart in place).
        max_queue: bound on *queued* (acknowledged, undispatched)
            requests; beyond it the earliest-deadline entry is shed.
        worker_window: in-flight cap per worker slot.
        breaker_threshold / breaker_cooldown_s: circuit-breaker knobs.
        obs: observability context for the ``serve_*`` cluster metrics.
        clock: monotonic time source (injected for tests).
    """

    def __init__(
        self,
        workers: int,
        max_queue: int = 64,
        worker_window: int = 4,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
        obs: RunContext | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if worker_window < 1:
            raise ValueError(
                f"worker_window must be >= 1, got {worker_window}")
        self.workers = workers
        self.max_queue = max_queue
        self.worker_window = worker_window
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.clock = clock
        self.stats = ClusterStats()
        self.breakers = [CircuitBreaker(breaker_threshold,
                                        breaker_cooldown_s)
                         for _ in range(workers)]
        self._queued: list[PendingRequest] = []
        self._inflight: dict[int, dict[str, PendingRequest]] = {
            index: {} for index in range(workers)}
        #: Terminal ids (outcome recorded); late results for them drop.
        self._terminal: set[str] = set()
        #: worker -> deadline of its earliest timed-out-but-unreturned
        #: request; a worker overdue past the hang grace is declared
        #: hung.  Cleared by any message from the worker or its death.
        self._overdue: dict[int, float] = {}
        self._results: dict[str, ClusterResult] = {}
        #: Acknowledgement order, for returning results in submit order.
        self._order: list[str] = []
        self._returned = 0
        self._next_unit = 0

    # -- admission ----------------------------------------------------------------

    def reject(self) -> None:
        """Count a request refused before acknowledgement."""
        self.stats.submitted += 1
        self.stats.rejected += 1
        self.obs.counter("serve_cluster_requests_total",
                         status="rejected").inc()

    def ack(self, request: ScoreRequest,
            deadline: float | None = None) -> PendingRequest:
        """Acknowledge one request into the pending queue.

        When the queue is saturated the entry with the earliest deadline
        is shed (terminal ``"shed"`` outcome) — possibly the one just
        admitted — so the cluster degrades by dropping the least likely
        to make it instead of failing closed.
        """
        now = self.clock()
        request_id = request.request_id
        if request_id is None:
            request_id = f"creq-{self._next_unit}"
        if request_id in self._terminal or request_id in self._results \
                or any(p.request.request_id == request_id
                       for p in self._queued) \
                or any(request_id in flights
                       for flights in self._inflight.values()):
            raise ValueError(f"duplicate request id {request_id!r}")
        pending = PendingRequest(
            request=ScoreRequest(graph_id=request.graph_id,
                                 guidance=request.guidance,
                                 request_id=request_id),
            unit=self._next_unit, submitted_at=now,
            deadline=math.inf if deadline is None else deadline)
        self._next_unit += 1
        self.stats.submitted += 1
        self._order.append(request_id)
        self._queued.append(pending)
        self.obs.counter("serve_cluster_requests_total",
                         status="accepted").inc()
        while len(self._queued) > self.max_queue:
            victim = min(self._queued,
                         key=lambda p: (p.deadline, p.unit))
            # Remove by identity: dataclass == would compare the numpy
            # guidance arrays, which is ambiguous (and wrong here).
            self._queued = [p for p in self._queued if p is not victim]
            self._finish(victim, ClusterResult(
                request_id=victim.request.request_id,
                graph_id=victim.request.graph_id, status="shed",
                error="shed under saturation (earliest deadline first)",
                latency_s=now - victim.submitted_at,
                attempts=victim.attempts))
            self.obs.counter("serve_shed_total", reason="queue_full").inc()
        self.obs.gauge("serve_cluster_queue_depth").set(len(self._queued))
        return pending

    # -- assignment ---------------------------------------------------------------

    def _pick_worker(self, graph_id: str, ready: Sequence[int],
                     now: float) -> int | None:
        """First healthy worker on the affinity ring with window room."""
        if not ready:
            return None
        ready_set = set(ready)
        start = affinity(graph_id, self.workers)
        for offset in range(self.workers):
            index = (start + offset) % self.workers
            if index not in ready_set:
                continue
            if len(self._inflight[index]) >= self.worker_window:
                continue
            if not self.breakers[index].allows(now):
                continue
            return index
        return None

    def assign(self, ready: Sequence[int]) -> list[tuple[int,
                                                         PendingRequest]]:
        """Move queued requests onto ready workers; returns the batch of
        ``(worker, pending)`` the caller must actually transmit."""
        now = self.clock()
        assignments: list[tuple[int, PendingRequest]] = []
        remaining: list[PendingRequest] = []
        for pending in self._queued:
            index = self._pick_worker(pending.request.graph_id, ready, now)
            if index is None:
                remaining.append(pending)
                continue
            pending.attempts += 1
            self._inflight[index][pending.request.request_id] = pending
            assignments.append((index, pending))
        self._queued = remaining
        self.obs.gauge("serve_cluster_queue_depth").set(len(self._queued))
        self._publish_breaker_states(now)
        return assignments

    def _publish_breaker_states(self, now: float) -> None:
        for index, breaker in enumerate(self.breakers):
            self.obs.gauge("serve_breaker_state",
                           worker=index).set(breaker.state(now))

    # -- outcomes -----------------------------------------------------------------

    def _finish(self, pending: PendingRequest, result: ClusterResult) -> None:
        self._terminal.add(result.request_id)
        self._results[result.request_id] = result
        count = getattr(self.stats, result.status)
        setattr(self.stats, result.status, count + 1)
        self.obs.counter("serve_cluster_requests_total",
                         status=result.status).inc()
        self.obs.histogram("serve_request_seconds").observe(result.latency_s)

    def record_result(self, worker: int, payload: dict[str, Any]) -> bool:
        """Absorb one worker result message; False when dropped as a
        duplicate (late result for an already-terminal request)."""
        now = self.clock()
        request_id = payload["id"]
        self._overdue.pop(worker, None)
        pending = self._inflight[worker].pop(request_id, None)
        if pending is None or request_id in self._terminal:
            self.stats.duplicates += 1
            self.obs.counter("serve_duplicates_total", worker=worker).inc()
            return False
        self.breakers[worker].record_success()
        self._finish(pending, ClusterResult(
            request_id=request_id,
            graph_id=payload.get("graph_id", pending.request.graph_id),
            status=payload.get("status", "failed"),
            metrics=(None if payload.get("metrics") is None
                     else np.asarray(payload["metrics"], dtype=float)),
            fom=payload.get("fom"),
            worker=worker,
            version=payload.get("version"),
            batch_size=int(payload.get("batch_size", 1)),
            degraded=bool(payload.get("degraded", False)),
            error=payload.get("error"),
            latency_s=now - pending.submitted_at,
            attempts=pending.attempts))
        return True

    def worker_down(self, worker: int) -> int:
        """A worker died or was killed: trip its breaker and re-dispatch
        the stranded in-flight work (expired entries time out instead).

        Returns the number of requests re-queued.  At-least-once:
        a request whose result was already recorded stays terminal and
        any late duplicate from a restarted worker is dropped.
        """
        now = self.clock()
        self.breakers[worker].record_failure(now)
        self._overdue.pop(worker, None)
        stranded = self._inflight[worker]
        self._inflight[worker] = {}
        requeued = 0
        for pending in sorted(stranded.values(), key=lambda p: p.unit):
            if now >= pending.deadline:
                self._timeout(pending, now, where=f"worker {worker} died")
                continue
            requeued += 1
            self.stats.redispatched += 1
            self.obs.counter("serve_redispatch_total", worker=worker).inc()
            self._queued.append(pending)
        self._queued.sort(key=lambda p: p.unit)
        self._publish_breaker_states(now)
        return requeued

    def _timeout(self, pending: PendingRequest, now: float,
                 where: str) -> None:
        self.obs.counter("serve_shed_total", reason="deadline").inc()
        self._finish(pending, ClusterResult(
            request_id=pending.request.request_id,
            graph_id=pending.request.graph_id, status="timeout",
            error=(f"deadline exceeded after "
                   f"{now - pending.submitted_at:.3f}s ({where})"),
            latency_s=now - pending.submitted_at,
            attempts=pending.attempts))

    def expire(self, hang_grace_s: float = math.inf) -> set[int]:
        """Time out every request past its deadline.

        Queued ones finish immediately.  An in-flight one also finishes
        (the client stops waiting), and its worker is marked *overdue*:
        if the worker produces no message for ``hang_grace_s`` past that
        first missed deadline it is returned as hung, for the supervisor
        to kill (its non-expired in-flight work is re-dispatched through
        :meth:`worker_down` once the kill is observed).  A merely-slow
        worker clears the marker by delivering its late result, which is
        dropped as a duplicate.
        """
        now = self.clock()
        still_queued: list[PendingRequest] = []
        for pending in self._queued:
            if now >= pending.deadline:
                self._timeout(pending, now, where="queued")
            else:
                still_queued.append(pending)
        self._queued = still_queued
        for worker, flights in self._inflight.items():
            expired = [p for p in flights.values() if now >= p.deadline]
            for pending in expired:
                del flights[pending.request.request_id]
                self._timeout(pending, now, where=f"worker {worker}")
                self._overdue.setdefault(worker, pending.deadline)
        hung = {worker for worker, since in self._overdue.items()
                if now >= since + hang_grace_s}
        self.obs.gauge("serve_cluster_queue_depth").set(len(self._queued))
        return hung

    # -- introspection ------------------------------------------------------------

    def outstanding(self) -> int:
        return len(self._queued) + sum(len(f) for f in
                                       self._inflight.values())

    def inflight_ids(self, worker: int) -> list[str]:
        return sorted(self._inflight[worker])

    def queued_ids(self) -> list[str]:
        return [p.request.request_id for p in self._queued]

    def overdue_since(self, worker: int) -> float | None:
        """Deadline of the worker's earliest unreturned timed-out
        request, or ``None`` when the worker owes nothing overdue."""
        return self._overdue.get(worker)

    def result_for(self, request_id: str) -> ClusterResult | None:
        return self._results.get(request_id)

    def take_completed(self) -> list[ClusterResult]:
        """Completed results not yet taken, in acknowledgement order.

        Only the maximal completed *prefix* beyond what was already
        returned is released when earlier requests are still pending, so
        callers always see submission order.
        """
        taken: list[ClusterResult] = []
        while self._returned < len(self._order):
            request_id = self._order[self._returned]
            result = self._results.get(request_id)
            if result is None:
                break
            taken.append(result)
            self._returned += 1
        return taken
