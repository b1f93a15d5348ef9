"""Worker-process lifecycle: spawn, health-check, restart with backoff.

The :class:`Supervisor` owns the OS-level half of the cluster: it forks
worker processes (fork-preferred, like
:class:`repro.perf.parallel.SamplePool`), watches their liveness two
ways — ``Process.is_alive`` for crashes, ping/pong heartbeats over the
pipe for hangs — and restarts dead slots in place with capped
exponential backoff + full jitter (a
:class:`~repro.reliability.retry.RetryPolicy`), so a crash-looping
worker cannot hammer the registry while the rest of the pool serves.

It is event-based, not callback-based: the cluster's pump loop calls
:meth:`poll_events` each tick and receives ``("down", index)`` /
``("respawned", index)`` tuples exactly once per transition, which
keeps the dispatcher's re-dispatch accounting idempotent.  The
supervisor deliberately knows nothing about requests; routing stranded
work belongs to :class:`repro.serve.dispatch.Dispatcher`.

Metrics: ``serve_restart_total{worker=...}`` on every down transition,
``serve_hung_total{worker=...}`` when a heartbeat expires, and a
``serve_recovery_seconds`` histogram measuring death -> serving-again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection as mpc
from typing import Any, Callable, Iterator

from repro.obs import NULL_CONTEXT, RunContext
from repro.perf.parallel import _resolve_context
from repro.reliability.retry import RetryPolicy
from repro.serve.worker import WorkerContext, worker_main

#: Reload acknowledgement states (see :meth:`Supervisor.reload_state`).
RELOAD_IDLE = "idle"
RELOAD_PENDING = "pending"
RELOAD_OK = "ok"
RELOAD_FAILED = "failed"


@dataclass
class _Slot:
    """One worker slot (the process comes and goes; the slot stays)."""

    index: int
    process: Any = None
    conn: Any = None
    ready: bool = False
    versions: dict = field(default_factory=dict)
    restart_attempt: int = 0
    down_since: float | None = None
    restart_due: float | None = None
    ping_token: int = 0
    ping_sent_at: float | None = None
    last_ping_at: float | None = None
    reload_state: str = RELOAD_IDLE
    reload_error: str | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class Supervisor:
    """Keeps ``workers`` slots populated with live worker processes.

    Args:
        make_context: builds the :class:`WorkerContext` for a slot at
            spawn time — called again on every restart, so respawned
            workers pick up e.g. a rolled-back version map.
        workers: slot count.
        restart_policy: backoff schedule between death and respawn
            (``sleep_for`` is read, nothing ever blocks on it).
        heartbeat_interval_s: seconds between pings to a ready worker.
        heartbeat_timeout_s: unanswered-ping age that declares a hang.
        obs: observability context.
        clock: monotonic time source (injected for tests).
        start_method: multiprocessing start method (fork-preferred).
    """

    def __init__(
        self,
        make_context: Callable[[int], WorkerContext],
        workers: int,
        restart_policy: RetryPolicy | None = None,
        heartbeat_interval_s: float = 5.0,
        heartbeat_timeout_s: float = 10.0,
        obs: RunContext | None = None,
        clock: Callable[[], float] = time.perf_counter,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.make_context = make_context
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.clock = clock
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.restart_policy = restart_policy or RetryPolicy(
            max_attempts=1, backoff_base=0.05, backoff_factor=2.0,
            backoff_max=2.0, jitter="full")
        self._mp = _resolve_context(start_method)
        self._slots = [_Slot(index=index) for index in range(workers)]
        self._events: list[tuple[str, int]] = []
        self.restarts = 0
        self.recoveries: list[float] = []

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        for slot in self._slots:
            self._spawn(slot)

    def _spawn(self, slot: _Slot) -> None:
        ctx = self.make_context(slot.index)
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(target=worker_main,
                                   args=(child_conn, ctx), daemon=True)
        process.start()
        child_conn.close()  # parent keeps one end, or EOF never fires
        slot.process = process
        slot.conn = parent_conn
        slot.ready = False
        slot.restart_due = None
        slot.ping_sent_at = None
        slot.last_ping_at = None
        slot.reload_state = RELOAD_IDLE
        slot.reload_error = None

    def _mark_down(self, slot: _Slot, reason: str) -> None:
        """Idempotent death bookkeeping; queues one ``down`` event."""
        if slot.process is None:
            return
        now = self.clock()
        if slot.conn is not None:
            slot.conn.close()
        slot.conn = None
        if slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=5.0)
        slot.process = None
        slot.ready = False
        slot.reload_state = RELOAD_IDLE
        if slot.down_since is None:
            slot.down_since = now
        slot.restart_attempt += 1
        backoff = self.restart_policy.sleep_for(slot.restart_attempt)
        slot.restart_due = now + backoff
        self.restarts += 1
        self.obs.counter("serve_restart_total", worker=slot.index).inc()
        self.obs.counter("serve_worker_down_total", reason=reason).inc()
        self._events.append(("down", slot.index))

    def kill(self, index: int, reason: str = "hung") -> None:
        """SIGKILL a worker (hung detection, or chaos injection)."""
        slot = self._slots[index]
        if slot.process is None:
            return
        if reason == "hung":
            self.obs.counter("serve_hung_total", worker=index).inc()
        self._mark_down(slot, reason)

    def poll_events(self) -> list[tuple[str, int]]:
        """Detect crashes, perform due restarts; drain the event queue.

        Returns ``("down", index)`` once per death (however detected)
        and ``("respawned", index)`` once per restart.  The caller must
        re-dispatch the dead worker's in-flight work on ``down``.
        """
        now = self.clock()
        for slot in self._slots:
            if slot.process is not None and not slot.process.is_alive():
                self._mark_down(slot, reason="exited")
        for slot in self._slots:
            if (slot.process is None and slot.restart_due is not None
                    and now >= slot.restart_due):
                self._spawn(slot)
                self._events.append(("respawned", slot.index))
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        """Stop every worker: polite ``stop``, then SIGKILL stragglers."""
        for slot in self._slots:
            if slot.conn is not None and slot.alive():
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    # Already dying; the SIGKILL below reaps it.
                    self.obs.counter("serve_worker_down_total",
                                     reason="stop_failed").inc()
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=2.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=5.0)
                slot.process = None
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
            slot.ready = False
            slot.restart_due = None

    # -- health -------------------------------------------------------------------

    def heartbeat(self) -> set[int]:
        """Ping ready workers on the interval; return the hung ones.

        A worker is hung when its oldest unanswered ping is older than
        ``heartbeat_timeout_s``.  The caller decides to :meth:`kill`.
        """
        now = self.clock()
        hung: set[int] = set()
        for slot in self._slots:
            if not slot.ready or slot.conn is None:
                continue
            if (slot.ping_sent_at is not None
                    and now - slot.ping_sent_at >= self.heartbeat_timeout_s):
                hung.add(slot.index)
                continue
            if (slot.ping_sent_at is None
                    and (slot.last_ping_at is None
                         or now - slot.last_ping_at
                         >= self.heartbeat_interval_s)):
                slot.ping_token += 1
                if self.send(slot.index, ("ping", slot.ping_token)):
                    slot.ping_sent_at = now
                    slot.last_ping_at = now
        return hung

    def note_pong(self, index: int, token: int) -> None:
        slot = self._slots[index]
        if token == slot.ping_token:
            slot.ping_sent_at = None

    def note_ready(self, index: int, versions: dict) -> None:
        """A worker reported ``started``; records recovery time."""
        now = self.clock()
        slot = self._slots[index]
        slot.ready = True
        slot.versions = dict(versions)
        slot.restart_attempt = 0
        if slot.down_since is not None:
            recovery = now - slot.down_since
            self.recoveries.append(recovery)
            self.obs.histogram("serve_recovery_seconds").observe(recovery)
            slot.down_since = None

    # -- reload handshake ---------------------------------------------------------

    def begin_reload(self, index: int) -> None:
        slot = self._slots[index]
        slot.reload_state = RELOAD_PENDING
        slot.reload_error = None

    def note_reload(self, index: int, name: str, version: str,
                    error: str | None) -> None:
        slot = self._slots[index]
        if error is None:
            slot.versions[name] = version
            slot.reload_state = RELOAD_OK
        else:
            slot.reload_state = RELOAD_FAILED
            slot.reload_error = error

    def reload_state(self, index: int) -> tuple[str, str | None]:
        slot = self._slots[index]
        return slot.reload_state, slot.reload_error

    def end_reload(self, index: int) -> None:
        slot = self._slots[index]
        slot.reload_state = RELOAD_IDLE
        slot.reload_error = None

    # -- messaging ----------------------------------------------------------------

    def send(self, index: int, message: tuple) -> bool:
        """Send to a worker; on a broken pipe the slot goes down (one
        ``down`` event) and the send reports ``False``."""
        slot = self._slots[index]
        if slot.conn is None:
            return False
        try:
            slot.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            self._mark_down(slot, reason="pipe_broken")
            return False

    def receive(self, timeout_s: float) -> Iterator[tuple[int, tuple]]:
        """Yield every message readable within ``timeout_s``.

        EOF on a pipe (worker exited) marks the slot down; the ``down``
        event surfaces on the next :meth:`poll_events`.
        """
        by_conn = {slot.conn: slot for slot in self._slots
                   if slot.conn is not None}
        if not by_conn:
            if timeout_s > 0:
                time.sleep(timeout_s)
            return
        try:
            readable = mpc.wait(list(by_conn), timeout=timeout_s)
        except OSError:
            return
        for conn in readable:
            slot = by_conn[conn]
            while slot.conn is conn:
                try:
                    if not conn.poll(0):
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._mark_down(slot, reason="eof")
                    break
                yield slot.index, message

    # -- introspection ------------------------------------------------------------

    def ready_indices(self) -> list[int]:
        """Slots currently assignable: ready, alive, not mid-reload."""
        return [slot.index for slot in self._slots
                if slot.ready and slot.alive()
                and slot.reload_state in (RELOAD_IDLE, RELOAD_OK,
                                          RELOAD_FAILED)]

    def all_ready(self) -> bool:
        return all(slot.ready and slot.alive() for slot in self._slots)

    def is_alive(self, index: int) -> bool:
        return self._slots[index].alive()
