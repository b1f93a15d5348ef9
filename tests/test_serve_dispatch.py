"""Cluster dispatch core: breakers, shedding, re-dispatch, accounting.

The :class:`~repro.serve.dispatch.Dispatcher` is pure state with an
injected clock, so these tests drive virtual time — no processes, no
sleeping.  The load-bearing invariant (the one the chaos gate enforces
end to end) is checked here property-based over random interleavings of
acks, deliveries, kills, and clock advances:

* every acknowledged request reaches **exactly one** terminal outcome —
  never lost, never double-scored — for any kill/restart interleaving;
* ``ok + failed + timeout + shed + rejected == submitted`` holds at
  quiescence, and ``outstanding + accounted == submitted`` at every
  intermediate step.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import RunContext
from repro.serve.dispatch import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Dispatcher,
    affinity,
)
from repro.serve.service import ScoreRequest


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def request(graph_id: str = "g", request_id: str | None = None):
    return ScoreRequest(graph_id=graph_id, guidance=np.zeros((1, 3)),
                        request_id=request_id)


def ok_payload(request_id: str) -> dict:
    return {"id": request_id, "status": "ok", "metrics": [0.0] * 5,
            "fom": 0.0, "batch_size": 1}


# The dispatcher's queue, in-flight and overdue state, read directly:
# no serving code needs these views, only the tests do.


def inflight_ids(dispatcher: Dispatcher, worker: int) -> list[str]:
    return sorted(dispatcher._inflight[worker])


def queued_ids(dispatcher: Dispatcher) -> list[str]:
    return [p.request.request_id for p in dispatcher._queued]


def overdue_since(dispatcher: Dispatcher, worker: int) -> float | None:
    """Deadline of the worker's earliest unreturned timed-out request,
    or ``None`` when the worker owes nothing overdue."""
    return dispatcher._overdue.get(worker)


# -- circuit breaker ------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=1.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        assert breaker.state(0.0) == BREAKER_CLOSED
        breaker.record_failure(now=0.0)
        assert breaker.state(0.0) == BREAKER_OPEN
        assert not breaker.allows(0.5)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state(0.0) == BREAKER_CLOSED

    def test_half_open_allows_one_probe_then_closes_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(now=0.0)
        assert breaker.state(1.0) == BREAKER_HALF_OPEN
        assert breaker.allows(1.0)          # the single probe
        assert not breaker.allows(1.0)      # second caller must wait
        breaker.record_success()
        assert breaker.state(1.0) == BREAKER_CLOSED
        assert breaker.allows(1.0)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=1.0)
        for _ in range(3):
            breaker.record_failure(now=0.0)
        assert breaker.allows(1.0)          # half-open probe
        breaker.record_failure(now=1.0)     # probe failed: one strike
        assert breaker.state(1.5) == BREAKER_OPEN
        assert breaker.state(2.0) == BREAKER_HALF_OPEN

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown_s=-1.0)


# -- dispatcher unit behavior ---------------------------------------------------------


class TestDispatcher:
    def make(self, workers=2, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("max_queue", 8)
        kwargs.setdefault("worker_window", 2)
        return Dispatcher(workers, clock=clock, **kwargs), clock

    def test_happy_path_assign_and_record(self):
        dispatcher, clock = self.make()
        pending = dispatcher.ack(request(), deadline=clock() + 10)
        batch = dispatcher.assign(ready=[0, 1])
        assert len(batch) == 1
        worker, assigned = batch[0]
        assert assigned is pending
        assert worker == affinity("g", 2)
        clock.advance(0.25)
        assert dispatcher.record_result(worker,
                                        ok_payload(pending.request.request_id))
        result = dispatcher.result_for(pending.request.request_id)
        assert result.status == "ok"
        assert result.worker == worker
        assert result.latency_s == pytest.approx(0.25)
        assert dispatcher.outstanding() == 0

    def test_affinity_is_stable_and_in_range(self):
        for workers in (1, 2, 3, 7):
            for graph_id in ("ota1", "ota2", "x"):
                first = affinity(graph_id, workers)
                assert 0 <= first < workers
                assert affinity(graph_id, workers) == first

    def test_duplicate_request_id_rejected_at_ack(self):
        dispatcher, _ = self.make()
        dispatcher.ack(request(request_id="r1"))
        with pytest.raises(ValueError, match="duplicate request id"):
            dispatcher.ack(request(request_id="r1"))

    def test_saturation_sheds_earliest_deadline_first(self):
        obs = RunContext(run_id="shed-test")
        clock = FakeClock()
        dispatcher = Dispatcher(workers=1, max_queue=2, obs=obs,
                                clock=clock)
        soon = dispatcher.ack(request(request_id="soon"), deadline=1.0)
        late = dispatcher.ack(request(request_id="late"), deadline=9.0)
        dispatcher.ack(request(request_id="later"), deadline=5.0)
        # "soon" had the earliest deadline: it is the shed victim even
        # though the overflowing ack was "later".
        shed = dispatcher.result_for(soon.request.request_id)
        assert shed is not None and shed.status == "shed"
        assert dispatcher.result_for(late.request.request_id) is None
        assert dispatcher.stats.shed == 1
        assert obs.counter_values()[
            "serve_shed_total{reason=queue_full}"] == 1

    def test_worker_down_redispatches_in_ack_order(self):
        dispatcher, clock = self.make(workers=1, worker_window=4)
        ids = []
        for index in range(3):
            pending = dispatcher.ack(request(request_id=f"r{index}"),
                                     deadline=clock() + 10)
            ids.append(pending.request.request_id)
        dispatcher.assign(ready=[0])
        assert inflight_ids(dispatcher, 0) == sorted(ids)
        requeued = dispatcher.worker_down(0)
        assert requeued == 3
        assert queued_ids(dispatcher) == ids  # ack order preserved
        assert dispatcher.stats.redispatched == 3
        # The re-dispatch serves to completion on the restarted slot.
        for worker, pending in dispatcher.assign(ready=[0]):
            dispatcher.record_result(worker,
                                     ok_payload(pending.request.request_id))
        assert dispatcher.stats.ok == 3
        assert all(dispatcher.result_for(i).attempts == 2 for i in ids)

    def test_worker_down_times_out_already_expired_inflight(self):
        dispatcher, clock = self.make(workers=1)
        dispatcher.ack(request(request_id="r0"), deadline=1.0)
        dispatcher.assign(ready=[0])
        clock.advance(2.0)
        assert dispatcher.worker_down(0) == 0
        assert dispatcher.result_for("r0").status == "timeout"

    def test_expire_queued_and_inflight_and_hang_detection(self):
        dispatcher, clock = self.make(workers=2)
        dispatcher.ack(request(request_id="fast"), deadline=1.0)
        dispatcher.assign(ready=[0, 1])
        dispatcher.ack(request(request_id="stuck"), deadline=1.0)
        worker = affinity("g", 2)
        clock.advance(2.0)
        # Both expire; the in-flight one marks its worker overdue.
        assert dispatcher.expire(hang_grace_s=5.0) == set()
        assert dispatcher.result_for("fast").status == "timeout"
        assert dispatcher.result_for("stuck").status == "timeout"
        assert overdue_since(dispatcher, worker) == 1.0
        # No message for hang_grace past the missed deadline: hung.
        clock.advance(4.5)
        assert dispatcher.expire(hang_grace_s=5.0) == {worker}

    def test_late_result_clears_overdue_and_drops_as_duplicate(self):
        dispatcher, clock = self.make(workers=1)
        pending = dispatcher.ack(request(request_id="slow"), deadline=1.0)
        dispatcher.assign(ready=[0])
        clock.advance(2.0)
        dispatcher.expire(hang_grace_s=5.0)
        assert dispatcher.result_for("slow").status == "timeout"
        # The merely-slow worker delivers after all: duplicate, and the
        # worker is no longer overdue (it is alive, just slow).
        assert not dispatcher.record_result(
            0, ok_payload(pending.request.request_id))
        assert overdue_since(dispatcher, 0) is None
        assert dispatcher.stats.duplicates == 1
        assert dispatcher.result_for("slow").status == "timeout"

    def test_open_breaker_diverts_assignment(self):
        dispatcher, clock = self.make(workers=2, breaker_threshold=1,
                                      breaker_cooldown_s=10.0)
        preferred = affinity("g", 2)
        dispatcher.worker_down(preferred)  # trips the breaker open
        dispatcher.ack(request(), deadline=clock() + 10)
        batch = dispatcher.assign(ready=[0, 1])
        assert [worker for worker, _ in batch] == [1 - preferred]

    def test_window_limits_inflight_per_worker(self):
        dispatcher, clock = self.make(workers=1, worker_window=2)
        for index in range(4):
            dispatcher.ack(request(request_id=f"r{index}"),
                           deadline=clock() + 10)
        assert len(dispatcher.assign(ready=[0])) == 2
        assert queued_ids(dispatcher) == ["r2", "r3"]

    def test_take_completed_releases_prefix_in_ack_order(self):
        dispatcher, clock = self.make(workers=1, worker_window=4)
        for index in range(3):
            dispatcher.ack(request(request_id=f"r{index}"),
                           deadline=clock() + 10)
        batch = dispatcher.assign(ready=[0])
        # Finish r1 and r2 first: nothing releases past the r0 gap.
        dispatcher.record_result(0, ok_payload("r1"))
        dispatcher.record_result(0, ok_payload("r2"))
        assert dispatcher.take_completed() == []
        dispatcher.record_result(0, ok_payload("r0"))
        taken = dispatcher.take_completed()
        assert [r.request_id for r in taken] == ["r0", "r1", "r2"]
        assert dispatcher.take_completed() == []
        assert len(batch) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            Dispatcher(workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            Dispatcher(workers=1, max_queue=0)
        with pytest.raises(ValueError, match="worker_window"):
            Dispatcher(workers=1, worker_window=0)


# -- the invariant, property-based ----------------------------------------------------

#: One step of a random interleaving; integers parameterize the step.
_steps = st.one_of(
    st.tuples(st.just("ack"), st.integers(0, 3), st.floats(0.5, 20.0)),
    st.tuples(st.just("deliver"), st.integers(0, 2), st.just(0.0)),
    st.tuples(st.just("kill"), st.integers(0, 2), st.just(0.0)),
    st.tuples(st.just("advance"), st.just(0), st.floats(0.1, 3.0)),
    st.tuples(st.just("late_duplicate"), st.integers(0, 2), st.just(0.0)),
)


@settings(max_examples=60, deadline=None)
@given(workers=st.integers(1, 3), max_queue=st.integers(1, 6),
       window=st.integers(1, 3), steps=st.lists(_steps, max_size=40))
def test_no_ack_lost_or_double_scored_under_any_interleaving(
        workers, max_queue, window, steps):
    """Simulate the cluster pump against virtual workers that can be
    killed at any time; at quiescence every acknowledged request has
    exactly one terminal outcome and the counters balance."""
    clock = FakeClock()
    dispatcher = Dispatcher(workers, max_queue=max_queue,
                            worker_window=window, breaker_threshold=2,
                            breaker_cooldown_s=1.0, clock=clock)
    acked: list[str] = []
    # Mirror of what each virtual worker holds (assignment messages it
    # received and has not yet answered or died with).
    held: dict[int, list[str]] = {index: [] for index in range(workers)}
    answered: list[str] = []
    counter = 0

    def pump() -> None:
        for worker, pending in dispatcher.assign(ready=list(range(workers))):
            held[worker].append(pending.request.request_id)
        dispatcher.expire(hang_grace_s=math.inf)

    for kind, index, value in steps:
        assert (dispatcher.outstanding()
                + dispatcher.stats.accounted()) == dispatcher.stats.submitted
        if kind == "ack":
            graph_id = f"g{index}"
            request_id = f"r{counter}"
            counter += 1
            acked.append(request_id)
            dispatcher.ack(request(graph_id, request_id),
                           deadline=clock() + value)
        elif kind == "deliver":
            worker = index % workers
            if held[worker]:
                request_id = held[worker].pop(0)
                answered.append(request_id)
                dispatcher.record_result(worker, ok_payload(request_id))
        elif kind == "kill":
            worker = index % workers
            held[worker].clear()  # a killed process answers nothing
            dispatcher.worker_down(worker)
        elif kind == "advance":
            clock.advance(value)
        elif kind == "late_duplicate":
            worker = index % workers
            if answered:
                # A restarted worker re-serves an already-answered id.
                dispatcher.record_result(worker,
                                         ok_payload(answered[index %
                                                            len(answered)]))
        pump()

    # Drive to quiescence: advance past breaker cooldowns and deadlines,
    # answer everything still assigned.
    for _ in range(200):
        if dispatcher.outstanding() == 0:
            break
        clock.advance(1.5)
        pump()
        for worker, ids in held.items():
            while ids:
                dispatcher.record_result(worker, ok_payload(ids.pop(0)))
    assert dispatcher.outstanding() == 0

    stats = dispatcher.stats
    assert (stats.ok + stats.failed + stats.timeout + stats.shed
            + stats.rejected) == stats.submitted == len(acked)
    # Exactly one terminal outcome per acknowledged id; none invented.
    results = dispatcher.take_completed()
    assert sorted(r.request_id for r in results) == sorted(acked)
    assert len({r.request_id for r in results}) == len(acked)


@settings(max_examples=30, deadline=None)
@given(deadlines=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=12),
       max_queue=st.integers(1, 4))
def test_shedding_prefers_earliest_deadline(deadlines, max_queue):
    """Whenever the queue overflows, the shed victim's deadline is <=
    every deadline that stayed queued."""
    clock = FakeClock()
    dispatcher = Dispatcher(workers=1, max_queue=max_queue, clock=clock)
    by_id = {}
    for index, deadline in enumerate(deadlines):
        request_id = f"r{index}"
        by_id[request_id] = deadline
        dispatcher.ack(request(request_id=request_id), deadline=deadline)
        shed_ids = [r for r in by_id
                    if (res := dispatcher.result_for(r)) is not None
                    and res.status == "shed"]
        queued = queued_ids(dispatcher)
        if shed_ids and queued:
            assert max(by_id[r] for r in shed_ids) <= \
                min(by_id[r] for r in queued)
    assert len(queued_ids(dispatcher)) <= max_queue
