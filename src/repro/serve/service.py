"""The micro-batched guidance-scoring service.

Synchronous API, batched execution: callers submit ``(graph_id, C)``
requests one at a time (or as a stream) and the service coalesces the
pending queue into scoring waves of up to ``max_batch`` candidates,
each served by one model call.  The call is a tape-free
``Gnn3d.forward_batch`` with the model's weights held fixed
(:class:`repro.nn.no_grad` and :class:`repro.nn.frozen`, as potential
relaxation holds them): the model runs the wave in unions of
:data:`~repro.model.gnn3d.TAPE_FREE_UNION` candidates over the same
:class:`~repro.perf.cache.ForwardCacheStore`-backed plans relaxation
uses, writes its per-edge arrays into buffers the plans own, and reads
the values that do not depend on the guidance (the node embeddings,
layer 1's gathered source rows, the stacked weights) from its plans,
computed once per weight version.  A served score is bitwise a
tape-free :class:`~repro.model.gnn3d.Gnn3d` forward with live weights,
and the model's ``requires_grad`` flags are as they were after every
call.  Endpoints whose manifest declares ``precision: float32`` score
in float32 under the documented parity tolerance
(:data:`repro.serve.registry.FLOAT32_PARITY_RTOL`).

Operational behavior:

* **admission control** — the pending queue is bounded at ``max_queue``;
  a submit beyond it (or with an unknown graph id / misshaped guidance)
  is rejected with a typed
  :class:`~repro.reliability.errors.ServeError` and counted under
  ``serve_requests_total{status=rejected}``;
* **degradation** — when a graph's content fingerprint changes between
  registration and flush (the forward cache was invalidated mid-flight)
  or a batched forward raises, the affected chunk falls back to
  unbatched per-request forwards instead of failing wholesale;
* **observability** — ``serve_requests_total{status=...}`` counters, a
  ``serve_queue_depth`` gauge, and a per-batch ``serve_batch_seconds``
  latency histogram through the run's :class:`repro.obs.RunContext`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.graph.hetero import HeteroGraph
from repro.model.gnn3d import Gnn3d
from repro.nn import Parameter, Tensor, frozen, no_grad
from repro.obs import NULL_CONTEXT, RunContext
from repro.perf.cache import graph_fingerprint
from repro.reliability.errors import ReproError, ServeError
from repro.serve.registry import PRECISIONS, ModelManifest, ModelRegistry
from repro.simulation.metrics import FoMWeights

#: Exceptions a forward pass can legitimately raise at serve time; they
#: trigger degradation / per-request failure instead of crashing the
#: flush (anything else is a programming error and propagates).
_FORWARD_ERRORS = (ReproError, ValueError, ArithmeticError)


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs.

    Attributes:
        max_batch: most candidates coalesced into one scoring wave (the
            admission/dispatch window — per-wave fingerprint checks,
            grouping, and metric updates amortize over it).
        max_queue: admission bound on pending (submitted, unflushed)
            requests.
    """

    max_batch: int = 8
    max_queue: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


@dataclass(frozen=True)
class ScoreRequest:
    """One scoring request: a guidance candidate for a registered graph.

    Attributes:
        graph_id: endpoint the candidate targets.
        guidance: (num_aps, 3) guidance array in graph AP order.
        request_id: caller-chosen correlation id (assigned when omitted).
    """

    graph_id: str
    guidance: np.ndarray
    request_id: str | None = None


@dataclass(frozen=True)
class ScoreResult:
    """The scored outcome of one request.

    Attributes:
        request_id: correlation id of the originating request.
        graph_id: endpoint that scored it.
        status: ``"ok"`` or ``"failed"``.
        metrics: length-5 normalized metric predictions (``None`` on
            failure).
        fom: signed-weighted scalar figure of merit, lower is better
            (``None`` on failure).
        batch_size: candidates in the forward this request rode in.
        degraded: the request was served by an unbatched fallback.
        error: failure description when ``status == "failed"``.
    """

    request_id: str
    graph_id: str
    status: str
    metrics: np.ndarray | None
    fom: float | None
    batch_size: int
    degraded: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready record (the CLI's output-JSONL line)."""
        return {
            "id": self.request_id,
            "graph_id": self.graph_id,
            "status": self.status,
            "metrics": (None if self.metrics is None
                        else [float(m) for m in self.metrics]),
            "fom": None if self.fom is None else float(self.fom),
            "batch_size": self.batch_size,
            "degraded": self.degraded,
            "error": self.error,
        }


@dataclass
class _Endpoint:
    model: Gnn3d
    graph: HeteroGraph
    w_signed: np.ndarray
    fingerprint: tuple
    c_max: float = 4.0
    precision: str = "float64"
    # The weights a scoring call holds fixed, listed once: a
    # ``Module.parameters()`` walk costs more than the flags.
    params: list[Parameter] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = self.model.parameters()

    def predict(self, guidance: np.ndarray) -> np.ndarray:
        """The model's metric predictions for one candidate or a stack of
        them, tape-free and with the weights held fixed."""
        stack = Tensor(guidance.astype(np.float32)
                       if self.precision == "float32" else guidance)
        with no_grad(), frozen(self.params):
            return self.model(self.graph, stack).numpy()


@dataclass
class ServiceStats:
    """Cumulative request accounting (mirrors the obs counters, but
    available even when the service runs without a recording context)."""

    ok: int = 0
    failed: int = 0
    rejected: int = 0
    batches: int = 0
    degraded_batches: int = 0


class ScoringService:
    """Synchronous, internally micro-batched guidance scoring."""

    def __init__(self, config: ServeConfig | None = None,
                 obs: RunContext | None = None) -> None:
        self.config = config or ServeConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.stats = ServiceStats()
        self._endpoints: dict[str, _Endpoint] = {}
        self._queue: list[ScoreRequest] = []
        self._next_request = 0

    # -- endpoints ----------------------------------------------------------------

    def register(self, graph_id: str, model: Gnn3d, graph: HeteroGraph,
                 weights: FoMWeights | None = None,
                 c_max: float = 4.0, precision: str = "float64") -> None:
        """Expose ``model`` for scoring candidates on ``graph``.

        ``precision`` selects the execution dtype (see
        :data:`repro.serve.registry.PRECISIONS`); ``"float32"`` casts
        the model's parameters **in place** and serves every request in
        float32 under the documented parity tolerance
        (:data:`repro.serve.registry.FLOAT32_PARITY_RTOL`).
        """
        if precision not in PRECISIONS:
            raise ServeError(
                f"unknown precision {precision!r} (supported: "
                f"{PRECISIONS})", stage="serve",
                details={"precision": precision})
        if precision == "float32":
            model.to_dtype(np.float32)
        self._endpoints[graph_id] = _Endpoint(
            model=model, graph=graph,
            w_signed=(weights or FoMWeights()).as_signed_vector(),
            fingerprint=graph_fingerprint(graph), c_max=c_max,
            precision=precision)

    def register_checkpoint(self, graph_id: str, registry: ModelRegistry,
                            name: str, graph: HeteroGraph,
                            version: str | None = None) -> ModelManifest:
        """Load a registry checkpoint (integrity-checked against
        ``graph``) and register it under ``graph_id``.  The manifest's
        ``precision`` field selects the execution dtype (the registry
        load already cast the weights)."""
        model, manifest = registry.load(name, version, graph=graph)
        self._endpoints[graph_id] = _Endpoint(
            model=model, graph=graph,
            w_signed=manifest.signed_fom_vector(),
            fingerprint=tuple(manifest.graph_fingerprint),
            c_max=manifest.c_max, precision=manifest.precision)
        return manifest

    def graph_ids(self) -> list[str]:
        return sorted(self._endpoints)

    # -- admission ----------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _reject(self, message: str, **details) -> ServeError:
        self.stats.rejected += 1
        self.obs.counter("serve_requests_total", status="rejected").inc()
        return ServeError(message, stage="serve", details=details or None)

    def submit(self, request: ScoreRequest) -> ScoreRequest:
        """Queue one request; returns it with a request id assigned.

        Raises :class:`ServeError` when the queue is full, the graph id
        is unknown, or the guidance is misshaped/non-finite — rejected
        requests never enter the queue.
        """
        endpoint = self._endpoints.get(request.graph_id)
        if endpoint is None:
            raise self._reject(
                f"unknown graph_id {request.graph_id!r} "
                f"(registered: {self.graph_ids()})",
                graph_id=request.graph_id)
        # Admission-time shape normalization in float64; the
        # endpoint's predict casts right before the forward.
        # repro-lint: disable-next-line=PRE001 -- admission normalization
        guidance = np.asarray(request.guidance, dtype=float)
        expected = (endpoint.graph.num_aps, 3)
        if guidance.shape != expected:
            raise self._reject(
                f"guidance shape {guidance.shape} != {expected} for "
                f"graph {request.graph_id!r}", graph_id=request.graph_id)
        if not np.isfinite(guidance).all():
            raise self._reject(
                f"non-finite guidance for graph {request.graph_id!r}",
                graph_id=request.graph_id)
        if len(self._queue) >= self.config.max_queue:
            raise self._reject(
                f"queue full ({self.config.max_queue} pending); flush "
                "before submitting more", graph_id=request.graph_id,
                max_queue=self.config.max_queue)
        request_id = request.request_id
        if request_id is None:
            request_id = f"req-{self._next_request}"
        self._next_request += 1
        queued = ScoreRequest(graph_id=request.graph_id, guidance=guidance,
                              request_id=request_id)
        self._queue.append(queued)
        self.obs.gauge("serve_queue_depth").set(len(self._queue))
        return queued

    # -- scoring ------------------------------------------------------------------

    def flush(self) -> list[ScoreResult]:
        """Score every pending request; results in submission order."""
        queue, self._queue = self._queue, []
        self.obs.gauge("serve_queue_depth").set(0)
        if not queue:
            return []
        by_graph: dict[str, list[int]] = {}
        for index, request in enumerate(queue):
            by_graph.setdefault(request.graph_id, []).append(index)
        results: list[ScoreResult | None] = [None] * len(queue)
        max_batch = self.config.max_batch
        for graph_id, indices in by_graph.items():
            endpoint = self._endpoints[graph_id]
            for start in range(0, len(indices), max_batch):
                chunk = indices[start: start + max_batch]
                scored = self._score_chunk(endpoint,
                                           [queue[i] for i in chunk])
                for index, result in zip(chunk, scored):
                    results[index] = result
        for result in results:
            if result.status == "ok":
                self.stats.ok += 1
                self.obs.counter("serve_requests_total", status="ok").inc()
            else:
                self.stats.failed += 1
                self.obs.counter("serve_requests_total",
                                 status="failed").inc()
        return results

    def score(self, graph_id: str, guidance: np.ndarray,
              request_id: str | None = None) -> ScoreResult:
        """Submit one request and flush; returns *its* result.

        Anything already queued is flushed along with it (the service is
        synchronous — nothing scores until a flush).
        """
        queued = self.submit(ScoreRequest(graph_id, guidance,
                                          request_id=request_id))
        results = self.flush()
        return next(r for r in results if r.request_id == queued.request_id)

    def score_stream(
        self, requests: Iterable[ScoreRequest]
    ) -> Iterator[ScoreResult]:
        """Score an iterable of requests, coalescing up to ``max_batch``.

        Yields results in submission order as each internal batch
        completes, so an unbounded stream is served with bounded memory.
        """
        threshold = min(self.config.max_batch, self.config.max_queue)
        for request in requests:
            self.submit(request)
            if self.queue_depth >= threshold:
                yield from self.flush()
        yield from self.flush()

    # -- internals ----------------------------------------------------------------

    def _score_chunk(self, endpoint: _Endpoint,
                     requests: list[ScoreRequest]) -> list[ScoreResult]:
        """One coalesced forward (or its unbatched degradation)."""
        degraded = False
        current = graph_fingerprint(endpoint.graph)
        if current != tuple(endpoint.fingerprint):
            # The graph mutated under a pinned checkpoint: the forward
            # cache just invalidated, so skip building a fresh union
            # plan for what may be a transient geometry and serve this
            # chunk unbatched.  The new fingerprint becomes the pin so
            # a *stable* new geometry re-batches on the next flush.
            endpoint.fingerprint = current
            degraded = True
            self.obs.counter("serve_degraded_total",
                             reason="cache_invalidated").inc()
        start = time.perf_counter()
        preds: np.ndarray | None = None
        if not degraded and len(requests) > 1:
            try:
                preds = endpoint.predict(
                    np.stack([r.guidance for r in requests]))
            except _FORWARD_ERRORS:
                degraded = True
                self.obs.counter("serve_degraded_total",
                                 reason="forward_error").inc()
        results: list[ScoreResult] = []
        for row, request in enumerate(requests):
            if preds is not None:
                results.append(self._to_result(
                    endpoint, request, preds[row], len(requests), degraded))
                continue
            try:
                single = endpoint.predict(request.guidance)
            except _FORWARD_ERRORS as exc:
                results.append(ScoreResult(
                    request_id=request.request_id,
                    graph_id=request.graph_id, status="failed",
                    metrics=None, fom=None, batch_size=1,
                    degraded=degraded, error=str(exc)))
                continue
            results.append(self._to_result(
                endpoint, request, single, 1, degraded))
        elapsed = time.perf_counter() - start
        self.stats.batches += 1
        if degraded:
            self.stats.degraded_batches += 1
        mode = "unbatched" if preds is None else "batched"
        self.obs.counter("serve_batches_total", mode=mode).inc()
        self.obs.histogram("serve_batch_seconds").observe(elapsed)
        return results

    @staticmethod
    def _to_result(endpoint: _Endpoint, request: ScoreRequest,
                   metrics: np.ndarray, batch_size: int,
                   degraded: bool) -> ScoreResult:
        if not np.isfinite(metrics).all():
            return ScoreResult(
                request_id=request.request_id, graph_id=request.graph_id,
                status="failed", metrics=None, fom=None,
                batch_size=batch_size, degraded=degraded,
                error="non-finite model prediction")
        return ScoreResult(
            request_id=request.request_id, graph_id=request.graph_id,
            status="ok", metrics=metrics,
            fom=float(endpoint.w_signed @ metrics),
            batch_size=batch_size, degraded=degraded)
