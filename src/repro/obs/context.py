"""The run context: hierarchical spans, counters, trace sink, manifest.

A :class:`RunContext` is the single observability handle threaded through
the pipeline.  It carries a run id, emits span records to a JSONL trace
sink, aggregates them into per-stage totals, and owns the run's
:class:`~repro.obs.metrics.MetricsRegistry`.  Three operating modes:

* **disabled** (:data:`NULL_CONTEXT`) — every call is a no-op; hot paths
  pay one attribute check and no ``perf_counter`` reads, so a run without
  ``--trace`` is indistinguishable from the pre-observability pipeline;
* **file-backed** (:meth:`RunContext.to_file`) — spans stream to a JSONL
  trace and :meth:`close` writes the run manifest next to it;
* **recording** (:meth:`RunContext.recording`) — spans buffer in memory.
  Parallel workers record into a per-worker context and ship the buffer
  back with their :class:`~repro.core.dataset.AttemptOutcome`; the parent
  absorbs buffers in submission order (see :meth:`absorb`), so the merged
  trace and all counters are identical for any worker count — the same
  guarantee the checkpoint file already has.

Spans are well-nested per context: ids are assigned at entry, a stack
tracks the open parent, and records are emitted at exit (so a span's
record always appears *after* its children's records in the trace file).
All span timing uses the monotonic ``time.perf_counter`` clock; trace
consumers must compare durations, never absolute wall-clock times.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import NULL_METRIC, MetricsRegistry

#: Schema version of trace records; bump on incompatible layout changes.
TRACE_VERSION = 1

#: Schema version of the run manifest; bump on incompatible layout changes.
MANIFEST_VERSION = 1


def make_run_id() -> str:
    """A unique-enough run id: wall-clock stamp plus pid."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"run-{stamp}-{os.getpid()}"


@dataclass
class SpanAggregate:
    """Running per-stage totals, updated as span records are emitted.

    The manifest's ``spans`` section is built from these aggregates —
    the *same* records that went to the trace file — so trace-derived
    totals and the manifest always agree exactly.
    """

    count: int = 0
    seconds: float = 0.0
    outcomes: dict[str, int] = field(default_factory=dict)

    def add(self, seconds: float, outcome: str) -> None:
        self.count += 1
        self.seconds += seconds
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "seconds": self.seconds,
                "outcomes": dict(sorted(self.outcomes.items()))}


class _NullSpan:
    """Span handle of a disabled context; every method is a no-op."""

    __slots__ = ()
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, outcome: str | None = None, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One timed unit of work; emitted as a trace record on exit.

    Returned by :meth:`RunContext.span` as a context manager.  Call
    :meth:`set` inside the block to record the outcome (default ``ok``;
    an exception leaving the block records ``error``) and attributes.
    When constructed with a ``timer``, the measured duration also feeds
    ``timer.add(name, seconds)`` — one clock read serving both the
    trace and the :class:`~repro.perf.timing.StageTimer` perf record.
    """

    __slots__ = ("_ctx", "name", "timer", "attrs", "outcome", "seconds",
                 "span_id", "parent_id", "_start")

    def __init__(self, ctx: "RunContext", name: str,
                 timer: Any = None, attrs: dict[str, Any] | None = None):
        self._ctx = ctx
        self.name = name
        self.timer = timer
        self.attrs = dict(attrs) if attrs else {}
        self.outcome: str | None = None
        self.seconds = 0.0
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self._start = 0.0

    def set(self, outcome: str | None = None, **attrs: Any) -> None:
        """Record the span outcome and/or extra attributes."""
        if outcome is not None:
            self.outcome = outcome
        if attrs:
            self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        ctx = self._ctx
        if ctx.enabled:
            self.span_id = ctx._allocate_span_id()
            self.parent_id = ctx._stack[-1] if ctx._stack else None
            ctx._stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        self.seconds = time.perf_counter() - self._start
        if self.timer is not None:
            self.timer.add(self.name, self.seconds)
        ctx = self._ctx
        if ctx.enabled:
            ctx._stack.pop()
            outcome = self.outcome
            if outcome is None:
                outcome = "error" if exc_type is not None else "ok"
            ctx._emit_span_record(
                name=self.name, span_id=self.span_id,
                parent_id=self.parent_id, start=self._start,
                seconds=self.seconds, outcome=outcome, attrs=self.attrs,
            )
        return False


class RunContext:
    """Observability handle of one pipeline run.

    Args:
        run_id: stable identifier stamped on every record (generated
            when omitted).
        trace_path: JSONL trace file; ``None`` keeps records in memory.
        manifest_path: where :meth:`close` writes the run manifest;
            defaults to ``<trace_path stem>.manifest.json`` when a trace
            file is given, else nowhere.
        enabled: ``False`` builds a permanent no-op context.
    """

    def __init__(
        self,
        run_id: str | None = None,
        trace_path: str | Path | None = None,
        manifest_path: str | Path | None = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self.run_id = run_id or (make_run_id() if enabled else "disabled")
        self.metrics = MetricsRegistry()
        self.aggregates: dict[str, SpanAggregate] = {}
        self.trace_path = Path(trace_path) if trace_path else None
        if manifest_path is not None:
            self.manifest_path: Path | None = Path(manifest_path)
        elif self.trace_path is not None:
            self.manifest_path = self.trace_path.with_suffix(
                ".manifest.json")
        else:
            self.manifest_path = None
        self._stack: list[int] = []
        self._next_id = 1
        self._events: list[dict[str, Any]] = []
        self._handle = None
        self._closed = False
        if self.trace_path is not None and enabled:
            self.trace_path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.trace_path.open("w", encoding="utf-8")
            self._write_json({
                "kind": "header", "version": TRACE_VERSION,
                "run_id": self.run_id,
                # Deliberately wall-clock: created_unix stamps when the
                # run happened for humans; durations never derive from it.
                "created_unix": time.time(),  # repro-lint: disable=CLK001 -- manifest timestamp
            })

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def disabled(cls) -> "RunContext":
        """The shared no-op context (see :data:`NULL_CONTEXT`)."""
        return NULL_CONTEXT

    @classmethod
    def recording(cls, run_id: str | None = None) -> "RunContext":
        """An in-memory context whose records are drained and absorbed."""
        return cls(run_id=run_id or "recording", trace_path=None)

    @classmethod
    def to_file(cls, trace_path: str | Path,
                run_id: str | None = None,
                manifest_path: str | Path | None = None) -> "RunContext":
        """A file-backed context streaming spans to ``trace_path``."""
        return cls(run_id=run_id, trace_path=trace_path,
                   manifest_path=manifest_path)

    # -- spans ----------------------------------------------------------------------

    def span(self, name: str, timer: Any = None, **attrs: Any):
        """A context manager timing one unit of work.

        When the context is disabled and no ``timer`` rides along, the
        shared :data:`NULL_SPAN` is returned — no allocation, no clock
        read.  A ``timer`` forces real timing (the perf record needs it)
        but still skips record emission on a disabled context.
        """
        if not self.enabled and timer is None:
            return NULL_SPAN
        return Span(self, name, timer=timer, attrs=attrs)

    def emit_span(self, name: str, seconds: float, outcome: str = "ok",
                  **attrs: Any) -> None:
        """Emit a pre-timed span record (no clock read of its own).

        For callers that already measured the duration — e.g. batched
        relaxation amortizes one wave's wall time over its restarts —
        so the trace reuses the caller's numbers instead of re-timing.
        """
        if not self.enabled:
            return
        span_id = self._allocate_span_id()
        parent_id = self._stack[-1] if self._stack else None
        self._emit_span_record(name=name, span_id=span_id,
                               parent_id=parent_id,
                               start=time.perf_counter(), seconds=seconds,
                               outcome=outcome, attrs=attrs)

    # -- metrics --------------------------------------------------------------------

    def counter(self, name: str, **labels: Any):
        if not self.enabled:
            return NULL_METRIC
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any):
        if not self.enabled:
            return NULL_METRIC
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any):
        if not self.enabled:
            return NULL_METRIC
        return self.metrics.histogram(name, **labels)

    # -- cross-process merge ----------------------------------------------------------

    def drain_events(self) -> list[dict[str, Any]]:
        """Remove and return buffered records (recording contexts only)."""
        events, self._events = self._events, []
        return events

    def counter_values(self) -> dict[str, int]:
        return self.metrics.counter_values()

    def absorb(self, events: list[dict[str, Any]],
               counters: dict[str, int] | None = None,
               histograms: dict[str, tuple] | None = None) -> None:
        """Merge a recording context's output into this one.

        Span ids are remapped into this context's id space and orphan
        roots are re-parented under the currently open span, preserving
        well-nestedness.  Because the parent absorbs worker buffers in
        submission order, the merged trace is identical for any worker
        count (timing values aside, which are measured per process).
        """
        if not self.enabled:
            return
        spans = [e for e in events if e.get("kind") == "span"]
        # Records are emitted at span *exit*, so children precede their
        # parents in the buffer; allocate every new id up front so
        # child->parent links resolve regardless of order.
        id_map = {event["span_id"]: self._allocate_span_id()
                  for event in spans if event.get("span_id") is not None}
        for event in spans:
            old_parent = event.get("parent_id")
            if old_parent in id_map:
                parent = id_map[old_parent]
            else:
                parent = self._stack[-1] if self._stack else None
            self._emit_span_record(
                name=event["name"], span_id=id_map.get(event.get("span_id")),
                parent_id=parent,
                start=event.get("start", 0.0), seconds=event["seconds"],
                outcome=event["outcome"], attrs=event.get("attrs", {}),
            )
        if counters:
            self.metrics.absorb_counters(counters)
        if histograms:
            self.metrics.absorb_histograms(histograms)

    # -- emission -------------------------------------------------------------------

    def _allocate_span_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _emit_span_record(self, name: str, span_id: int | None,
                          parent_id: int | None, start: float,
                          seconds: float, outcome: str,
                          attrs: dict[str, Any]) -> None:
        self.aggregates.setdefault(name, SpanAggregate()).add(
            seconds, outcome)
        record: dict[str, Any] = {
            "kind": "span", "run_id": self.run_id, "span_id": span_id,
            "parent_id": parent_id, "name": name, "start": start,
            "seconds": seconds, "outcome": outcome,
        }
        if attrs:
            record["attrs"] = {k: attrs[k] for k in sorted(attrs)}
        if self._handle is not None:
            self._write_json(record)
        else:
            self._events.append(record)

    def _write_json(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True,
                                      default=_json_default) + "\n")

    # -- manifest -------------------------------------------------------------------

    def manifest(self) -> dict[str, Any]:
        """The run manifest: metrics plus per-stage span aggregates."""
        return {
            "kind": "manifest",
            "version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "trace": str(self.trace_path) if self.trace_path else None,
            "spans": {name: self.aggregates[name].to_dict()
                      for name in sorted(self.aggregates)},
            **self.metrics.to_dict(),
        }

    def write_manifest(self, path: str | Path | None = None) -> Path | None:
        """Write the manifest as pretty JSON; returns the path."""
        target = Path(path) if path is not None else self.manifest_path
        if target is None:
            return None
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.manifest(), indent=2, sort_keys=True,
                       default=_json_default) + "\n",
            encoding="utf-8")
        return target

    def close(self) -> None:
        """Flush and close the trace sink, writing the manifest."""
        if self._closed or not self.enabled:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.write_manifest()

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _json_default(value: Any) -> Any:
    """Serialize numpy scalars and other oddballs as plain Python."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def iter_trace(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every record of a JSONL trace file."""
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


#: The shared no-op context; safe as a default everywhere.
NULL_CONTEXT = RunContext(enabled=False)
