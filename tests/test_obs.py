"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MANIFEST_VERSION,
    NULL_CONTEXT,
    NULL_METRIC,
    NULL_SPAN,
    TRACE_VERSION,
    MetricsRegistry,
    RunContext,
    aggregate_spans,
    flat_name,
    iter_trace,
    load_trace,
    make_run_id,
    render_report,
    verify_manifest,
)
from repro.obs.report import main as report_main


# -- metrics --------------------------------------------------------------------------


class TestMetrics:
    def test_flat_name_no_labels(self):
        assert flat_name("samples_valid") == "samples_valid"

    def test_flat_name_sorts_labels(self):
        a = flat_name("retry_total", {"stage": "routing", "kind": "x"})
        b = flat_name("retry_total", {"kind": "x", "stage": "routing"})
        assert a == b == "retry_total{kind=x,stage=routing}"

    def test_counter_increments(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.counter("n").inc(4)
        assert reg.counter_values() == {"n": 5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_counter_labels_are_distinct_metrics(self):
        reg = MetricsRegistry()
        reg.counter("retry_total", stage="routing").inc()
        reg.counter("retry_total", stage="simulation").inc(2)
        assert reg.counter_values() == {
            "retry_total{stage=routing}": 1,
            "retry_total{stage=simulation}": 2,
        }

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.to_dict()["gauges"] == {"g": 2.5}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        d = reg.to_dict()["histograms"]["h"]
        assert d == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                     "mean": 2.0}

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        assert reg.to_dict()["histograms"]["h"] == {"count": 0, "sum": 0.0}

    def test_absorb_counters_merges(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(1)
        reg.absorb_counters({"a": 2, "b": 3})
        assert reg.counter_values() == {"a": 3, "b": 3}

    def test_null_metric_is_inert(self):
        NULL_METRIC.inc()
        NULL_METRIC.set(1.0)
        NULL_METRIC.observe(2.0)


# -- spans and context ----------------------------------------------------------------


class TestSpans:
    def test_disabled_context_returns_shared_null_span(self):
        assert NULL_CONTEXT.span("x") is NULL_SPAN
        assert NULL_CONTEXT.span("y") is NULL_SPAN

    def test_disabled_context_metrics_are_null(self):
        assert NULL_CONTEXT.counter("c") is NULL_METRIC
        assert NULL_CONTEXT.gauge("g") is NULL_METRIC
        assert NULL_CONTEXT.histogram("h") is NULL_METRIC

    def test_null_span_is_usable(self):
        with NULL_CONTEXT.span("x") as span:
            span.set(outcome="retried", anything=1)
        assert span.seconds == 0.0

    def test_span_records_nesting(self):
        ctx = RunContext.recording()
        with ctx.span("outer"):
            with ctx.span("inner"):
                pass
        events = ctx.drain_events()
        # Children are emitted (closed) before their parents.
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner, outer = events
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_span_outcome_defaults(self):
        ctx = RunContext.recording()
        with ctx.span("ok_span"):
            pass
        with pytest.raises(RuntimeError):
            with ctx.span("err_span"):
                raise RuntimeError("boom")
        by_name = {e["name"]: e for e in ctx.drain_events()}
        assert by_name["ok_span"]["outcome"] == "ok"
        assert by_name["err_span"]["outcome"] == "error"

    def test_span_set_overrides_outcome_and_attrs(self):
        ctx = RunContext.recording()
        with ctx.span("s", fixed=1) as span:
            span.set(outcome="skipped", extra=2)
        (event,) = ctx.drain_events()
        assert event["outcome"] == "skipped"
        assert event["attrs"] == {"extra": 2, "fixed": 1}

    def test_emit_span_uses_given_seconds(self):
        ctx = RunContext.recording()
        ctx.emit_span("relax.restart", 1.25, outcome="diverged", restart=3)
        (event,) = ctx.drain_events()
        assert event["seconds"] == 1.25
        assert event["outcome"] == "diverged"
        assert event["attrs"]["restart"] == 3

    def test_emit_span_nests_under_open_span(self):
        ctx = RunContext.recording()
        with ctx.span("relax"):
            ctx.emit_span("relax.restart", 0.5)
        restart, relax = ctx.drain_events()
        assert restart["parent_id"] == relax["span_id"]

    def test_aggregates_track_emissions(self):
        ctx = RunContext.recording()
        with ctx.span("s"):
            pass
        with ctx.span("s") as span:
            span.set(outcome="retried")
        agg = ctx.aggregates["s"]
        assert agg.count == 2
        assert agg.outcomes == {"ok": 1, "retried": 1}

    def test_make_run_id_shape(self):
        rid = make_run_id()
        assert rid.startswith("run-")


class TestAbsorb:
    def test_absorb_remaps_ids_and_reparents(self):
        worker = RunContext.recording()
        with worker.span("dataset.sample", index=3):
            with worker.span("route"):
                pass
        worker.counter("retry_total", stage="routing").inc()

        parent = RunContext.recording()
        with parent.span("stage.construct_database"):
            parent.absorb(worker.drain_events(), worker.counter_values())
        events = parent.drain_events()
        by_name = {e["name"]: e for e in events}
        # The worker's root span hangs under the open parent span.
        assert (by_name["dataset.sample"]["parent_id"]
                == by_name["stage.construct_database"]["span_id"])
        # The worker-internal parent/child link is preserved, remapped.
        assert (by_name["route"]["parent_id"]
                == by_name["dataset.sample"]["span_id"])
        # Ids are unique within the absorbing context.
        ids = [e["span_id"] for e in events]
        assert len(ids) == len(set(ids))
        assert parent.counter_values() == {"retry_total{stage=routing}": 1}

    def test_absorb_updates_aggregates(self):
        worker = RunContext.recording()
        with worker.span("s"):
            pass
        parent = RunContext.recording()
        parent.absorb(worker.drain_events(), worker.counter_values())
        assert parent.aggregates["s"].count == 1

    def test_absorb_on_disabled_context_is_noop(self):
        worker = RunContext.recording()
        with worker.span("s"):
            pass
        NULL_CONTEXT.absorb(worker.drain_events(), {"c": 1})
        assert NULL_CONTEXT.aggregates == {}
        assert NULL_CONTEXT.counter_values() == {}

    def test_absorb_order_determines_ids(self):
        def record(tag):
            ctx = RunContext.recording()
            with ctx.span(tag):
                pass
            return ctx.drain_events(), ctx.counter_values()

        a, b = record("a"), record("b")
        p1 = RunContext.recording()
        p1.absorb(*a)
        p1.absorb(*b)
        p2 = RunContext.recording()
        p2.absorb(*a)
        p2.absorb(*b)
        strip = lambda evs: [
            {k: v for k, v in e.items() if k not in ("start", "run_id")}
            for e in evs
        ]
        assert strip(p1.drain_events()) == strip(p2.drain_events())


# -- file sink and manifest -----------------------------------------------------------


class TestFileSink:
    def test_trace_file_and_manifest(self, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        ctx = RunContext.to_file(trace, run_id="run-test")
        with ctx.span("a"):
            pass
        ctx.counter("samples_valid").inc(3)
        ctx.close()

        records = load_trace(trace)
        assert records[0]["kind"] == "header"
        assert records[0]["version"] == TRACE_VERSION
        assert records[0]["run_id"] == "run-test"
        spans = [r for r in records if r["kind"] == "span"]
        assert [s["name"] for s in spans] == ["a"]

        manifest_path = tmp_path / "run.trace.manifest.json"
        assert ctx.manifest_path == manifest_path
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["run_id"] == "run-test"
        assert manifest["counters"] == {"samples_valid": 3}
        assert manifest["spans"]["a"]["count"] == 1

    def test_close_is_idempotent(self, tmp_path):
        ctx = RunContext.to_file(tmp_path / "t.jsonl")
        ctx.close()
        ctx.close()

    def test_context_manager_closes(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with RunContext.to_file(trace) as ctx:
            with ctx.span("a"):
                pass
        assert ctx.manifest_path.exists()

    def test_numpy_attrs_serialize(self, tmp_path):
        import numpy as np

        trace = tmp_path / "t.jsonl"
        with RunContext.to_file(trace) as ctx:
            with ctx.span("a", loss=np.float64(0.5), n=np.int64(2)):
                pass
        (span,) = [r for r in iter_trace(trace) if r["kind"] == "span"]
        assert span["attrs"] == {"loss": 0.5, "n": 2}

    def test_disabled_close_writes_nothing(self, tmp_path):
        NULL_CONTEXT.close()
        assert NULL_CONTEXT.enabled is False


# -- report ---------------------------------------------------------------------------


class TestReport:
    def _make_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        ctx = RunContext.to_file(trace, run_id="run-r")
        with ctx.span("route"):
            pass
        with ctx.span("route") as span:
            span.set(outcome="retried")
        ctx.counter("samples_valid").inc(2)
        ctx.close()
        return trace, ctx

    def test_aggregate_spans_matches_context(self, tmp_path):
        trace, ctx = self._make_trace(tmp_path)
        derived = aggregate_spans(load_trace(trace))
        assert {n: a.to_dict() for n, a in derived.items()} == {
            n: a.to_dict() for n, a in ctx.aggregates.items()}

    def test_render_report_contents(self, tmp_path):
        trace, ctx = self._make_trace(tmp_path)
        text = render_report(aggregate_spans(load_trace(trace)),
                             ctx.counter_values())
        assert "route" in text
        assert "retried" in text
        assert "samples_valid" in text

    def test_verify_manifest_ok(self, tmp_path):
        trace, ctx = self._make_trace(tmp_path)
        manifest = json.loads(ctx.manifest_path.read_text())
        assert verify_manifest(load_trace(trace), manifest) == []

    def test_verify_manifest_detects_drift(self, tmp_path):
        trace, ctx = self._make_trace(tmp_path)
        manifest = json.loads(ctx.manifest_path.read_text())
        manifest["spans"]["route"]["count"] = 99
        manifest["spans"]["ghost"] = {"count": 1, "seconds": 0.0,
                                      "outcomes": {"ok": 1}}
        problems = verify_manifest(load_trace(trace), manifest)
        assert any("route" in p for p in problems)
        assert any("ghost" in p for p in problems)

    def test_report_cli_verify(self, tmp_path, capsys):
        trace, ctx = self._make_trace(tmp_path)
        rc = report_main([str(trace),
                          "--verify-manifest", str(ctx.manifest_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "manifest matches" in out

    def test_report_cli_verify_failure(self, tmp_path, capsys):
        trace, ctx = self._make_trace(tmp_path)
        manifest = json.loads(ctx.manifest_path.read_text())
        manifest["spans"]["route"]["count"] = 99
        ctx.manifest_path.write_text(json.dumps(manifest))
        rc = report_main([str(trace),
                          "--verify-manifest", str(ctx.manifest_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "MANIFEST MISMATCH" in out


# -- CLI flag wiring ------------------------------------------------------------------


class TestCliWiring:
    def test_fold_parser_accepts_trace_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fold", "OTA1", "--trace", "t.jsonl", "--metrics-summary"])
        assert args.trace == "t.jsonl"
        assert args.metrics_summary is True
        assert args.trace_dir is None

    def test_build_obs_modes(self, tmp_path):
        import argparse

        from repro.cli import _build_obs

        ns = argparse.Namespace(trace=None, trace_dir=None,
                                metrics_summary=False)
        assert _build_obs(ns) is NULL_CONTEXT

        ns.metrics_summary = True
        ctx = _build_obs(ns)
        assert ctx.enabled and ctx.trace_path is None

        ns.trace = str(tmp_path / "t.jsonl")
        ctx = _build_obs(ns)
        assert ctx.trace_path == tmp_path / "t.jsonl"
        ctx.close()

        ns.trace = None
        ns.trace_dir = str(tmp_path / "runs")
        ctx = _build_obs(ns)
        assert ctx.trace_path.parent == tmp_path / "runs"
        assert ctx.trace_path.name.endswith(".trace.jsonl")
        ctx.close()
