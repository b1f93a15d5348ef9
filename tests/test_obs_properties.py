"""Property-based tests for the observability layer (seeded, hypothesis).

Three families of invariants from the observability design:

* any program of nested span operations yields a *well-nested* trace —
  unique ids, valid parent links, children emitted before their parents;
* under fault injection, every ``retry_total`` increment corresponds to
  a retry recorded on a ``dataset.sample`` span (outcome ``retried`` or
  ``skipped`` with a matching ``retries`` attribute);
* traces, counters and histograms are identical for ``workers=1`` and
  ``workers=4`` on the same seed — observability inherits the pipeline's
  bit-identical parallelism guarantee.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DatasetConfig, generate_dataset
from repro.obs import RunContext
from repro.reliability import DegradationPolicy, FaultPlan, inject_faults


# -- well-nestedness ------------------------------------------------------------------

#: Random span programs: each node is (name_index, outcome, children).
_span_trees = st.recursive(
    st.tuples(st.integers(0, 3),
              st.sampled_from(["ok", "retried", "skipped", None]),
              st.just(())),
    lambda children: st.tuples(
        st.integers(0, 3),
        st.sampled_from(["ok", "retried", "skipped", None]),
        st.lists(children, max_size=3).map(tuple)),
    max_leaves=12,
)


def _run_program(ctx: RunContext, node) -> None:
    name_index, outcome, children = node
    with ctx.span(f"stage{name_index}") as span:
        if outcome is not None:
            span.set(outcome=outcome)
        for child in children:
            _run_program(ctx, child)


def assert_well_nested(records: list[dict]) -> None:
    """The structural invariants every emitted trace must satisfy."""
    spans = [r for r in records if r.get("kind") == "span"]
    ids = [s["span_id"] for s in spans]
    assert len(ids) == len(set(ids)), "span ids must be unique"
    positions = {span_id: i for i, span_id in enumerate(ids)}
    for span in spans:
        parent = span["parent_id"]
        if parent is None:
            continue
        assert parent in positions, f"dangling parent {parent}"
        # Records are emitted at exit: a parent closes after its
        # children, so it must appear later in the file.
        assert positions[parent] > positions[span["span_id"]], (
            f"span {span['span_id']} emitted after its parent {parent}")


class TestWellNestedness:
    @settings(max_examples=50, deadline=None)
    @given(programs=st.lists(_span_trees, min_size=1, max_size=4))
    def test_random_span_programs_are_well_nested(self, programs):
        ctx = RunContext.recording()
        for program in programs:
            _run_program(ctx, program)
        events = ctx.drain_events()
        assert_well_nested(events)
        # Every span of the program made it out.
        def count(node):
            return 1 + sum(count(c) for c in node[2])
        assert len(events) == sum(count(p) for p in programs)

    @settings(max_examples=25, deadline=None)
    @given(programs=st.lists(_span_trees, min_size=1, max_size=3),
           split=st.integers(0, 2))
    def test_absorb_preserves_well_nestedness(self, programs, split):
        """Worker buffers absorbed mid-span still form a valid tree."""
        workers = []
        for program in programs:
            w = RunContext.recording()
            _run_program(w, program)
            workers.append((w.drain_events(), w.counter_values()))
        parent = RunContext.recording()
        with parent.span("stage.construct_database"):
            for i, (events, counters) in enumerate(workers):
                if i == split:
                    # Absorbing outside any open span is also legal.
                    pass
                parent.absorb(events, counters)
        assert_well_nested(parent.drain_events())

    @settings(max_examples=25, deadline=None)
    @given(program=_span_trees)
    def test_aggregates_match_event_stream(self, program):
        ctx = RunContext.recording()
        _run_program(ctx, program)
        events = ctx.drain_events()
        counts: dict[str, int] = {}
        for event in events:
            counts[event["name"]] = counts.get(event["name"], 0) + 1
        assert {n: a.count for n, a in ctx.aggregates.items()} == counts


# -- retry accounting under fault injection -------------------------------------------


class TestRetryAccounting:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(fail_indices=st.sets(st.integers(0, 2), min_size=1, max_size=2),
           max_retries=st.integers(0, 2))
    def test_retry_total_matches_span_retries(
            self, ota1, ota1_placement, tech, fail_indices, max_retries):
        """sum(retry_total{stage=*}) == sum of span ``retries`` attrs.

        A sample that retried and recovered carries outcome ``retried``;
        one that exhausted its retries carries ``skipped`` — in both
        cases the span's ``retries`` attribute equals the number of
        ``retry_total`` increments it caused.
        """
        obs = RunContext.recording()
        plan = FaultPlan(stage="routing", fail_indices=fail_indices)
        with inject_faults(plan):
            generate_dataset(
                ota1, ota1_placement, tech,
                DatasetConfig(num_samples=3, seed=0),
                policy=DegradationPolicy(max_retries=max_retries),
                obs=obs,
            )
        events = obs.drain_events()
        assert_well_nested(events)
        samples = [e for e in events if e["name"] == "dataset.sample"]
        span_retries = sum(e.get("attrs", {}).get("retries", 0)
                           for e in samples)
        counter_retries = sum(
            v for k, v in obs.counter_values().items()
            if k.startswith("retry_total"))
        assert counter_retries == span_retries
        # Outcomes are consistent with the retry counts they carry.
        for event in samples:
            attrs = event.get("attrs", {})
            if event["outcome"] == "ok":
                assert attrs.get("retries", 0) == 0
            elif event["outcome"] == "retried":
                assert attrs["retries"] >= 1
            elif event["outcome"] == "skipped":
                assert attrs["retries"] == max_retries
        # Retries were attributed to the injected stage.
        if counter_retries:
            assert obs.counter_values().get(
                "retry_total{stage=routing}") == counter_retries


# -- parallel trace identity ----------------------------------------------------------


def _strip_timing(events: list[dict]) -> list[dict]:
    """Span records minus per-process measurements (time, run id)."""
    out = []
    for event in events:
        kept = {k: v for k, v in event.items()
                if k not in ("start", "seconds", "run_id")}
        attrs = dict(kept.get("attrs", {}))
        out.append({**kept, "attrs": attrs})
    return out


class TestParallelIdentity:
    def _build(self, circuit, placement, tech, seed, workers, plan=None):
        obs = RunContext.recording()
        cfg = DatasetConfig(num_samples=4, seed=seed)
        policy = DegradationPolicy(max_retries=1)
        if plan is not None:
            with inject_faults(plan):
                generate_dataset(circuit, placement, tech, cfg,
                                 policy=policy, workers=workers, obs=obs)
        else:
            generate_dataset(circuit, placement, tech, cfg,
                             policy=policy, workers=workers, obs=obs)
        return (obs.drain_events(), obs.counter_values(), obs.aggregates,
                obs.metrics.to_dict()["histograms"])

    def test_counters_and_trace_identical_across_worker_counts(
            self, ota1, ota1_placement, tech):
        serial = self._build(ota1, ota1_placement, tech, seed=3, workers=1)
        parallel = self._build(ota1, ota1_placement, tech, seed=3, workers=4)
        assert serial[1] == parallel[1]  # counters
        assert _strip_timing(serial[0]) == _strip_timing(parallel[0])
        # Aggregates agree on everything but measured seconds.
        s_agg = {n: (a.count, a.outcomes) for n, a in serial[2].items()}
        p_agg = {n: (a.count, a.outcomes) for n, a in parallel[2].items()}
        assert s_agg == p_agg
        assert_well_nested(parallel[0])

    def test_attempt_histograms_merged_identically(
            self, ota1, ota1_placement, tech):
        # Histograms recorded inside a database attempt (the router's
        # frontier batches) ride back on the outcome like counters do.
        serial = self._build(ota1, ota1_placement, tech, seed=3, workers=1)
        parallel = self._build(ota1, ota1_placement, tech, seed=3, workers=4)
        assert serial[3]["route_frontier_batch"]["count"] > 0
        assert serial[3] == parallel[3]

    def test_identity_holds_under_faults(self, ota1, ota1_placement, tech):
        # Unit-scoped selection (sample 1, first attempt) is the only
        # addressing mode defined identically in serial and parallel runs.
        plan = FaultPlan(stage="routing", fail_units={(1, 0)})
        serial = self._build(ota1, ota1_placement, tech, seed=3, workers=1,
                             plan=plan)
        plan = FaultPlan(stage="routing", fail_units={(1, 0)})
        parallel = self._build(ota1, ota1_placement, tech, seed=3, workers=4,
                               plan=plan)
        assert serial[1] == parallel[1]
        assert _strip_timing(serial[0]) == _strip_timing(parallel[0])
        # The fault actually produced retry accounting to compare.
        assert any(k.startswith("retry_total") for k in serial[1])
