"""Outside-in span tracing of the ``repro`` layers.

The tracer wraps public callables of ``repro.*`` from the benchmark's own
files, so no program file changes.  Each wrapper records a span (name,
start, end, parent) in memory; nothing is written until the run ends.  A
span's self time is its duration minus the time its child spans cover.

Class methods (``Gnn3d.forward``, ``Tensor.backward``, ``AnalogFold.*``,
``IterativeRouter.route_all``, ...) are looked up on the class at call
time, so wrapping the class attribute reaches every caller.  Module
functions are wrapped at the name the caller looks up:
``repro.core.dataset`` does ``from repro.extraction import extract``, so
the wrapper must replace ``repro.core.dataset.extract``; replacing
``repro.extraction.extract`` would never fire.

Counts are read at the same boundaries from objects the program already
exposes: ``AStarRouter.expansions_total``, ``RoutingResult``,
``ConstructionReport``, ``TrainHistory``, ``PotentialStats`` and
``ServiceStats``.  Values a job reads itself (``RelaxationTrace``, the
Figure-5 ``AnalogFold.stage_seconds``, ``ServiceStats.rejected``) arrive
through :meth:`Tracer.end_phase`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field

#: Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS = {
    "router.route_all": ("router.route_all_s", "router.route_all_calls"),
    "extraction.extract": ("extraction.extract_s",
                           "extraction.extract_calls"),
    "simulation.simulate": ("simulation.simulate_s",
                            "simulation.simulate_calls"),
    "graph.build": ("graph.build_s", None),
    "placement.place": ("placement.place_s", None),
    "dataset.generate": ("dataset.generate_s", None),
    "model.fit": ("model.fit_s", None),
    "model.forward": ("model.forward_s", "model.forward_calls"),
    "model.forward_batch": ("model.forward_batch_s",
                            "model.forward_batch_calls"),
    "nn.backward": ("nn.backward_s", "nn.backward_calls"),
    "cache.union_plan": ("cache.union_plan_s", "cache.union_plan_calls"),
    "potential.eval": ("potential.eval_s", None),
    "relax.run": ("relax.lbfgs_self_s", None),
    "serve.submit": ("serve.submit_s", None),
    "serve.flush": ("serve.flush_s", None),
}

#: Values filled by the wrappers' observers and by the jobs themselves
#: (the ``pipeline.*_s`` stage times are the Figure-5 breakdown).
COUNTS = (
    "router.expansions", "router.expansions_bucketed",
    "router.expansions_scalar", "router.ripup_rounds",
    "router.failed_nets", "dataset.samples_ok", "dataset.samples_retried",
    "dataset.samples_skipped", "model.fit_epochs",
    "model.forward_batch_candidates", "potential.evals",
    "potential.forwards", "relax.restarts", "relax.diverged",
    "relax.gnn_forwards", "serve.batches", "serve.candidates",
    "serve.degraded_batches", "serve.rejected",
    "pipeline.construct_database_s", "pipeline.model_training_s",
    "pipeline.guide_generation_s", "pipeline.guided_routing_s",
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent]`` per span; ``parent`` is the
        #: index of the enclosing span, -1 for a phase root.
        self.spans: list[list] = []
        #: Counts of the phase being recorded (see :meth:`begin_phase`).
        self.counts: Counter = Counter()
        #: ``(root span index, counts)`` of every finished phase.
        self.phases: list[tuple[int, Counter]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order")

    def begin_phase(self, name: str) -> int:
        """Open a root span; counts observed until :meth:`end_phase` are
        kept apart from other phases."""
        if self._stack:
            raise RuntimeError(f"phase {name!r} opened inside a span")
        self.counts = Counter()
        return self.begin(name)

    def end_phase(self, index: int, extra: dict | None = None) -> None:
        self.end(index)
        self.counts.update(extra or {})
        self.phases.append((index, self.counts))
        self.counts = Counter()

    # -- patches -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None,
             when=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`uninstall`.

        ``observe(args, kwargs)`` runs before the call and may return a
        callback that receives the call's result, for counts read from
        program objects.  When ``when(args, kwargs)`` is false the call
        passes through without a span (it only dispatches to another
        wrapped callable).
        """
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return original(*args, **kwargs)
            done = observe(args, kwargs) if observe is not None else None
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if done is not None:
                done(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; :meth:`Tracer.uninstall` undoes it."""
    import repro.core.dataset as dataset
    import repro.core.pipeline as pipeline
    import repro.graph
    import repro.placement
    from repro.core.potential import PotentialFunction
    from repro.core.relaxation import PotentialRelaxer
    from repro.model.gnn3d import Gnn3d
    from repro.model.training import Trainer
    from repro.nn.tensor import Tensor
    from repro.perf.cache import ForwardCacheStore
    from repro.router.iterative import IterativeRouter
    from repro.serve.service import ScoringService

    wrap = tracer.wrap

    def route_all(args, kwargs):
        astar = args[0].astar
        before = astar.expansions_total
        by_mode = dict(astar.expansions_by_mode)

        def done(result) -> None:
            counts = tracer.counts
            counts["router.expansions"] += astar.expansions_total - before
            for mode in ("bucketed", "scalar"):
                counts[f"router.expansions_{mode}"] += (
                    astar.expansions_by_mode.get(mode, 0)
                    - by_mode.get(mode, 0))
            counts["router.ripup_rounds"] += result.iterations
            counts["router.failed_nets"] += len(result.failed_nets)
        return done

    wrap(IterativeRouter, "route_all", "router.route_all", observe=route_all)
    wrap(dataset, "extract", "extraction.extract")
    wrap(dataset, "simulate_performance", "simulation.simulate")
    wrap(dataset, "build_hetero_graph", "graph.build")
    # The serve workload's own set-up builds its graph and placement
    # through the package names.
    wrap(repro.graph, "build_hetero_graph", "graph.build")
    wrap(repro.placement, "place_benchmark", "placement.place")

    def generate(args, kwargs):
        def done(database) -> None:
            report = database.report
            tracer.counts["dataset.samples_ok"] += report.valid
            tracer.counts["dataset.samples_retried"] += report.retried
            tracer.counts["dataset.samples_skipped"] += len(report.skipped)
        return done

    wrap(dataset, "generate_dataset", "dataset.generate", observe=generate)
    wrap(pipeline, "generate_dataset", "dataset.generate", observe=generate)

    def fit(args, kwargs):
        def done(history) -> None:
            tracer.counts["model.fit_epochs"] += len(history.train_loss)
        return done

    wrap(Trainer, "fit", "model.fit", observe=fit)
    # A (B, num_aps, 3) guidance only dispatches to forward_batch, which
    # has its own span; model.forward counts unbatched calls only.
    wrap(Gnn3d, "forward", "model.forward",
         when=lambda a, k: _arg(a, k, 2, "guidance").ndim == 2)

    def forward_batch(args, kwargs):
        tracer.counts["model.forward_batch_candidates"] += _arg(
            args, kwargs, 2, "guidance").shape[0]

    wrap(Gnn3d, "forward_batch", "model.forward_batch",
         observe=forward_batch)
    wrap(Tensor, "backward", "nn.backward")
    wrap(ForwardCacheStore, "union_plan", "cache.union_plan")
    wrap(PotentialFunction, "value_and_grad", "potential.eval")
    wrap(PotentialFunction, "value_and_grad_batch", "potential.eval")

    def relax(args, kwargs):
        stats = _arg(args, kwargs, 1, "potential").stats
        evals = stats.evals + stats.batched_evals
        forwards = stats.forwards

        def done(result) -> None:
            counts = tracer.counts
            counts["potential.evals"] += (stats.evals + stats.batched_evals
                                          - evals)
            counts["potential.forwards"] += stats.forwards - forwards
        return done

    wrap(PotentialRelaxer, "run", "relax.run", observe=relax)
    for method in ("build_database", "train", "derive_guidance", "run"):
        wrap(pipeline.AnalogFold, method, f"pipeline.{method}")

    def flush(args, kwargs):
        stats = args[0].stats
        before = (stats.batches, stats.degraded_batches,
                  stats.ok + stats.failed)

        def done(result) -> None:
            counts = tracer.counts
            counts["serve.batches"] += stats.batches - before[0]
            counts["serve.degraded_batches"] += (stats.degraded_batches
                                                 - before[1])
            counts["serve.candidates"] += stats.ok + stats.failed - before[2]
        return done

    wrap(ScoringService, "submit", "serve.submit")
    wrap(ScoringService, "flush", "serve.flush", observe=flush)


@dataclass
class PhaseSummary:
    """Per-span-name aggregates of one phase (a root span and its tree)."""

    name: str
    duration: float
    counts: Counter
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    inclusive_s: Counter = field(default_factory=Counter)


@dataclass
class Analysis:
    """Self times of a finished trace, per phase and per span path."""

    phases: list[PhaseSummary]
    #: span path (root first) -> [calls, inclusive s, self s], in the
    #: order the paths first appear, which is tree order.
    paths: dict[tuple[str, ...], list]


def analyse(tracer: Tracer) -> Analysis:
    """Aggregate the spans into per-phase self times and a path table.

    Spans nest by construction (one thread, stack discipline), so the
    time child spans cover is the sum of their durations, and the self
    times of a phase add up to its root span's duration.
    """
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    root = list(range(len(spans)))
    path: list[tuple[str, ...]] = []
    for i, (name, _, _, parent) in enumerate(spans):
        if parent < 0:
            path.append((name,))
            continue
        root[i] = root[parent]
        path.append(path[parent] + (name,))
        children[parent] += duration[i]
    phases = {index: PhaseSummary(spans[index][0], duration[index], counts)
              for index, counts in tracer.phases}
    paths: dict[tuple[str, ...], list] = {}
    for i, (name, _, _, _) in enumerate(spans):
        own = duration[i] - children[i]
        row = paths.setdefault(path[i], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration[i]
        row[2] += own
        phase = phases.get(root[i])
        if phase is None:
            continue
        phase.calls[name] += 1
        phase.self_s[name] += own
        phase.inclusive_s[name] += duration[i]
    return Analysis(phases=[phases[i] for i, _ in tracer.phases],
                    paths=paths)


def layer_values(phase: PhaseSummary) -> dict[str, float]:
    """Per-layer metric values of one phase, before the ratios."""
    values: dict[str, float] = {}
    for span, (time_metric, calls_metric) in SPAN_METRICS.items():
        values[time_metric] = phase.self_s[span]
        if calls_metric is not None:
            values[calls_metric] = phase.calls[span]
    values["relax.run_s"] = phase.inclusive_s["relax.run"]
    for name in COUNTS:
        values[name] = phase.counts[name]
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def with_ratios(values: dict[str, float]) -> dict[str, float]:
    """``values`` plus the ratios computed from them."""
    return {
        **values,
        "router.expansions_per_s": _ratio(values["router.expansions"],
                                          values["router.route_all_s"]),
        "relax.forwards_per_restart": _ratio(values["relax.gnn_forwards"],
                                             values["relax.restarts"]),
        "serve.candidates_per_batch": _ratio(values["serve.candidates"],
                                             values["serve.batches"]),
    }


def format_paths(analysis: Analysis) -> list[str]:
    """The self-time table: one row per span path, in tree order."""
    total = sum(row[1] for span_path, row in analysis.paths.items()
                if len(span_path) == 1)
    lines = [f"{'calls':>7} {'incl_s':>9} {'self_s':>9} {'self%':>6}  span"]
    for span_path, (calls, inclusive, own) in analysis.paths.items():
        share = 100.0 * own / total if total else 0.0
        lines.append(f"{calls:>7} {inclusive:>9.4f} {own:>9.4f} "
                     f"{share:>6.2f}  {'  ' * (len(span_path) - 1)}"
                     f"{span_path[-1]}")
    return lines
