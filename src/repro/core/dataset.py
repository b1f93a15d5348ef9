"""Database construction: sampled guidance -> routed -> simulated labels.

The paper collects training data by running the automatic router under many
different guidance settings and simulating each result ("learns from the
automatically generated routing patterns using their performance metrics").
This module reproduces that loop on our substrates.

Construction is fault-tolerant (see ``docs/RELIABILITY.md``): a sample
whose routing, extraction, or simulation fails is retried with perturbed
guidance, then skipped and backfilled by a freshly drawn sample; every
completed sample can be checkpointed to a JSONL file and reused on resume.
Only when fewer than the policy's ``min_valid_fraction`` of requested
samples survive does construction abort, with a typed
:class:`~repro.reliability.errors.DataQualityError`.

Construction parallelizes across ``workers`` processes (see
``docs/PERFORMANCE.md``): every sample's RNG inputs are derived from
deterministic per-sample streams and the parent applies the degradation
policy in submission order, so parallel output — database, construction
report, and checkpoint file alike — is bit-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.extraction import extract
from repro.graph import build_hetero_graph
from repro.graph.hetero import HeteroGraph
from repro.model.training import TrainSample
from repro.netlist.circuit import Circuit
from repro.obs import NULL_CONTEXT, RunContext
from repro.placement.layout import Placement
from repro.reliability.checkpoint import (
    CheckpointWriter,
    dataset_fingerprint,
    load_checkpoint,
)
from repro.reliability.errors import (
    DataQualityError,
    ExtractionError,
    ReproError,
    RoutingError,
    SimulationError,
)
from repro.reliability.faults import active_plans, fault_scope
from repro.reliability.policy import (
    ConstructionReport,
    DegradationPolicy,
    FailureRecord,
    validate_sample,
)
from repro.reliability.retry import RetryPolicy, retry_call
from repro.router import IterativeRouter, RouterConfig, RoutingGrid
from repro.router.guidance import RoutingGuidance, random_guidance, uniform_guidance
from repro.router.result import RoutingResult
from repro.simulation import TestbenchConfig, simulate_performance
from repro.simulation.metrics import PerformanceMetrics


@dataclass(frozen=True)
class DatasetConfig:
    """Database construction knobs.

    Attributes:
        num_samples: number of guidance samples routed and simulated.
        c_max: guidance feasible-region upper bound.
        seed: sampling seed.
        include_uniform: prepend one neutral-guidance sample (the unguided
            router's operating point, anchoring the dataset).
        routing_pitch: grid pitch in micrometers.
    """

    num_samples: int = 60
    c_max: float = 4.0
    seed: int = 0
    include_uniform: bool = True
    routing_pitch: float = 0.5

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError(
                f"num_samples must be positive, got {self.num_samples}")
        if self.c_max <= 0:
            raise ValueError(f"c_max must be positive, got {self.c_max}")
        if self.routing_pitch <= 0:
            raise ValueError(
                f"routing_pitch must be positive, got {self.routing_pitch}")


@dataclass
class GuidanceSample:
    """One database record.

    Attributes:
        guidance: the guidance used for routing.
        result: the routing solution.
        metrics: simulated post-layout metrics.
    """

    guidance: RoutingGuidance
    result: RoutingResult
    metrics: PerformanceMetrics


@dataclass
class Database:
    """The constructed design database.

    Attributes:
        graph: the design's heterogeneous graph (shared by all samples).
        samples: raw records.
        report: what happened during construction (retries, skips,
            checkpoint reuse); ``None`` for databases built by hand.
    """

    graph: HeteroGraph
    samples: list[GuidanceSample] = field(default_factory=list)
    report: ConstructionReport | None = None

    def train_samples(self) -> list[TrainSample]:
        """Convert records to supervised 3DGNN samples in graph AP order."""
        out = []
        for record in self.samples:
            guidance_arr = record.guidance.as_array(self.graph.ap_keys)
            out.append(TrainSample(
                guidance=guidance_arr,
                targets=record.metrics.to_normalized(),
            ))
        return out


def route_and_measure(
    circuit: Circuit,
    placement: Placement,
    tech,
    guidance: RoutingGuidance,
    router_config: RouterConfig | None = None,
    testbench_config: TestbenchConfig | None = None,
    routing_pitch: float = 0.5,
    sample_index: int | None = None,
    obs: RunContext | None = None,
) -> GuidanceSample:
    """Route one guidance setting and simulate the result.

    A fresh grid is built per call because routing mutates occupancy.
    Failures surface as typed :class:`~repro.reliability.errors.ReproError`
    subclasses with the stage and sample index attached.  An enabled
    ``obs`` context times the route/extract/simulate stages as one span
    each.
    """
    obs = obs if obs is not None else NULL_CONTEXT
    grid = RoutingGrid(placement, tech, pitch=routing_pitch)
    router = IterativeRouter(grid, guidance=guidance, config=router_config,
                             obs=obs)
    try:
        with obs.span("route"):
            result = router.route_all()
    except ReproError as exc:
        raise exc.with_context(stage="routing", sample_index=sample_index)
    except Exception as exc:
        raise RoutingError(str(exc), stage="routing",
                           sample_index=sample_index) from exc
    try:
        with obs.span("extract"):
            parasitics = extract(result, grid, tech)
    except ReproError as exc:
        raise exc.with_context(stage="extraction", sample_index=sample_index)
    except Exception as exc:
        raise ExtractionError(str(exc), stage="extraction",
                              sample_index=sample_index) from exc
    try:
        with obs.span("simulate"):
            metrics = simulate_performance(circuit, parasitics,
                                           testbench_config)
    except ReproError as exc:
        raise exc.with_context(stage="simulation", sample_index=sample_index)
    except Exception as exc:
        raise SimulationError(str(exc), stage="simulation",
                              sample_index=sample_index) from exc
    return GuidanceSample(guidance=guidance, result=result, metrics=metrics)


def _perturb_guidance(
    guidance: RoutingGuidance, seed: list[int], noise: float
) -> RoutingGuidance:
    """Retry input: the same guidance with Gaussian noise, kept feasible."""
    rng = np.random.default_rng(seed)
    out = guidance.copy()
    for key in out.vectors:
        out.vectors[key] = out.vectors[key] + rng.normal(0.0, noise, size=3)
    out.clip_to_feasible()
    return out


@dataclass
class AttemptOutcome:
    """Result of one sample attempt (with retries), process-portable.

    Workers return this to the parent, which applies the degradation
    policy; the serial path produces the identical structure so both
    modes share one bookkeeping code path.

    Attributes:
        index: the attempted sample index.
        sample: the completed sample, or ``None`` when abandoned.
        retries: retry attempts consumed (0 when the first try succeeded).
        failure: the skip record when abandoned after retries.
        obs_events: span records buffered by the attempt's recording
            context (empty when observability is disabled); the parent
            absorbs them in submission order.
        obs_counters: counter totals of the recording context, merged
            into the parent's registry alongside ``obs_events``.
        obs_histograms: histogram ``(count, sum, min, max)`` summaries of
            the recording context, folded in alongside ``obs_counters``.
    """

    index: int
    sample: GuidanceSample | None
    retries: int = 0
    failure: FailureRecord | None = None
    obs_events: list = field(default_factory=list)
    obs_counters: dict = field(default_factory=dict)
    obs_histograms: dict = field(default_factory=dict)


def attempt_sample(
    circuit: Circuit,
    placement: Placement,
    tech,
    guidance: RoutingGuidance,
    index: int,
    cfg: DatasetConfig,
    policy: DegradationPolicy,
    router_config: RouterConfig | None,
    testbench_config: TestbenchConfig | None,
    obs: RunContext | None = None,
) -> AttemptOutcome:
    """One sample with retries, as a pure function of its arguments.

    All RNG use is derived from ``(policy.retry_seed, index, attempt)``,
    and fault-injection calls are attributed to unit ``index`` via
    :func:`~repro.reliability.faults.fault_scope` — so the outcome is
    identical whether this runs in the parent process or a pool worker.

    ``obs`` should be a *recording* context (serial and parallel callers
    alike hand one in, so traces are identical for any worker count); its
    buffered spans, counters and histogram summaries ride back on the
    outcome.  The emitted ``dataset.sample`` span carries outcome ``ok`` /
    ``retried`` / ``skipped`` plus the consumed retry count, and every
    retry increments ``retry_total{stage=<failing stage>}``.
    """
    outcome = AttemptOutcome(index=index, sample=None)
    ctx = obs if obs is not None else NULL_CONTEXT

    def build(guidance: RoutingGuidance = guidance) -> GuidanceSample:
        sample = route_and_measure(
            circuit, placement, tech, guidance,
            router_config=router_config,
            testbench_config=testbench_config,
            routing_pitch=cfg.routing_pitch,
            sample_index=index,
            obs=ctx,
        )
        reason = validate_sample(sample, require_routed=policy.require_routed)
        if reason is not None:
            raise DataQualityError(reason, stage="quality", sample_index=index)
        return sample

    def reseed(attempt: int, _kwargs: dict) -> dict:
        outcome.retries += 1
        return {"guidance": _perturb_guidance(
            guidance, [policy.retry_seed, index, attempt], policy.retry_noise)}

    def on_retry(_attempt: int, exc: BaseException) -> None:
        stage = getattr(exc, "stage", None) or "unknown"
        ctx.counter("retry_total", stage=stage).inc()

    with ctx.span("dataset.sample", index=index) as span:
        try:
            with fault_scope(index):
                outcome.sample = retry_call(
                    build,
                    policy=RetryPolicy(max_attempts=policy.max_retries + 1),
                    reseed=reseed,
                    on_retry=on_retry,
                )
            span.set(outcome="retried" if outcome.retries else "ok",
                     retries=outcome.retries)
        except ReproError as exc:
            outcome.failure = FailureRecord(
                sample_index=index,
                stage=exc.stage or "unknown",
                error=exc.message,
                attempts=policy.max_retries + 1,
            )
            span.set(outcome="skipped", retries=outcome.retries,
                     stage=outcome.failure.stage)
    if obs is not None and obs.enabled:
        outcome.obs_events = obs.drain_events()
        outcome.obs_counters = obs.counter_values()
        outcome.obs_histograms = obs.metrics.histogram_summaries()
    return outcome


def generate_dataset(
    circuit: Circuit,
    placement: Placement,
    tech,
    config: DatasetConfig | None = None,
    router_config: RouterConfig | None = None,
    testbench_config: TestbenchConfig | None = None,
    policy: DegradationPolicy | None = None,
    checkpoint_path=None,
    resume: bool = False,
    workers: int = 1,
    obs: RunContext | None = None,
) -> Database:
    """Build the training database for one (circuit, placement) design.

    Args:
        policy: degradation policy for per-sample failures (default:
            one retry, skip-and-resample, 50% survivor floor).
        checkpoint_path: when given, completed samples are appended to
            this JSONL file as they finish.
        resume: reuse samples already present in ``checkpoint_path``
            (validated against the run fingerprint) instead of
            recomputing them.
        workers: worker processes for sample construction; 1 runs
            in-process.  Output is bit-identical across worker counts
            (deterministic per-sample RNG streams; the parent applies
            the degradation policy in submission order).
        obs: observability context; when enabled, every sample attempt
            emits a ``dataset.sample`` span tree (worker spans are
            buffered per attempt and absorbed in submission order, so
            the trace and all counters are identical for any worker
            count) and the construction report's totals are emitted as
            counters.

    Raises:
        DataQualityError: fewer than the policy's floor of valid samples
            survived construction.
        CheckpointError: ``resume`` was requested against a checkpoint
            from a different design or configuration.
    """
    cfg = config or DatasetConfig()
    pol = policy or DegradationPolicy()
    obs = obs if obs is not None else NULL_CONTEXT
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rng = np.random.default_rng(cfg.seed)

    reference_grid = RoutingGrid(placement, tech, pitch=cfg.routing_pitch)
    graph = build_hetero_graph(reference_grid)
    keys = graph.ap_keys

    guidances: list[RoutingGuidance] = []
    if cfg.include_uniform:
        guidances.append(uniform_guidance(keys, c_max=cfg.c_max))
    while len(guidances) < cfg.num_samples:
        guidances.append(random_guidance(keys, rng, c_max=cfg.c_max))

    report = ConstructionReport(requested=cfg.num_samples)
    database = Database(graph=graph, report=report)

    completed: dict[int, GuidanceSample] = {}
    writer: CheckpointWriter | None = None
    if checkpoint_path is not None:
        fingerprint = dataset_fingerprint(circuit, cfg, reference_grid)
        if resume:
            completed = load_checkpoint(checkpoint_path, fingerprint,
                                        reference_grid)
        writer = CheckpointWriter(checkpoint_path, fingerprint, resume=resume)

    # Replacement draws come from their own stream so the base sample
    # sequence is identical whether or not failures occur.
    resample_rng = np.random.default_rng([cfg.seed, 0x5A3E])
    resamples_left = pol.resamples_for(cfg.num_samples)
    next_index = cfg.num_samples

    pool = None
    futures: dict[int, object] = {}  # pending position -> Future
    if workers > 1:
        from repro.perf.parallel import SamplePool

        pool = SamplePool(
            context={
                "circuit": circuit,
                "placement": placement,
                "tech": tech,
                "config": cfg,
                "policy": pol,
                "router_config": router_config,
                "testbench_config": testbench_config,
                "fault_plans": active_plans(),
                "obs_enabled": obs.enabled,
            },
            workers=workers,
        )

    def schedule(position: int, index: int, guidance: RoutingGuidance) -> None:
        if pool is not None and index not in completed:
            futures[position] = pool.submit(index, guidance)

    try:
        pending = list(enumerate(guidances[: cfg.num_samples]))
        for position, (index, guidance) in enumerate(pending):
            schedule(position, index, guidance)
        # Results are consumed in submission order regardless of worker
        # completion order, so samples, checkpoint lines, skip records,
        # and resample draws are sequenced exactly as a serial run.
        cursor = 0
        while cursor < len(pending):
            index, guidance = pending[cursor]
            position = cursor
            cursor += 1
            reused = completed.get(index)
            if reused is not None:
                database.samples.append(reused)
                report.reused += 1
                report.valid += 1
                obs.emit_span("dataset.sample", 0.0, outcome="reused",
                              index=index)
                continue
            if pool is not None:
                outcome = futures.pop(position).result()
            else:
                outcome = attempt_sample(
                    circuit, placement, tech, guidance, index, cfg, pol,
                    router_config, testbench_config,
                    obs=RunContext.recording() if obs.enabled else None,
                )
            obs.absorb(outcome.obs_events, outcome.obs_counters,
                       outcome.obs_histograms)
            report.retried += outcome.retries
            if outcome.sample is not None:
                database.samples.append(outcome.sample)
                report.valid += 1
                if writer is not None:
                    writer.append_sample(index, outcome.sample)
            else:
                report.skipped.append(outcome.failure)
                if resamples_left > 0:
                    resamples_left -= 1
                    report.resampled += 1
                    pending.append((next_index,
                                    random_guidance(keys, resample_rng,
                                                    c_max=cfg.c_max)))
                    next_index += 1
                    schedule(len(pending) - 1, *pending[-1])
    finally:
        if pool is not None:
            pool.close()
        if writer is not None:
            writer.close()

    report.emit_metrics(obs)
    floor = pol.min_valid_samples(cfg.num_samples)
    if report.valid < floor:
        raise DataQualityError(
            f"database construction kept {report.valid} of "
            f"{cfg.num_samples} requested samples, below the floor of "
            f"{floor}",
            stage="database",
            details={
                "valid": report.valid,
                "floor": floor,
                "requested": cfg.num_samples,
                "failures_by_stage": report.failures_by_stage(),
            },
        )
    return database
