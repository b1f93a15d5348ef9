"""The benchmark's workloads: fold-ota1 and serve-ota1.

A workload builds its design in :meth:`setup` (timed as ``setup_s``),
runs one miniature job untimed in :meth:`warm_up`, so lazy imports and
first-call allocations stay out of the first timed job, and then runs
jobs.  A job takes its times with the ``clock`` it is given (wall time
by default; the untraced run passes a host-speed window's clock, see
``hostspeed.py``).  A job's inputs are a pure function of the run's seed
and the job index, so the same seed and index give the same inputs and, by
the repository's determinism contracts, the same outputs: the job's
``digest``.  A request is what a user waits for: a fold or a scoring
wave.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.graph
import repro.placement
from repro import (
    AnalogFold,
    AnalogFoldConfig,
    DatasetConfig,
    DegradationPolicy,
    FoMWeights,
    RelaxationConfig,
    RouterConfig,
    RoutingGrid,
    TrainConfig,
    build_benchmark,
    generic_40nm,
)
from repro.core.relaxation import PotentialRelaxer
from repro.model.gnn3d import Gnn3d
from repro.nn import Tensor, no_grad
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringService,
    ServeConfig,
    ServeError,
)

#: Database samples and training epochs of one fold; relaxation keeps the
#: RelaxationConfig defaults (the paper's 12 restarts, pool 6, N_derive 3,
#: serial restarts).
FOLD_SAMPLES = 12
FOLD_EPOCHS = 10
#: Job index and size of the untimed warm-up fold.
WARM_INDEX = 2**31 - 1
WARM_SAMPLES = 2
WARM_RELAXATION = dict(n_restarts=2, pool_size=1, n_derive=1, maxiter=3,
                       seed_points=1)
#: Candidates per scoring wave (the service's max_batch) and waves per
#: serve job.
WAVE = 16
JOB_WAVES = 64
#: Served scores per serve job checked against a direct unbatched forward.
PARITY_SAMPLES = 4
#: The float64 serving contract between a served score and that forward.
PARITY_TOL = 1e-10

FOM = FoMWeights()
#: Samples with unrouted nets are retried with perturbed guidance, so
#: every database layout is fully routed.  Three retries route every
#: random sample seen in tuning (OTA1 and OTA3), so no sample is skipped
#: and no operation fails.
POLICY = DegradationPolicy(require_routed=True, max_retries=3)


def subseed(seed: int, index: int) -> int:
    """Input seed of job ``index`` in a run with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Job:
    """What one job did.

    Attributes:
        busy_s: wall time the job spent in the program.
        latencies: seconds each request of the job waited for its result.
        items: layouts routed, extracted and simulated (fold) or
            candidates scored (serve).
        best_foms: FoM (lower is better) of the best output of each
            request.
        attempted: operations attempted.
        failed: operations failed.
        digest: content digest of the job's outputs.
        counts: layer values the job read from program objects itself.
        payload: the outputs ``verify`` checks.
    """

    busy_s: float
    latencies: list[float]
    items: int
    best_foms: list[float]
    attempted: int
    failed: int
    digest: str
    counts: dict[str, int] = field(default_factory=dict)
    payload: object = None


def _digest_routing(digest, routing) -> None:
    for net in sorted(routing.routes):
        digest.update(f"{net}:{routing.routes[net].paths!r};".encode())
    digest.update(f"failed:{routing.failed_nets!r}".encode())


def _routing_problems(routing, what: str) -> list[str]:
    problems = []
    if not routing.success:
        problems.append(f"{what}: nets not routed: {routing.failed_nets}")
    overlaps = routing.overlaps()
    if overlaps:
        problems.append(f"{what}: {len(overlaps)} grid cells claimed by "
                        f"more than one net")
    return problems


def _design(name: str):
    tech = generic_40nm()
    circuit = build_benchmark(name)
    # Looked up at call time, so the tracer's placement wrapper applies.
    placement = repro.placement.place_benchmark(circuit, variant="A", seed=0)
    return tech, circuit, placement


@contextmanager
def relaxation_traces():
    """Collect the ``RelaxationTrace`` of every ``PotentialRelaxer.run``.

    ``AnalogFold`` keeps its relaxer local, so the diverged restarts it
    records are read at the call boundary.
    """
    traces = []
    original = PotentialRelaxer.run

    def run(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            traces.append(self.trace)

    PotentialRelaxer.run = run
    try:
        yield traces
    finally:
        PotentialRelaxer.run = original


class FoldOta1:
    """One full ``AnalogFold.run`` on OTA1 placement A per job."""

    name = "fold-ota1"
    #: Spans that must fire in a traced run, and spans that must not.
    expect = ("router.route_all", "extraction.extract",
              "simulation.simulate", "graph.build", "placement.place",
              "dataset.generate", "model.fit", "model.forward",
              "nn.backward", "potential.eval", "relax.run",
              "pipeline.build_database", "pipeline.train",
              "pipeline.derive_guidance", "pipeline.run")
    bypass = ()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.tech, self.circuit, self.placement = _design("OTA1")

    def warm_up(self) -> None:
        self._fold(subseed(self.seed, WARM_INDEX), WARM_SAMPLES, 1,
                   RelaxationConfig(**WARM_RELAXATION))

    def job(self, index: int, clock=time.perf_counter) -> Job:
        seed = subseed(self.seed, index)
        return self._fold(seed, FOLD_SAMPLES, FOLD_EPOCHS,
                          RelaxationConfig(seed=seed), clock)

    def _fold(self, seed: int, samples: int, epochs: int,
              relaxation: RelaxationConfig, clock=time.perf_counter) -> Job:
        config = AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=samples, seed=seed),
            training=TrainConfig(epochs=epochs, seed=seed),
            relaxation=relaxation,
            router=RouterConfig(workers=0),
            select_by="simulation",
            policy=POLICY,
            workers=1,
        )
        fold = AnalogFold(self.circuit, self.placement, self.tech, config)
        with relaxation_traces() as traces:
            start = clock()
            result = fold.run()
            busy = clock() - start
        report = fold.database.report
        restarts = sum(t.restarts + t.diverged for t in traces)
        diverged = sum(t.diverged for t in traces)
        counts = {"relax.restarts": restarts, "relax.diverged": diverged,
                  "relax.gnn_forwards": sum(t.gnn_forwards for t in traces)}
        for stage, seconds in fold.stage_seconds.items():
            counts[f"pipeline.{stage}_s"] = seconds
        derived = result.candidate_foms[: len(result.derived)]
        unrouted = sum(1 for fom in derived if not np.isfinite(fom))
        digest = hashlib.sha256()
        for sample in fold.database.samples:
            _digest_routing(digest, sample.result)
        _digest_routing(digest, result.routing)
        digest.update(repr(result.candidate_foms).encode())
        return Job(
            busy_s=busy,
            latencies=[busy],
            items=report.valid + len(derived) - unrouted,
            best_foms=[FOM.fom(result.metrics)],
            attempted=(report.valid + len(report.skipped) + len(derived)
                       + restarts),
            failed=len(report.skipped) + unrouted + diverged,
            digest=digest.hexdigest(),
            counts=counts,
            payload=(fold.database, result),
        )

    def verify(self, job: Job) -> list[str]:
        database, result = job.payload
        problems = []
        for i, sample in enumerate(database.samples):
            problems += _routing_problems(sample.result,
                                          f"fold-ota1 database sample {i}")
        problems += _routing_problems(result.routing, "fold-ota1 winner")
        if not np.isfinite(job.best_foms[0]):
            problems.append(
                f"fold-ota1: winner FoM {job.best_foms[0]} is not finite")
        return problems


def _wave(service: ScoringService, batch: np.ndarray) -> list:
    """Submit one wave and wait for its results (a closed loop)."""
    for guidance in batch:
        try:
            service.submit(ScoreRequest("ota1", guidance))
        except ServeError:
            continue  # counted in ServiceStats.rejected
    return service.flush()


class ServeOta1:
    """One closed-loop client scoring fixed random candidates in waves."""

    name = "serve-ota1"
    expect = ("model.forward_batch", "cache.union_plan", "serve.submit",
              "serve.flush", "placement.place", "graph.build")
    bypass = ("router.route_all",)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.setups = 0

    def setup(self) -> None:
        tech, _, placement = _design("OTA1")
        graph = repro.graph.build_hetero_graph(RoutingGrid(placement, tech))
        self.setups += 1
        registry = ModelRegistry(self.scratch / f"registry-{self.setups}")
        # The deployed model is fixed; the seed draws only the candidates.
        registry.save("ota1", Gnn3d(graph.ap_features.shape[1],
                                    graph.module_features.shape[1]), graph)
        service = ScoringService(ServeConfig(max_batch=WAVE,
                                             max_queue=4 * WAVE))
        manifest = service.register_checkpoint("ota1", registry, "ota1",
                                               graph)
        self.reference, _ = registry.load("ota1", graph=graph)
        rng = np.random.default_rng(self.seed)
        self.candidates = rng.uniform(
            0.2, manifest.c_max - 0.2,
            size=(JOB_WAVES * WAVE, graph.num_aps, 3))
        # Warm-up: the first wave builds the forward cache's union plans.
        _wave(service, self.candidates[:WAVE])
        self.graph, self.service = graph, service

    def warm_up(self) -> None:
        """Nothing more: :meth:`setup` already scores a warm-up wave."""

    def job(self, index: int, clock=time.perf_counter) -> Job:
        service = self.service
        rejected = service.stats.rejected
        results, latencies, best = [], [], []
        start = clock()
        for wave in range(JOB_WAVES):
            sent = clock()
            scored = _wave(service,
                           self.candidates[wave * WAVE:(wave + 1) * WAVE])
            latencies.append(clock() - sent)
            results.extend(scored)
            foms = [r.fom for r in scored if r.status == "ok"]
            if foms:
                best.append(min(foms))
        busy = clock() - start
        rejected = service.stats.rejected - rejected
        ok = sum(1 for r in results if r.status == "ok")
        scores = np.array([np.nan if r.fom is None else r.fom
                           for r in results])
        return Job(
            busy_s=busy,
            latencies=latencies,
            items=ok,
            best_foms=best,
            attempted=len(results) + rejected,
            failed=len(results) - ok + rejected,
            digest=hashlib.sha256(scores.tobytes()).hexdigest(),
            counts={"serve.rejected": rejected},
            payload=results,
        )

    def verify(self, job: Job) -> list[str]:
        results = job.payload
        bad = sum(1 for r in results if r.status != "ok")
        if bad or len(results) != len(self.candidates):
            return [f"serve-ota1: {len(results)} of {len(self.candidates)} "
                    f"candidates answered, {bad} not ok"]
        problems = []
        for i in range(0, len(results), len(results) // PARITY_SAMPLES):
            with no_grad():
                direct = self.reference(
                    self.graph, Tensor(self.candidates[i])).numpy()
            error = float(np.max(np.abs(direct - results[i].metrics)))
            if not error < PARITY_TOL:
                problems.append(f"serve-ota1: candidate {i} scored {error:.3g} "
                                f"away from a direct forward")
        return problems


WORKLOADS = {w.name: w for w in (FoldOta1, ServeOta1)}
