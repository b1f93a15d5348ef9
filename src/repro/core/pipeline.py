"""The end-to-end AnalogFold flow (Figure 1(c) + Figure 2).

Stages, each timed for the Figure 5 runtime breakdown:

1. **Construct database** — sample guidance, route, extract, simulate.
2. **Model training** — fit the 3DGNN on the database.
3. **Routing guide generation** — pool-assisted potential relaxation.
4. **Guided detailed routing** — route with the derived guidance, simulate.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import (
    Database,
    DatasetConfig,
    generate_dataset,
    route_and_measure,
)
from repro.core.potential import PotentialFunction
from repro.core.relaxation import PotentialRelaxer, RelaxationConfig, RelaxedGuidance
from repro.model import Gnn3d, Gnn3dConfig, TrainConfig, Trainer
from repro.netlist.circuit import Circuit
from repro.obs import NULL_CONTEXT, NULL_SPAN, RunContext
from repro.placement.layout import Placement
from repro.reliability.errors import RelaxationError, ReproError, RoutingError
from repro.reliability.policy import DegradationPolicy
from repro.router import RouterConfig
from repro.router.guidance import RoutingGuidance
from repro.router.result import RoutingResult
from repro.simulation import TestbenchConfig
from repro.simulation.metrics import FoMWeights, PerformanceMetrics


@dataclass
class AnalogFoldConfig:
    """All knobs of the AnalogFold pipeline."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    gnn: Gnn3dConfig = field(default_factory=Gnn3dConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    fom_weights: FoMWeights = field(default_factory=FoMWeights)
    router: RouterConfig | None = None
    testbench: TestbenchConfig | None = None
    #: "potential" routes only the best-predicted guidance; "simulation"
    #: routes every derived guidance and keeps the best measured FoM.
    select_by: str = "simulation"
    #: With select_by="simulation", also consider the database's best
    #: already-routed sample as a candidate (no extra routing cost).
    include_database_best: bool = True
    #: Degradation policy for database construction and candidate routing.
    policy: DegradationPolicy = field(default_factory=DegradationPolicy)
    #: When set, database samples are checkpointed to this JSONL file.
    checkpoint_path: str | None = None
    #: Reuse completed samples from ``checkpoint_path`` instead of
    #: rebuilding them.
    resume: bool = False
    #: Worker processes for database construction (1 = in-process);
    #: parallel output is bit-identical to serial.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.select_by not in ("potential", "simulation"):
            raise ValueError(f"unknown select_by {self.select_by!r}")


@dataclass
class AnalogFoldResult:
    """Outcome of one AnalogFold run.

    Attributes:
        guidance: the guidance actually used for the final routing.
        routing: the final routing solution.
        metrics: measured post-layout metrics of the final routing.
        derived: all relaxation outputs (top-N_derive).
        stage_seconds: wall-clock per stage, keyed by stage name
            (Figure 5's categories).  Finer hot-path timings
            (route/extract/simulate/train/relax) are span aggregates of
            the run's :class:`~repro.obs.RunContext`.
        candidate_foms: measured FoM of every routed candidate, in
            evaluation order (derived guidances first, then the database
            best when ``include_database_best``); ``inf`` marks a
            candidate whose routing failed and was skipped.
        winner_index: index into ``candidate_foms`` of the candidate
            actually returned.
        winner_source: ``"derived"`` when the winner came from
            relaxation, ``"database"`` when the database's best
            already-routed sample won.
    """

    guidance: RoutingGuidance
    routing: RoutingResult
    metrics: PerformanceMetrics
    derived: list[RelaxedGuidance] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    candidate_foms: list[float] = field(default_factory=list)
    winner_index: int = 0
    winner_source: str = "derived"


class AnalogFold:
    """Performance-driven routing-guidance generator for one design.

    Args:
        circuit: the circuit to route.
        placement: its placement.
        tech: technology.
        config: pipeline configuration.
        obs: observability context; the default disabled context makes
            every emission a no-op.  When enabled, each pipeline stage
            opens a root ``stage.*`` span under which the fine-grained
            spans (``dataset.sample``, ``route.net``, ``train.epoch``,
            ``relax.restart``, ...) nest.  The span's ``minflt``
            attribute, also added to the ``stage_minflt_total{stage=...}``
            counter, is the minor page faults the process took in it.
    """

    def __init__(
        self,
        circuit: Circuit,
        placement: Placement,
        tech,
        config: AnalogFoldConfig | None = None,
        obs: RunContext | None = None,
    ) -> None:
        self.circuit = circuit
        self.placement = placement
        self.tech = tech
        self.config = config or AnalogFoldConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.database: Database | None = None
        self.model: Gnn3d | None = None
        self.stage_seconds: dict[str, float] = {}

    # -- stages ---------------------------------------------------------------------

    @contextmanager
    def _minor_faults(self, span):
        """Record the minor page faults of a ``stage.*`` span's block."""
        if span is NULL_SPAN:
            yield
            return
        usage = resource.getrusage
        before = usage(resource.RUSAGE_SELF).ru_minflt
        try:
            yield
        finally:
            faults = usage(resource.RUSAGE_SELF).ru_minflt - before
            span.set(minflt=faults)
            stage = span.name.removeprefix("stage.")
            self.obs.counter("stage_minflt_total", stage=stage).inc(faults)

    def build_database(self) -> Database:
        """Stage 1: construct the training database."""
        start = time.perf_counter()
        with self.obs.span("stage.construct_database") as span, \
                self._minor_faults(span):
            self.database = generate_dataset(
                self.circuit, self.placement, self.tech,
                config=self.config.dataset,
                router_config=self.config.router,
                testbench_config=self.config.testbench,
                policy=self.config.policy,
                checkpoint_path=self.config.checkpoint_path,
                resume=self.config.resume,
                workers=self.config.workers,
                obs=self.obs,
            )
        self.stage_seconds["construct_database"] = time.perf_counter() - start
        return self.database

    def train(self) -> Gnn3d:
        """Stage 2: train the 3DGNN on the database."""
        if self.database is None:
            self.build_database()
        start = time.perf_counter()
        with self.obs.span("stage.model_training") as span, \
                self._minor_faults(span):
            graph = self.database.graph
            self.model = Gnn3d(
                graph.ap_features.shape[1],
                graph.module_features.shape[1],
                self.config.gnn,
            )
            trainer = Trainer(self.model, graph, self.config.training,
                              obs=self.obs)
            with self.obs.span("train"):
                trainer.fit(self.database.train_samples())
        self.stage_seconds["model_training"] = time.perf_counter() - start
        return self.model

    def derive_guidance(self) -> list[RelaxedGuidance]:
        """Stage 3: relax the potential into top-N guidance solutions."""
        if self.model is None:
            self.train()
        start = time.perf_counter()
        with self.obs.span("stage.guide_generation") as span, \
                self._minor_faults(span):
            potential = PotentialFunction(
                self.model, self.database.graph,
                weights=self.config.fom_weights,
                c_max=self.config.dataset.c_max,
            )
            relaxer = PotentialRelaxer(self.config.relaxation, obs=self.obs)
            with self.obs.span("relax"):
                derived = relaxer.run(
                    potential, seed_guidance=self._best_database_guidance())
        self.stage_seconds["guide_generation"] = time.perf_counter() - start
        return derived

    def _ranked_database_samples(self):
        weights = self.config.fom_weights
        return sorted(self.database.samples,
                      key=lambda s: weights.fom(s.metrics))

    def _best_database_guidance(self) -> list:
        """Top measured guidance points, as relaxation seeds (Fig. 2(b))."""
        keys = self.database.graph.ap_keys
        top = self._ranked_database_samples()[: self.config.relaxation.seed_points]
        return [s.guidance.as_array(keys) for s in top]

    def route_with_guidance(self, guidance: RoutingGuidance):
        """Route the design under a guidance and simulate the result."""
        return route_and_measure(
            self.circuit, self.placement, self.tech, guidance,
            router_config=self.config.router,
            testbench_config=self.config.testbench,
            routing_pitch=self.config.dataset.routing_pitch,
            obs=self.obs,
        )

    # -- orchestration -----------------------------------------------------------------

    def _to_routing_guidance(self, relaxed: RelaxedGuidance) -> RoutingGuidance:
        graph = self.database.graph
        guidance = RoutingGuidance(c_max=self.config.dataset.c_max)
        for key, vec in zip(graph.ap_keys, relaxed.guidance):
            guidance.set(key, np.asarray(vec))
        return guidance

    def run(self) -> AnalogFoldResult:
        """Run the full pipeline and return the final routed solution.

        With ``select_by="simulation"``, candidates whose guided routing
        fails are skipped (FoM recorded as ``inf``); at least one
        candidate must route or a :class:`RoutingError` is raised.
        """
        derived = self.derive_guidance()
        if not derived:
            raise RelaxationError("relaxation produced no guidance",
                                  stage="relaxation")

        start = time.perf_counter()
        weights = self.config.fom_weights
        candidates: list[tuple[object, str]] = []
        candidate_foms: list[float] = []
        with self.obs.span("stage.guided_routing") as span, \
                self._minor_faults(span):
            if self.config.select_by == "simulation":
                for d in derived:
                    try:
                        sample = self.route_with_guidance(
                            self._to_routing_guidance(d))
                    except ReproError:
                        candidate_foms.append(float("inf"))
                        continue
                    candidates.append((sample, "derived"))
                    candidate_foms.append(weights.fom(sample.metrics))
                if self.config.include_database_best:
                    db_best = self._ranked_database_samples()[0]
                    candidates.append((db_best, "database"))
                    candidate_foms.append(weights.fom(db_best.metrics))
                if not candidates:
                    raise RoutingError(
                        f"all {len(derived)} derived guidance candidates "
                        f"failed guided routing",
                        stage="guided_routing",
                    )
                best_sample, winner_source = min(
                    candidates, key=lambda pair: weights.fom(pair[0].metrics))
            else:
                best_derived = min(derived, key=lambda d: d.potential)
                best_sample = self.route_with_guidance(
                    self._to_routing_guidance(best_derived)
                )
                winner_source = "derived"
                candidate_foms.append(weights.fom(best_sample.metrics))
            winner_index = candidate_foms.index(min(candidate_foms))
        self.stage_seconds["guided_routing"] = time.perf_counter() - start

        return AnalogFoldResult(
            guidance=best_sample.guidance,
            routing=best_sample.result,
            metrics=best_sample.metrics,
            derived=derived,
            stage_seconds=dict(self.stage_seconds),
            candidate_foms=candidate_foms,
            winner_index=winner_index,
            winner_source=winner_source,
        )
