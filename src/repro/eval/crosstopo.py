"""Cross-topology generalization: train on OTAs, score unseen circuits.

The 3DGNN's inputs are topology-agnostic (fixed per-node feature widths,
graph passed at forward time) and its targets are the fixed normalized
metric scheme, so one model can be trained on several designs at once
(:meth:`~repro.model.training.Trainer.fit_multi`) and asked to rank
guidance candidates for a circuit it has never seen — exactly the
deployment story for ingested netlists, which arrive with no training
database of their own.

This module measures that transfer: train on benchmark OTAs, then for
each held-out design (typically ingested from ``tests/corpus/``)
compare predicted vs measured figure-of-merit over a fresh sample set —
normalized-metric MAE, Spearman rank correlation, and where the
predicted-best guidance lands in the measured ranking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.dataset import Database, DatasetConfig, generate_dataset
from repro.io.ingest import ingest_file
from repro.model import Gnn3d, Gnn3dConfig, TrainConfig, Trainer
from repro.model.evaluation import evaluate_surrogate
from repro.netlist import build_benchmark
from repro.placement import place_benchmark
from repro.simulation.metrics import FoMWeights
from repro.tech import generic_40nm


@dataclass(frozen=True)
class CrossTopoScale:
    """Problem-size preset for a cross-topology run."""

    name: str
    train_samples: int
    eval_samples: int
    epochs: int
    placement_iterations: int


CROSSTOPO_SCALES: dict[str, CrossTopoScale] = {
    "smoke": CrossTopoScale("smoke", train_samples=6, eval_samples=6,
                            epochs=4, placement_iterations=100),
    "fast": CrossTopoScale("fast", train_samples=24, eval_samples=16,
                           epochs=20, placement_iterations=300),
    "full": CrossTopoScale("full", train_samples=80, eval_samples=40,
                           epochs=60, placement_iterations=1000),
}


@dataclass
class DesignScore:
    """Transfer quality of the shared model on one held-out design."""

    design: str
    n_samples: int
    mae: float
    rank_corr: float
    #: measured-FoM percentile of the predicted-best sample (0 = the
    #: prediction picked the truly best guidance; 100 = the worst).
    pred_best_percentile: float
    runtime_s: float


@dataclass
class CrossTopoResult:
    """A full cross-topology evaluation."""

    train_designs: list[str]
    scale: str
    seed: int
    rows: list[DesignScore] = field(default_factory=list)
    train_seconds: float = 0.0


def _benchmark_database(name: str, scale: CrossTopoScale, seed: int,
                        num_samples: int) -> Database:
    circuit = build_benchmark(name)
    placement = place_benchmark(circuit, seed=seed,
                                iterations=scale.placement_iterations)
    return generate_dataset(
        circuit, placement, generic_40nm(),
        config=DatasetConfig(num_samples=num_samples, seed=seed))


def _ingested_database(path: str | Path, scale: CrossTopoScale,
                       seed: int) -> tuple[str, Database]:
    result = ingest_file(path)
    circuit = result.circuit
    placement = place_benchmark(circuit, seed=seed,
                                iterations=scale.placement_iterations)
    database = generate_dataset(
        circuit, placement, generic_40nm(),
        config=DatasetConfig(num_samples=scale.eval_samples, seed=seed),
        testbench_config=result.config)
    return circuit.name, database


def score_design(model: Gnn3d, database: Database,
                 weights: FoMWeights | None = None) -> tuple[float, float, float]:
    """(MAE, Spearman, pred-best percentile) of model vs measurements
    (see :func:`repro.model.evaluation.evaluate_surrogate`)."""
    quality = evaluate_surrogate(model, database.graph,
                                 database.train_samples(), weights)
    return (quality.mean_mae, quality.fom_spearman_rho,
            quality.pred_best_percentile)


def run_crosstopo(
    corpus: list[str | Path],
    train_designs: tuple[str, ...] = ("OTA1", "OTA2"),
    scale: CrossTopoScale | str = "smoke",
    seed: int = 0,
) -> CrossTopoResult:
    """Train once on benchmark OTAs, score every corpus netlist.

    Args:
        corpus: wild-dialect ``.sp`` files to ingest and evaluate on.
        train_designs: benchmark names the model is trained on.
        scale: problem-size preset or its name.
        seed: base RNG seed for placement, sampling, and training.
    """
    if isinstance(scale, str):
        scale = CROSSTOPO_SCALES[scale]

    train_dbs = [
        _benchmark_database(name, scale, seed + i, scale.train_samples)
        for i, name in enumerate(train_designs)
    ]

    first_graph = train_dbs[0].graph
    model = Gnn3d(first_graph.ap_features.shape[1],
                  first_graph.module_features.shape[1],
                  Gnn3dConfig(seed=seed))
    trainer = Trainer(model, first_graph,
                      TrainConfig(epochs=scale.epochs, seed=seed))
    start = time.perf_counter()
    trainer.fit_multi([(db.graph, db.train_samples()) for db in train_dbs])
    result = CrossTopoResult(train_designs=list(train_designs),
                             scale=scale.name, seed=seed,
                             train_seconds=time.perf_counter() - start)

    for offset, path in enumerate(corpus):
        t0 = time.perf_counter()
        name, database = _ingested_database(path, scale, seed + 100 + offset)
        mae, corr, percentile = score_design(model, database)
        result.rows.append(DesignScore(
            design=name, n_samples=len(database.samples), mae=mae,
            rank_corr=corr, pred_best_percentile=percentile,
            runtime_s=time.perf_counter() - t0))
    return result


def format_crosstopo_table(result: CrossTopoResult) -> str:
    """Markdown table of a cross-topology run (for EXPERIMENTS.md)."""
    lines = [
        f"Trained on {', '.join(result.train_designs)} "
        f"(scale `{result.scale}`, seed {result.seed}, "
        f"{result.train_seconds:.1f}s training); evaluated zero-shot on "
        "ingested netlists.",
        "",
        "| Held-out design | Samples | Norm. MAE | Spearman rho "
        "| Pred-best percentile | Eval time |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for row in result.rows:
        lines.append(
            f"| {row.design} | {row.n_samples} | {row.mae:.3f} "
            f"| {row.rank_corr:+.2f} | {row.pred_best_percentile:.0f}% "
            f"| {row.runtime_s:.1f}s |")
    return "\n".join(lines)
