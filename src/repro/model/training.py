"""Training loop for the 3DGNN performance model (L2 loss, Adam)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.hetero import HeteroGraph
from repro.model.gnn3d import Gnn3d
from repro.nn import Adam, Tensor, no_grad
from repro.obs import NULL_CONTEXT, RunContext


@dataclass(frozen=True)
class TrainSample:
    """One supervised sample: guidance in, normalized metrics out.

    Attributes:
        guidance: (num_aps, 3) array in graph AP order.
        targets: length-5 normalized metric vector.
    """

    guidance: np.ndarray
    targets: np.ndarray


@dataclass
class TrainConfig:
    """Training knobs.

    Attributes:
        epochs: passes over the training split.
        lr: Adam learning rate.
        batch_size: samples per gradient step.
        val_fraction: tail fraction held out for validation.
        patience: early-stop after this many epochs without val improvement
            (0 disables early stopping).
        seed: shuffling seed.
    """

    epochs: int = 40
    lr: float = 3e-3
    batch_size: int = 8
    val_fraction: float = 0.15
    patience: int = 10
    seed: int = 0


@dataclass
class TrainHistory:
    """Per-epoch loss trajectory."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def best_val(self) -> float:
        return min(self.val_loss) if self.val_loss else float("nan")


class Trainer:
    """Trains a :class:`Gnn3d` on (guidance, metrics) samples of one design.

    With an enabled ``obs`` context, every epoch emits a ``train.epoch``
    span carrying its losses.
    """

    def __init__(
        self,
        model: Gnn3d,
        graph: HeteroGraph,
        config: TrainConfig | None = None,
        obs: RunContext | None = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.config = config or TrainConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self.history = TrainHistory()

    def _sample_loss(self, sample: TrainSample,
                     graph: HeteroGraph | None = None) -> Tensor:
        pred = self.model(graph if graph is not None else self.graph,
                          Tensor(sample.guidance))
        err = pred - Tensor(sample.targets)
        return (err * err).mean()

    def _mean_loss(self, pairs: list[tuple[HeteroGraph, TrainSample]]
                   ) -> float:
        """Mean L2 loss over (graph, sample) pairs, tape-free."""
        total = 0.0
        with no_grad():
            for graph, sample in pairs:
                total += self._sample_loss(sample, graph=graph).item()
        return total / len(pairs)

    def evaluate(self, samples: list[TrainSample],
                 graph: HeteroGraph | None = None) -> float:
        """Mean L2 loss over samples (no gradient: runs tape-free)."""
        if not samples:
            return float("nan")
        graph = graph if graph is not None else self.graph
        return self._mean_loss([(graph, sample) for sample in samples])

    def fit(self, samples: list[TrainSample]) -> TrainHistory:
        """Train until the epoch budget or early stopping."""
        return self.fit_multi([(self.graph, samples)])

    def fit_multi(
        self, designs: list[tuple[HeteroGraph, list[TrainSample]]]
    ) -> TrainHistory:
        """Train one model across several designs at once.

        The GNN is graph-parametric (fixed feature widths, per-forward
        topology), so samples from different circuits share weights; the
        validation split is the tail fraction *of each design* so every
        topology is represented in the val loss.  ``self.graph`` is
        ignored — each sample carries its own graph.  :meth:`fit` is the
        one-design case.

        Raises:
            ValueError: fewer than two samples across all designs.
        """
        count = sum(len(samples) for _, samples in designs)
        if count < 2:
            raise ValueError(f"need at least 2 samples, got {count}")
        cfg = self.config
        train: list[tuple[HeteroGraph, TrainSample]] = []
        val: list[tuple[HeteroGraph, TrainSample]] = []
        for graph, samples in designs:
            head, tail = _split(samples, cfg.val_fraction)
            train.extend((graph, s) for s in head)
            val.extend((graph, s) for s in tail)

        rng = np.random.default_rng(cfg.seed)
        best_val = float("inf")
        stale = 0
        stop = False
        order = np.arange(len(train))
        for epoch in range(cfg.epochs):
            with self.obs.span("train.epoch", epoch=epoch) as span:
                rng.shuffle(order)
                epoch_loss = 0.0
                for start in range(0, len(order), cfg.batch_size):
                    batch = order[start: start + cfg.batch_size]
                    self.optimizer.zero_grad()
                    batch_loss = 0.0
                    for idx in batch:
                        graph, sample = train[idx]
                        loss = self._sample_loss(sample, graph=graph)
                        loss.backward(np.asarray(1.0 / len(batch)))
                        batch_loss += loss.item()
                        # End the tape before the next forward, which
                        # then reuses its buffer set.
                        del loss
                    self.optimizer.step()
                    epoch_loss += batch_loss
                train_loss = epoch_loss / len(train)
                self.history.train_loss.append(train_loss)
                span.set(train_loss=train_loss)

                if val:
                    val_loss = self._mean_loss(val)
                    self.history.val_loss.append(val_loss)
                    span.set(val_loss=val_loss)
                    if val_loss < best_val - 1e-6:
                        best_val = val_loss
                        stale = 0
                    elif cfg.patience:
                        stale += 1
                        if stale >= cfg.patience:
                            span.set(early_stop=True)
                            stop = True
            if stop:
                break
        return self.history


def _split(samples: list[TrainSample], val_fraction: float
           ) -> tuple[list[TrainSample], list[TrainSample]]:
    """(train, val): the tail ``val_fraction`` validates, at least one
    sample when the fraction is non-zero; a design too small to split
    trains on every sample."""
    n_val = max(1, int(len(samples) * val_fraction)) if val_fraction else 0
    train = samples[: len(samples) - n_val]
    if not train:
        return samples, []
    return train, samples[len(samples) - n_val:]
