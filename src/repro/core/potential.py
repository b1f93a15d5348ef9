"""The routing-guidance potential ``V(C)`` (Eq. 7-8).

``V(C) = w_FoM . f_theta(G_H, C) + g(C)`` where ``f_theta`` is the trained
3DGNN (predicting normalized metrics), ``w_FoM`` is the signed FoM weight
vector, and ``g`` is an interior-point log-barrier keeping every guidance
component inside the open feasible region ``(0, c_max)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.hetero import HeteroGraph
from repro.model.gnn3d import Gnn3d
from repro.nn import Tensor, frozen, no_grad
from repro.reliability.errors import RelaxationError
from repro.simulation.metrics import FoMWeights


@dataclass
class PotentialStats:
    """Evaluation counters of one :class:`PotentialFunction`.

    Attributes:
        evals: scalar :meth:`~PotentialFunction.value_and_grad` calls.
        batched_evals: :meth:`~PotentialFunction.value_and_grad_batch` calls.
        candidates: total candidates across all batched evaluations.
        forwards: GNN forward-backward passes actually executed — the
            quantity batching reduces (one batched eval of ``B``
            candidates costs one forward instead of ``B``).

    The relaxer reads deltas of these counters to emit the
    ``gnn_forwards`` and ``lbfgs_evals`` observability metrics (see
    ``docs/OBSERVABILITY.md``), so they stay cumulative over the
    potential's life.
    """

    evals: int = 0
    batched_evals: int = 0
    candidates: int = 0
    forwards: int = 0


class PotentialFunction:
    """Differentiable potential over flattened guidance vectors.

    Evaluations hold the model fixed (``f_theta`` is trained; Eq. 7-8
    optimize ``C`` alone): each forward-backward runs under
    :class:`repro.nn.frozen` over the model's parameters, so the tape
    records only guidance-dependent nodes and the backward computes
    ``dV/dC`` and no weight gradient.  The parameters' ``.grad`` and
    ``requires_grad`` flags are as they were after every evaluation.

    Args:
        model: trained 3DGNN.
        graph: the design's heterogeneous graph (``G_H^val`` in Eq. 7).
        weights: figure-of-merit weights (equal by default, per the paper).
        c_max: upper bound of the feasible guidance region.
        barrier_r: the barrier strength ``r`` of Eq. 8 (small positive).
    """

    def __init__(
        self,
        model: Gnn3d,
        graph: HeteroGraph,
        weights: FoMWeights | None = None,
        c_max: float = 4.0,
        barrier_r: float = 0.01,
    ) -> None:
        if c_max <= 0:
            raise ValueError(f"c_max must be positive, got {c_max}")
        if barrier_r <= 0:
            raise ValueError(f"barrier_r must be positive, got {barrier_r}")
        self.model = model
        self.graph = graph
        self.weights = weights or FoMWeights()
        self.c_max = c_max
        self.barrier_r = barrier_r
        self._w_signed = self.weights.as_signed_vector()
        self._params = model.parameters()
        self.stats = PotentialStats()

    @property
    def num_variables(self) -> int:
        return self.graph.num_aps * 3

    def value_and_grad(self, c_flat: np.ndarray) -> tuple[float, np.ndarray]:
        """Potential value and gradient for a flattened guidance vector,
        evaluated as a batch of one (see :meth:`value_and_grad_batch`).

        Infeasible inputs (outside the open region) return +inf with a
        gradient pushing back toward feasibility, so line searches recover.
        """
        self.stats.evals += 1
        values, grads = self._evaluate(
            np.asarray(c_flat, dtype=float).reshape(1, self.num_variables))
        return float(values[0]), grads[0]

    def value_and_grad_batch(
        self, c_batch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Potentials and gradients for ``B`` candidates in one forward.

        The candidates are independent (the batched GNN forward runs them
        as a disjoint union, and barrier terms are per-row), so row ``b``
        of the returned ``(B,)`` values and ``(B, num_variables)``
        gradients matches a :meth:`value_and_grad` of that row to
        <1e-10 — while the whole batch costs a single forward-backward
        pass.

        Infeasible rows get ``+inf`` and a gradient pushing back toward
        feasibility; feasible rows are unaffected by them.  A batch with
        no feasible row runs no forward.

        Raises:
            RelaxationError: the model returned a non-finite value or
                gradient (a NaN would silently poison L-BFGS), so the
                relaxer can drop the restarts.
        """
        c_arr = np.asarray(c_batch, dtype=float)
        if c_arr.ndim != 2 or c_arr.shape[1] != self.num_variables:
            raise ValueError(
                f"candidate batch shape {c_arr.shape} != "
                f"(B, {self.num_variables})"
            )
        self.stats.batched_evals += 1
        self.stats.candidates += c_arr.shape[0]
        return self._evaluate(c_arr)

    def _evaluate(self, c_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`value_and_grad_batch` of a validated ``(B, n)`` batch."""
        batch = c_arr.shape[0]
        eps = 1e-9
        push = np.where(c_arr <= eps, -1.0, np.where(
            c_arr >= self.c_max - eps, 1.0, 0.0))
        infeasible = push.any(axis=1)
        if infeasible.all():
            return np.full(batch, float("inf")), push
        # Clip so infeasible rows still flow through log/forward without
        # NaN; their outputs are overwritten below.
        c_safe = np.clip(c_arr, eps * 2, self.c_max - eps * 2)

        self.stats.forwards += 1
        c = Tensor(c_safe.reshape(batch, self.graph.num_aps, 3),
                   requires_grad=True)
        with frozen(self._params):
            # The taped batched forward, in DEFAULT_CACHE_BLOCK-replica
            # blocks: relaxation waves of every width (pool sizes 6/12
            # by default) run on the same block plans.
            pred = self.model.forward_batch(self.graph, c)  # (B, metrics)
            fom = (pred * Tensor(np.tile(self._w_signed, (batch, 1)))
                   ).sum(axis=1)
            # The interior-point barrier g(C) of Eq. 8, per row.
            barrier = (c.log() + (Tensor(np.array(self.c_max)) - c).log()
                       ).sum(axis=(1, 2)) * (-self.barrier_r)
            # Barrier first: the backward then adds the barrier's two
            # terms of dV/dC before the model's; the other order rounds
            # some gradient components apart (tests/test_frozen_tape.py).
            total = barrier + fom  # (B,)
            total.backward()
        values = total.data.astype(float)
        grads = c.grad.reshape(batch, self.num_variables)
        if not np.isfinite(values).all() or not np.isfinite(grads).all():
            raise RelaxationError(
                "non-finite potential evaluation",
                stage="relaxation",
                details={
                    "values_finite": bool(np.isfinite(values).all()),
                    "grads_finite": bool(np.isfinite(grads).all()),
                },
            )
        values[infeasible] = float("inf")
        grads[infeasible] = push[infeasible]
        return values, grads

    def value(self, c_flat: np.ndarray) -> float:
        return self.value_and_grad(c_flat)[0]

    def predicted_metrics(self, c_flat: np.ndarray) -> np.ndarray:
        """Normalized metric predictions at a guidance point (no grad)."""
        # Relaxation operates in float64 by contract; only serve
        # endpoints opt into float32, at the endpoint boundary.
        # repro-lint: disable-next-line=PRE001 -- float64 relaxation contract
        c = Tensor(np.asarray(c_flat, dtype=float).reshape(self.graph.num_aps, 3))
        with no_grad():
            return self.model(self.graph, c).numpy()
