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
    """Evaluation counters (reset with :meth:`PotentialFunction.reset_stats`).

    Attributes:
        evals: scalar :meth:`~PotentialFunction.value_and_grad` calls.
        batched_evals: :meth:`~PotentialFunction.value_and_grad_batch` calls.
        candidates: total candidates across all batched evaluations.
        forwards: GNN forward-backward passes actually executed — the
            quantity batching reduces (one batched eval of ``B``
            candidates costs one forward instead of ``B``).

    The relaxer reads deltas of these counters to emit the
    ``gnn_forwards`` and ``lbfgs_evals`` observability metrics (see
    ``docs/OBSERVABILITY.md``), so they must stay cumulative within a
    run and only reset via :meth:`PotentialFunction.reset_stats`.
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

    def reset_stats(self) -> PotentialStats:
        """Install and return fresh evaluation counters."""
        self.stats = PotentialStats()
        return self.stats

    def barrier(self, c: Tensor) -> Tensor:
        """Interior-point penalty ``g(C)`` of Eq. 8."""
        return (c.log() + (Tensor(np.array(self.c_max)) - c).log()).sum() * (
            -self.barrier_r
        )

    def value_and_grad(self, c_flat: np.ndarray) -> tuple[float, np.ndarray]:
        """Potential value and gradient for a flattened guidance vector.

        Infeasible inputs (outside the open region) return +inf with a
        gradient pushing back toward feasibility, so line searches recover.
        """
        self.stats.evals += 1
        c_arr = np.asarray(c_flat, dtype=float).reshape(self.graph.num_aps, 3)
        eps = 1e-9
        if (c_arr <= eps).any() or (c_arr >= self.c_max - eps).any():
            grad = np.where(c_arr <= eps, -1.0, np.where(
                c_arr >= self.c_max - eps, 1.0, 0.0))
            return float("inf"), grad.reshape(-1)

        self.stats.forwards += 1
        c = Tensor(c_arr, requires_grad=True)
        with frozen(self._params):
            pred = self.model(self.graph, c)
            fom = (pred * Tensor(self._w_signed)).sum()
            total = fom + self.barrier(c)
            total.backward()
        value = total.item()
        grad = c.grad.reshape(-1).copy()
        if not np.isfinite(value) or not np.isfinite(grad).all():
            # A NaN from the model would silently poison L-BFGS; surface
            # it as a typed error so the relaxer can drop the restart.
            raise RelaxationError(
                f"non-finite potential evaluation (value {value})",
                stage="relaxation",
                details={"value": value,
                         "grad_finite": bool(np.isfinite(grad).all())},
            )
        return value, grad

    def value_and_grad_batch(
        self, c_batch: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Potentials and gradients for ``B`` candidates in one forward.

        The candidates are independent (the batched GNN forward runs them
        as a disjoint union, and barrier terms are per-row), so row ``b``
        of the returned ``(B,)`` values and ``(B, num_variables)``
        gradients equals a scalar :meth:`value_and_grad` of that row —
        while the whole batch costs a single forward-backward pass.

        Infeasible rows get ``+inf`` and a push-back gradient, like the
        scalar path; feasible rows are unaffected by them.
        """
        c_arr = np.asarray(c_batch, dtype=float)
        if c_arr.ndim != 2 or c_arr.shape[1] != self.num_variables:
            raise ValueError(
                f"candidate batch shape {c_arr.shape} != "
                f"(B, {self.num_variables})"
            )
        batch = c_arr.shape[0]
        self.stats.batched_evals += 1
        self.stats.candidates += batch

        eps = 1e-9
        infeasible = ((c_arr <= eps) | (c_arr >= self.c_max - eps)
                      ).any(axis=1)
        # Clip so infeasible rows still flow through log/forward without
        # NaN; their outputs are overwritten below.
        c_safe = np.clip(c_arr, eps * 2, self.c_max - eps * 2)

        self.stats.forwards += 1
        c = Tensor(c_safe.reshape(batch, self.graph.num_aps, 3),
                   requires_grad=True)
        with frozen(self._params):
            # The taped batched forward, in DEFAULT_CACHE_BLOCK-replica
            # blocks: relaxation waves (pool sizes 6/12 by default)
            # ride the same per-(graph, B) plans the scoring service
            # uses.
            pred = self.model.forward_batch(self.graph, c)  # (B, metrics)
            fom = (pred * Tensor(np.tile(self._w_signed, (batch, 1)))
                   ).sum(axis=1)
            flat = c.reshape(batch, self.num_variables)
            barrier = (flat.log()
                       + (Tensor(np.array(self.c_max)) - flat).log()
                       ).sum(axis=1) * (-self.barrier_r)
            total = fom + barrier  # (B,)
            total.sum().backward()
        values = total.numpy().astype(float).copy()
        grads = c.grad.reshape(batch, self.num_variables).copy()
        if not np.isfinite(values).all() or not np.isfinite(grads).all():
            raise RelaxationError(
                "non-finite batched potential evaluation",
                stage="relaxation",
                details={
                    "values_finite": bool(np.isfinite(values).all()),
                    "grads_finite": bool(np.isfinite(grads).all()),
                },
            )
        if infeasible.any():
            values[infeasible] = float("inf")
            push = np.where(c_arr <= eps, -1.0, np.where(
                c_arr >= self.c_max - eps, 1.0, 0.0))
            grads[infeasible] = push.reshape(
                batch, self.num_variables)[infeasible]
        return values, grads

    def value(self, c_flat: np.ndarray) -> float:
        return self.value_and_grad(c_flat)[0]

    def release_buffers(self) -> None:
        """Free the buffer sets taped evaluations keep on the model's
        plans between calls (:class:`repro.nn.TapeBuffers`); the next
        evaluation allocates them again.  A relaxation calls this when
        it ends, so the memory is free for the routing that follows."""
        self.model.cache.release_tape_buffers()

    def predicted_metrics(self, c_flat: np.ndarray) -> np.ndarray:
        """Normalized metric predictions at a guidance point (no grad)."""
        # Relaxation operates in float64 by contract; only serve
        # endpoints opt into float32, at the endpoint boundary.
        # repro-lint: disable-next-line=PRE001 -- float64 relaxation contract
        c = Tensor(np.asarray(c_flat, dtype=float).reshape(self.graph.num_aps, 3))
        with no_grad():
            return self.model(self.graph, c).numpy()
