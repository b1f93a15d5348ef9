"""The 3DGNN: cost-aware distance, RBF expansion, heterogeneous message
passing (Eq. 1-5), and the metric head (Eq. 6).

The guidance tensor ``C`` enters the forward pass through the cost-aware
distance of Eq. 1, so marking it ``requires_grad`` yields ``dV/dC`` for
potential relaxation with no extra machinery.

Config flags expose the paper's design choices for ablation benches:
``use_rbf`` (Eq. 2-3 vs raw distances), ``use_cost_distance`` (Eq. 1 vs
plain Euclidean), and ``heterogeneous`` (typed edge MLPs vs shared).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.model.heads import ReadoutHead
from repro.nn import (
    MLP,
    FrozenLayer,
    Lease,
    Module,
    Parameter,
    RBFExpansion,
    Tensor,
    concat,
    cost_distance,
    is_grad_enabled,
    message_layer,
    no_grad,
)
from repro.perf.cache import BatchedStatics, ForwardCacheStore

#: Cache-block size of a taped batched forward: replicas per union,
#: processed one block after another, each in a buffer set of its own
#: (:class:`repro.nn.PlanBuffers`).  On the 2-vCPU host a six-candidate
#: relaxation wave evaluates fastest in 2-replica blocks: one 6-replica
#: union runs its larger products on numpy's second OpenBLAS thread,
#: which contends with scipy's, used by L-BFGS-B between evaluations
#: (see docs/PERFORMANCE.md, "Why block=2").
DEFAULT_CACHE_BLOCK = 2

#: Most replicas a tape-free forward runs as one union; larger tape-free
#: batches run in unions of this size.  A tape-free forward writes its
#: per-edge arrays into buffers its plan owns, so a union allocates none
#: of them per call, and at four OTA-sized replicas each (E, H) array
#: still fits a 2 MB L2: 690 KB on OTA1, against 2.8 MB in a union of 16
#: (see docs/PERFORMANCE.md, "Tape-free unions").
TAPE_FREE_UNION = 4


@dataclass(frozen=True)
class Gnn3dConfig:
    """3DGNN hyperparameters.

    Attributes:
        hidden: node/message embedding width.
        num_layers: message-passing rounds ``L``.
        rbf_centers: radial basis bank size.
        rbf_cutoff: largest distance (grid cells) covered by the bank.
        use_rbf: expand distances with RBF (Eq. 2-3); raw distance if False.
        use_cost_distance: modulate distances with guidance (Eq. 1); plain
            Euclidean if False (ablation: kills dV/dC).
        heterogeneous: per-edge-type message MLPs; shared MLP if False.
        seed: parameter-init seed.
    """

    hidden: int = 32
    num_layers: int = 3
    rbf_centers: int = 16
    rbf_cutoff: float = 40.0
    use_rbf: bool = True
    use_cost_distance: bool = True
    heterogeneous: bool = True
    seed: int = 0


class _MessageBlock(Module):
    """Eq. 5 for one edge type: MLP(MLP(v_src) * MLP(Psi(d))).

    :func:`repro.nn.message_layer` runs the source MLP on node rows,
    before the gather, and the output MLP on the aggregated messages.
    Both moves are exact only for one affine layer, so construction
    checks that each MLP is one.
    """

    def __init__(self, hidden: int, dist_dim: int, rng: np.random.Generator) -> None:
        self.src_mlp = MLP([hidden, hidden], rng)
        self.dist_mlp = MLP([dist_dim, hidden], rng)
        self.out_mlp = MLP([hidden, hidden], rng)
        for name, mlp in vars(self).items():
            if len(mlp.layers) != 1 or mlp.final_activation != "identity":
                raise ValueError(f"_MessageBlock.{name} must be one affine "
                                 f"layer for repro.nn.message_layer")

    def weights(self) -> tuple[Tensor, ...]:
        """``(Ws, bs, Wd, bd, Wo, bo)``, the block's operands of
        :func:`repro.nn.message_layer`."""
        return tuple(param for mlp in (self.src_mlp, self.dist_mlp,
                                       self.out_mlp)
                     for param in (mlp.layers[0].weight, mlp.layers[0].bias))


class _PassingLayer(Module):
    """One round of cost-aware message passing over all edge types."""

    def __init__(self, hidden: int, dist_dim: int, rng: np.random.Generator,
                 heterogeneous: bool) -> None:
        if heterogeneous:
            self.blocks = {
                et: _MessageBlock(hidden, dist_dim, rng) for et in EdgeType
            }
        else:
            shared = _MessageBlock(hidden, dist_dim, rng)
            self.blocks = {et: shared for et in EdgeType}
        # Register for parameter discovery (dicts are not walked).
        self._block_list = list(dict.fromkeys(self.blocks.values()))

    def weights(self, plan: BatchedStatics) -> list[tuple[Tensor, ...]]:
        """Per edge type of ``plan``, the block's message-layer weights."""
        return [self.blocks[et].weights() for et in plan.edge_types]

    def forward(self, h: Tensor, psi: Tensor, plan: BatchedStatics,
                lease: Lease, frozen: FrozenLayer | None = None) -> Tensor:
        """``h`` plus every edge type's messages summed at receivers;
        ``frozen`` stands in for :meth:`weights` while they are fixed."""
        return message_layer(
            h, psi, plan.src_slots, plan.dst_slots, plan.in_degree,
            plan.edge_offsets,
            self.weights(plan) if frozen is None else frozen,
            workspace=lease)


class _WeightState:
    """Which version of some weights a frozen forward sees.

    The version moves whenever the weights' values or dtype differ from
    what the previous call saw, whatever changed them: an optimizer
    step, a load, a cast or an edit in place.

    Args:
        params: the weights.
    """

    __slots__ = ("params", "_seen", "_now", "_version")

    def __init__(self, params: list[Parameter]) -> None:
        self.params = params
        self._seen: np.ndarray | None = None
        self._now: np.ndarray | None = None
        self._version = 0

    def version(self) -> int | None:
        """The weights' version, or None while one of them requires grad
        (they are not held fixed)."""
        if any(p.requires_grad for p in self.params):
            return None
        flat = [p.data.reshape(-1) for p in self.params]
        seen = self._seen
        if (seen is None or seen.dtype != flat[0].dtype
                or not np.array_equal(np.concatenate(flat, out=self._now),
                                      seen)):
            self._seen = np.concatenate(flat)
            self._now = np.empty_like(self._seen)
            self._version += 1
        return self._version


@dataclass(frozen=True)
class _Frozen:
    """A frozen model's guidance-independent forward values on one plan.

    Attributes:
        version: the weight version they were computed from.
        h0: (N, H) the embedded node rows.
        layers: per message layer, its :class:`~repro.nn.FrozenLayer`;
            layer 1's carries its gathered source rows.
    """

    version: int
    h0: Tensor
    layers: tuple[FrozenLayer, ...]


class Gnn3d(Module):
    """The full 3DGNN performance model ``f_theta(G_H, C)``."""

    def __init__(self, ap_dim: int, module_dim: int,
                 config: Gnn3dConfig | None = None) -> None:
        self.config = config or Gnn3dConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.ap_embed = MLP([ap_dim, cfg.hidden], rng)
        self.module_embed = MLP([module_dim, cfg.hidden], rng)
        self.rbf = RBFExpansion(cfg.rbf_centers, cfg.rbf_cutoff)
        dist_dim = cfg.rbf_centers if cfg.use_rbf else 1
        self.layers = [
            _PassingLayer(cfg.hidden, dist_dim, rng, cfg.heterogeneous)
            for _ in range(cfg.num_layers)
        ]
        self.head = ReadoutHead(cfg.hidden, rng)
        self.cache = ForwardCacheStore()
        # Everything the frozen values read: the embeddings and each
        # layer's source and output affines.
        self._weight_state = _WeightState(
            self.ap_embed.parameters() + self.module_embed.parameters()
            + [w for layer in self.layers for block in layer._block_list
               for w in block.weights()[:2] + block.weights()[4:]])

    # -- distance machinery ------------------------------------------------------

    def _edge_distances(self, guidance_all: Tensor, plan: BatchedStatics,
                        lease: Lease) -> Tensor:
        """Cost-aware distance features of every edge (Eq. 1-3).

        ``C_k`` of the *receiving* node modulates the (h, w, z) decomposition
        of the edge vector; module receivers use neutral guidance.  The
        decomposition itself (``|pos[dst] - pos[src]|``) is
        guidance-independent and comes precomputed from ``plan``.
        """
        d = plan.deltas
        dist = (cost_distance(guidance_all, plan.receivers, d,
                              workspace=lease)
                if self.config.use_cost_distance
                else Tensor(np.sqrt((d * d).sum(axis=1) + 1e-6)))
        return (self.rbf(dist, workspace=lease)
                if self.config.use_rbf else dist.reshape(-1, 1))

    # -- forward -----------------------------------------------------------------------

    def forward(self, graph: HeteroGraph, guidance: Tensor) -> Tensor:
        """Predict normalized metrics for guidance ``C`` on graph ``G_H``.

        One candidate runs the blocked pass of :meth:`forward_batch` at
        ``B=1``: its one-replica plan is the graph itself, and the metric
        head runs on its single pooled row.

        Args:
            graph: the heterogeneous routing graph.
            guidance: (num_aps, 3) tensor of per-AP guidance vectors, in the
                order of ``graph.ap_keys``.  Mark ``requires_grad`` to get
                ``dV/dC`` after ``backward()``.  A (B, num_aps, 3) tensor
                evaluates ``B`` guidance candidates through
                :meth:`forward_batch`.

        Returns:
            Length-5 tensor of normalized metric predictions (see
            :meth:`repro.simulation.metrics.PerformanceMetrics.to_normalized`),
            or a (B, 5) tensor for batched guidance.
        """
        if guidance.ndim == 3:
            return self.forward_batch(graph, guidance)
        if guidance.shape != (graph.num_aps, 3):
            raise ValueError(
                f"guidance shape {guidance.shape} != ({graph.num_aps}, 3)"
            )
        # Fetch the one-replica plan directly, not through union_plan:
        # union plans (and their counters) belong to batched forwards.
        pooled = self._readout_union(graph, guidance,
                                     self.cache.batched(graph, 1),
                                     self._weight_state.version())
        return self.head.fc(pooled).reshape(-1)

    def forward_batch(self, graph: HeteroGraph, guidance: Tensor) -> Tensor:
        """Evaluate ``B`` guidance candidates, in blocks of replicas.

        The candidates are processed in blocks of replicas; each block
        runs the complete distance -> RBF -> message layers -> readout
        pass over its own union
        (:meth:`repro.perf.cache.ForwardCacheStore.union_plan`) before
        the next block starts.  With the tape off a block holds up to
        :data:`TAPE_FREE_UNION` replicas, with the tape on up to
        :data:`DEFAULT_CACHE_BLOCK`.  Every block leases a buffer set of
        its plan's (:class:`repro.nn.PlanBuffers`) for its per-edge
        arrays, held as long as the block's tape; the returned rows are
        fresh arrays.  Block readouts concatenate, and block backward
        passes scatter into the corresponding guidance slices.

        While the embeddings and every layer's source and output affines
        are held fixed (:class:`repro.nn.frozen`, as a potential
        evaluation and a served score hold them), the plan computes what
        depends on them alone once per weight version and keeps it: the
        embedded node rows, layer 1's gathered source rows and each
        layer's stacked weights (:class:`repro.nn.FrozenLayer`).  The
        same forward then reads them instead of recomputing them, with
        the same bits.

        Parity contract: float64 results match the single-candidate
        forward to <1e-10 per row.  The pooled rows are the same at every
        block size, with the tape on or off, unless a block has a
        one-row operand (a one-node graph, or an edge type with one
        edge), whose products BLAS rounds apart from multi-row ones; the
        gap is the metric head, which runs here
        as one multi-row product and in :meth:`forward` as a one-row
        product, and BLAS rounds the two differently.  The float32
        scoring path is gated at
        :data:`repro.serve.registry.FLOAT32_PARITY_RTOL`.
        """
        batch = guidance.shape[0]
        if guidance.shape != (batch, graph.num_aps, 3):
            raise ValueError(
                f"guidance shape {guidance.shape} != "
                f"({batch}, {graph.num_aps}, 3)"
            )
        block = (DEFAULT_CACHE_BLOCK if is_grad_enabled()
                 else TAPE_FREE_UNION)
        plan = self.cache.union_plan(graph, batch, block)
        version = self._weight_state.version()
        pooled = []
        for (start, stop), block_plan in zip(plan.slices, plan.plans):
            sub = (guidance if stop - start == batch
                   else guidance[start:stop])
            pooled.append(self._readout_union(graph, sub, block_plan,
                                              version))
        # The metric head runs once over every block's pooled rows.  Run
        # per block, a remainder block of one would be a one-row product,
        # which BLAS computes as gemv and rounds differently from the
        # multi-row gemm, so equal candidates could score apart by block.
        return self.head.fc(pooled[0] if len(pooled) == 1
                            else concat(pooled, axis=0))

    def _embed(self, graph: HeteroGraph, plan: BatchedStatics) -> Tensor:
        """The embedded node rows of ``plan``'s union, APs first."""
        h_ap = self.ap_embed(Tensor(plan.ap_features))
        h_mod = self.module_embed(Tensor(plan.module_features))
        return concat([h_ap, h_mod], axis=0) if graph.num_modules else h_ap

    def _frozen(self, graph: HeteroGraph, plan: BatchedStatics,
                version: int) -> _Frozen:
        """``plan``'s frozen values at weight ``version``, computed once."""
        frozen = plan.frozen
        if frozen is None or frozen.version != version:
            with no_grad():
                h0 = self._embed(graph, plan)
            frozen = plan.frozen = _Frozen(version, h0, tuple(
                FrozenLayer(layer.weights(plan), plan.in_degree,
                            h0.data if i == 0 else None, plan.src_slots)
                for i, layer in enumerate(self.layers)
                if plan.edge_types))
        return frozen

    def _readout_union(self, graph: HeteroGraph, guidance: Tensor,
                       plan: BatchedStatics, version: int | None) -> Tensor:
        """Pooled embeddings of ``plan.batch`` replicas over one union.

        The union keeps all APs first (replica-major), mirroring the
        graph's own ``[aps, modules]`` node layout, so the flattened
        ``(b * num_aps, 3)`` guidance stack indexes it directly; a
        ``(num_aps, 3)`` guidance is the one-replica stack already.
        Replicas share parameters but exchange no messages (no
        cross-replica edges), and every replica keeps the graph's edge
        order, so row ``b`` is the one-replica readout of candidate ``b``.
        ``version`` is the weight version while the weights the frozen
        values read are held fixed, else None.
        """
        plan = plan.as_dtype(guidance.data.dtype)
        frozen = (None if version is None
                  else self._frozen(graph, plan, version))
        h = self._embed(graph, plan) if frozen is None else frozen.h0
        if plan.edge_types:
            flat = (guidance if guidance.ndim == 2
                    else guidance.reshape(plan.batch * graph.num_aps, 3))
            guidance_all = (
                concat([flat, Tensor(plan.neutral_guidance)], axis=0)
                if graph.num_modules else flat
            )
            lease = plan.buffers.lease()
            psi = self._edge_distances(guidance_all, plan, lease)
            for i, layer in enumerate(self.layers):
                h = layer(h, psi, plan, lease,
                          None if frozen is None else frozen.layers[i])
        return self.head.readout(h, pool=plan.pool)
