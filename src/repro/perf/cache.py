"""Graph-invariant forward-pass caches for the 3DGNN.

Potential relaxation pays one GNN forward-backward per L-BFGS function
evaluation; everything in that pass that does not depend on the guidance
``C`` is hoisted here and built once per graph:

* the directed edge expansion (also memoized on
  :meth:`repro.graph.hetero.HeteroGraph.directed_edges` itself);
* the **combined edge layout**: the directed edges of every non-empty
  type in one array, with the static geometry of the Eq. 1 cost-aware
  distance (the per-edge ``|pos[dst] - pos[src]|`` decomposition that
  guidance merely reweights), the receivers' in-degree per type, and
  one prebuilt CSR scatter operator (:class:`repro.nn.Scatter`) per
  index array: the receivers over the nodes, and the senders and
  receivers over the *slots* (node ``n``'s slot for edge type ``t`` is
  ``n * T + t``).  With the readout's pooling scatter they serve every
  gather and segment sum of the forward and every row-gather backward,
  so index ranges are checked once per build;
* the **disjoint-union batching plan**: to evaluate ``B`` guidance
  candidates in one forward, the graph is replicated ``B`` times into one
  block-diagonal graph.  Union node layout: access point ``(b, a)`` maps
  to ``b * A + a`` and module ``(b, m)`` to ``B * A + b * M + m`` — all
  APs first, mirroring the graph's own ``[aps, modules]`` layout so a
  ``(B * A, 3)`` guidance stack lines up with union indices directly.
  A single candidate runs on the ``B=1`` plan, which is the graph itself.
  Each plan owns one :class:`repro.nn.PlanBuffers`: every forward on
  the plan, taped or tape-free, leases a set of its buffers and writes
  its per-edge and per-slot arrays there instead of allocating them on
  every call, and the set is free again once the forward returns
  tape-free or its tape is dropped.  A frozen model keeps the forward
  values that do not depend on the guidance on the plan it runs on
  (``frozen``, see :class:`repro.model.gnn3d.Gnn3d`).  Buffers and
  constants live and die with the plan.

Caches are keyed on the *live* graph object (weak reference, so entries
die with their graph and a recycled ``id()`` can never alias) and
validated against a content fingerprint — node/edge counts **plus** a
digest of the position and edge arrays — so both replacing a graph's
edge arrays and mutating its geometry in place invalidate its entry.
The model picks the union sizes (``DEFAULT_CACHE_BLOCK`` taped,
``TAPE_FREE_UNION`` tape-free, see :mod:`repro.model.gnn3d`), so a
graph holds at most one plan per size from 1 up to the larger of the
two, and every plan lives as long as its graph's entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.nn.functional import PlanBuffers
from repro.nn.scatter import Scatter


def graph_fingerprint(graph: HeteroGraph) -> tuple[int, int, int, str]:
    """Content fingerprint of everything :func:`build_batched` reads.

    Counts alone are not enough: mutating ``ap_positions`` in place (or
    swapping an edge array for one of equal length) changes the Eq. 1
    deltas without changing any count, and a count-only fingerprint
    would keep serving stale plans.  The digest covers positions and
    edge arrays byte-for-byte; features are deliberately excluded (the
    plans tile them verbatim and derive nothing from them).

    Also the identity the serving layer pins a checkpoint to: a
    :class:`repro.serve.registry.ModelRegistry` manifest records it at
    save time and refuses to score a graph whose fingerprint drifted.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(graph.ap_positions).tobytes())
    digest.update(np.ascontiguousarray(graph.module_positions).tobytes())
    for edge_type in EdgeType:
        pairs = graph.edges.get(edge_type)
        digest.update(edge_type.value.encode())
        if pairs is not None and len(pairs):
            digest.update(np.ascontiguousarray(pairs).tobytes())
    return (graph.num_aps, graph.num_modules, graph.num_edges(),
            digest.hexdigest())


@dataclass
class BatchedStatics:
    """The disjoint-union replication plan for a fixed batch size ``B``.

    The edges of every non-empty type are concatenated in ``EdgeType``
    order (each type's ``B * E_t`` edges replica-major), so one fused
    op serves all of them; ``T = len(edge_types)``.

    Attributes:
        batch: number of replicas ``B``.
        num_nodes: total union nodes, ``B * (A + M)``.
        edge_types: the non-empty edge types, in ``EdgeType`` order.
        edge_offsets: (T + 1,) start of each type's edges, then ``E``.
        receivers: the receiver :class:`Scatter` of every edge over
            the union nodes.
        deltas: (E, 3) absolute (h, w, z) edge-vector decomposition of
            Eq. 1; it is guidance-independent.
        src_slots: the sender slot ``src * T + t`` of every edge, a
            :class:`Scatter` over ``num_nodes * T`` slots.
        dst_slots: the receiver slot ``dst * T + t`` of every edge, over
            the same slots.
        in_degree: (num_nodes, T) edges of each type received per node.
        ap_features: (B * A, F) tiled static AP features.
        module_features: (B * M, F) tiled static module features.
        pool: the per-candidate readout scatter: ``B`` segments, whose
            ids are the candidate of each union node.
        neutral_guidance: (B * M, 3) ones, the module receivers' guidance.
        buffers: the buffer sets every forward on this plan leases;
            each dtype cast of the plan has its own.
        frozen: what the model whose cache holds the plan computed on it
            once for its current weights, while they are held fixed
            (:meth:`repro.model.gnn3d.Gnn3d.forward_batch`), or None.
    """

    batch: int
    num_nodes: int
    edge_types: tuple[EdgeType, ...]
    edge_offsets: np.ndarray
    receivers: Scatter
    deltas: np.ndarray
    src_slots: Scatter
    dst_slots: Scatter
    in_degree: np.ndarray
    ap_features: np.ndarray
    module_features: np.ndarray
    pool: Scatter
    neutral_guidance: np.ndarray
    buffers: PlanBuffers = field(default_factory=PlanBuffers, repr=False,
                                 compare=False)
    frozen: object = field(default=None, repr=False, compare=False)
    _casts: dict[str, "BatchedStatics"] = field(default_factory=dict,
                                                repr=False)

    def as_dtype(self, dtype) -> "BatchedStatics":
        """This plan with float arrays cast to ``dtype`` (cached).

        ``float64`` returns ``self``.  Index arrays are dtype-independent
        and shared with the original plan; the scatter operators carry
        ``dtype`` ones, so float32 segment sums stay float32.  The cast
        gets buffers and frozen values of its own.
        """
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            return self
        cast = self._casts.get(dtype.name)
        if cast is None:
            cast = dataclasses.replace(
                self,
                receivers=self.receivers.astype(dtype),
                deltas=self.deltas.astype(dtype),
                src_slots=self.src_slots.astype(dtype),
                dst_slots=self.dst_slots.astype(dtype),
                in_degree=self.in_degree.astype(dtype),
                pool=self.pool.astype(dtype),
                ap_features=self.ap_features.astype(dtype),
                module_features=self.module_features.astype(dtype),
                neutral_guidance=self.neutral_guidance.astype(dtype),
                buffers=PlanBuffers(),
                frozen=None,
                _casts={},
            )
            self._casts[dtype.name] = cast
        return cast


def build_batched(graph: HeteroGraph, batch: int) -> BatchedStatics:
    """Replicate a graph ``batch`` times into one block-diagonal union.

    Each replica keeps the graph's edge order, so every union node's
    scatter row lists its replica's edges in the graph's order.  At
    ``batch=1`` the union is the graph itself: its edges are the graph's
    directed edges, type by type, and its deltas are the graph's own.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    num_aps, num_modules = graph.num_aps, graph.num_modules
    num_nodes = batch * graph.num_nodes
    positions = graph.positions

    def union(ids: np.ndarray) -> np.ndarray:
        """``ids`` in every replica, replica-major, in union indexing."""
        replica = np.repeat(np.arange(batch), len(ids))
        ids = np.tile(ids, batch)
        return np.where(ids < num_aps, replica * num_aps + ids,
                        batch * num_aps + replica * num_modules + ids
                        - num_aps)

    edge_types = [et for et in EdgeType if len(graph.directed_edges(et)[0])]
    ends = [graph.directed_edges(et) for et in edge_types]
    num_types = len(edge_types)
    counts = [batch * len(s) for s, _ in ends]
    type_ids = np.repeat(np.arange(num_types), counts)
    empty = np.zeros(0, np.int64)
    src = np.concatenate([union(s) for s, _ in ends] + [empty])
    dst = np.concatenate([union(d) for _, d in ends] + [empty])
    num_slots = num_nodes * num_types
    dst_slots = Scatter(dst * num_types + type_ids, num_slots)
    graph_ids = np.concatenate([
        np.repeat(np.arange(batch, dtype=np.int64), num_aps),
        np.repeat(np.arange(batch, dtype=np.int64), num_modules),
    ])
    return BatchedStatics(
        batch=batch,
        num_nodes=num_nodes,
        edge_types=tuple(edge_types),
        edge_offsets=np.cumsum([0] + counts),
        receivers=Scatter(dst, num_nodes),
        deltas=np.concatenate([
            np.tile(np.abs(positions[d] - positions[s]), (batch, 1))
            for s, d in ends] + [np.zeros((0, 3))]),
        src_slots=Scatter(src * num_types + type_ids, num_slots),
        dst_slots=dst_slots,
        in_degree=dst_slots(np.ones((len(dst), 1))).reshape(num_nodes,
                                                             num_types),
        ap_features=np.tile(graph.ap_features, (batch, 1)),
        module_features=np.tile(graph.module_features, (batch, 1)),
        pool=Scatter(graph_ids, batch),
        neutral_guidance=np.ones((batch * num_modules, 3)),
    )


@dataclass(frozen=True)
class UnionPlan:
    """The blocked decomposition of one ``(graph, B)`` forward.

    ``B`` replicas are processed as ``ceil(B / block)`` cache blocks of
    at most ``block`` replicas each; every block runs the complete
    RBF -> message -> segment-sum pass over its own small union before
    the next block starts, so the working set per block is bounded by
    ``block`` replicas regardless of ``B``.  Full blocks share a single
    :class:`BatchedStatics` object (their unions are congruent).

    Attributes:
        batch: total replicas ``B``.
        block: cache-block size the plan was built for.
        slices: per block, the ``(start, stop)`` replica range.
        plans: per block, its :class:`BatchedStatics` (aligned with
            ``slices``).
    """

    batch: int
    block: int
    slices: tuple[tuple[int, int], ...]
    plans: tuple[BatchedStatics, ...]


class _Entry:
    __slots__ = ("ref", "fingerprint", "batched")

    def __init__(self, graph: HeteroGraph) -> None:
        self.ref = weakref.ref(graph)
        self.fingerprint = graph_fingerprint(graph)
        self.batched: dict[int, BatchedStatics] = {}


class ForwardCacheStore:
    """Per-model cache of :class:`BatchedStatics`, one dict per live graph.

    An entry lives as long as its graph: a graph whose fingerprint
    changed gets a new entry, and the entries of collected graphs are
    dropped when the next new graph arrives.
    """

    def __init__(self) -> None:
        self._entries: dict[int, _Entry] = {}

    def _entry(self, graph: HeteroGraph) -> _Entry:
        key = id(graph)
        entry = self._entries.get(key)
        if (entry is not None and entry.ref() is graph
                and entry.fingerprint == graph_fingerprint(graph)):
            return entry
        for dead in [k for k, e in self._entries.items()
                     if e.ref() is None]:
            del self._entries[dead]
        entry = self._entries[key] = _Entry(graph)
        return entry

    def batched(self, graph: HeteroGraph, batch: int) -> BatchedStatics:
        """The single-union plan of ``B`` replicas (one cache block).

        ``B=1`` is the plan a single-candidate forward runs on.
        """
        return self._batched(self._entry(graph), graph, batch)

    @staticmethod
    def _batched(entry: _Entry, graph: HeteroGraph,
                 batch: int) -> BatchedStatics:
        plan = entry.batched.get(batch)
        if plan is None:
            plan = entry.batched[batch] = build_batched(graph, batch)
        return plan

    def union_plan(self, graph: HeteroGraph, batch: int,
                   block: int) -> UnionPlan:
        """The blocked decomposition of a ``B``-candidate forward.

        Its cache blocks are the :meth:`batched` plans, shared across
        batch sizes (a ``B=12`` and a ``B=8`` forward at ``block=4`` run
        on the same 4-replica :class:`BatchedStatics`), so relaxation
        waves and serving micro-batches of different widths amortize one
        block build.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        block = min(block, batch)
        entry = self._entry(graph)
        full, remainder = divmod(batch, block)
        sizes = [block] * full + ([remainder] if remainder else [])
        starts = [0, *itertools.accumulate(sizes)]
        return UnionPlan(
            batch=batch,
            block=block,
            slices=tuple(zip(starts[:-1], starts[1:])),
            plans=tuple(self._batched(entry, graph, size)
                        for size in sizes),
        )
