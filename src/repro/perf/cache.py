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
  Each plan owns a :class:`repro.nn.Workspace`: tape-free forwards on
  the plan write their per-edge and per-slot arrays into its buffers
  instead of allocating them on every call.  Taped forwards write into
  the plan's :class:`repro.nn.TapeBuffers`, one leased set per live
  tape, and a frozen model keeps the forward values that do not depend
  on the guidance on the plan it runs on (``frozen``, see
  :class:`repro.model.gnn3d.Gnn3d`).  Buffers and constants live and
  die with the plan, under the LRU below.

Caches are keyed on the *live* graph object (weak reference, so entries
die with their graph and a recycled ``id()`` can never alias) and
validated against a content fingerprint — node/edge counts **plus** a
digest of the position and edge arrays — so both replacing a graph's
edge arrays and mutating its geometry in place invalidate its entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.nn.functional import TapeBuffers, Workspace
from repro.nn.scatter import Scatter

#: Per-entry cap on cached per-``B`` plans (batched statics and union
#: plans each have their own LRU of this size).  Eviction is
#: strictly LRU — a hit refreshes recency and capacity evicts only the
#: stalest plan, never the whole plan dict at once (wholesale clearing
#: made alternation across ``MAX_PLANS_PER_GRAPH + 1`` batch sizes
#: rebuild every plan on every forward).
MAX_PLANS_PER_GRAPH = 8


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
        workspace: the buffers tape-free forwards on this plan write
            their per-edge and per-slot arrays into; each dtype cast of
            the plan has its own.
        tape: the buffer sets taped forwards on this plan lease; each
            dtype cast has its own.
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
    workspace: Workspace = field(default_factory=Workspace, repr=False,
                                 compare=False)
    tape: TapeBuffers = field(default_factory=TapeBuffers, repr=False,
                              compare=False)
    frozen: object = field(default=None, repr=False, compare=False)
    _casts: dict[str, "BatchedStatics"] = field(default_factory=dict,
                                                repr=False)

    def as_dtype(self, dtype) -> "BatchedStatics":
        """This plan with float arrays cast to ``dtype`` (cached).

        ``float64`` returns ``self``.  Index arrays are dtype-independent
        and shared with the original plan; the scatter operators carry
        ``dtype`` ones, so float32 segment sums stay float32.  The cast
        gets a workspace, tape buffers and frozen values of its own.
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
                workspace=Workspace(),
                tape=TapeBuffers(),
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
    """The full blocked decomposition of one ``(graph, B)`` forward.

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
    __slots__ = ("ref", "fingerprint", "batched", "unions")

    def __init__(self, graph: HeteroGraph) -> None:
        self.ref = weakref.ref(graph)
        self.fingerprint = graph_fingerprint(graph)
        self.batched: dict[int, BatchedStatics] = {}
        self.unions: dict[tuple[int, int], UnionPlan] = {}


class ForwardCacheStore:
    """Per-model cache of :class:`BatchedStatics` and :class:`UnionPlan`.

    A model is typically used with one graph (plus occasionally a
    validation graph), so the store keeps at most ``max_graphs`` live
    entries, evicted in LRU order: a hit refreshes the entry's recency,
    and capacity evicts only the stalest entries — never the entry being
    fetched, and never the whole store at once (wholesale clearing made
    alternation across ``max_graphs + 1`` graphs rebuild everything).
    """

    def __init__(self, max_graphs: int = 4) -> None:
        self.max_graphs = max_graphs
        self._entries: dict[int, _Entry] = {}

    def _entry(self, graph: HeteroGraph) -> _Entry:
        key = id(graph)
        entry = self._entries.get(key)
        if (entry is not None and entry.ref() is graph
                and entry.fingerprint == graph_fingerprint(graph)):
            # Refresh LRU recency (dicts preserve insertion order).
            self._entries.pop(key)
            self._entries[key] = entry
            return entry
        if entry is not None:  # dead ref or stale fingerprint: replace
            del self._entries[key]
        for dead in [k for k, e in self._entries.items()
                     if e.ref() is None]:
            del self._entries[dead]
        while len(self._entries) >= self.max_graphs:
            del self._entries[next(iter(self._entries))]
        entry = _Entry(graph)
        self._entries[key] = entry
        return entry

    # Per-entry plan dicts (batched / unions) are LRU caches:
    # a hit moves the plan to the back (most recent), an insert at
    # capacity evicts exactly the front (least recent) plan.  Dicts
    # preserve insertion order, so recency is the dict order itself.

    @staticmethod
    def _plan_hit(plans: dict, key):
        plan = plans.pop(key, None)
        if plan is not None:
            plans[key] = plan
        return plan

    @staticmethod
    def _plan_put(plans: dict, key, plan) -> None:
        while len(plans) >= MAX_PLANS_PER_GRAPH:
            del plans[next(iter(plans))]
        plans[key] = plan

    def batched(self, graph: HeteroGraph, batch: int) -> BatchedStatics:
        """The single-union plan of ``B`` replicas (one cache block).

        ``B=1`` is the plan a single-candidate forward runs on.
        """
        return self._batched(self._entry(graph), graph, batch)

    def _batched(self, entry: _Entry, graph: HeteroGraph,
                 batch: int) -> BatchedStatics:
        plan = self._plan_hit(entry.batched, batch)
        if plan is None:
            plan = build_batched(graph, batch)
            self._plan_put(entry.batched, batch, plan)
        return plan

    def release_tape_buffers(self) -> None:
        """Give every plan (and dtype cast) a new, empty
        :class:`~repro.nn.TapeBuffers`, so the old buffer sets and
        scratch are freed.  A tape still alive keeps its own set through
        its lease; later taped forwards allocate sets anew."""
        for entry in self._entries.values():
            for plan in entry.batched.values():
                for owner in (plan, *plan._casts.values()):
                    owner.tape = TapeBuffers()

    def union_plan(self, graph: HeteroGraph, batch: int,
                   block: int) -> UnionPlan:
        """The blocked decomposition of a ``B``-candidate forward.

        Keyed per ``(graph fingerprint, B, block)``; the underlying
        cache blocks are the :meth:`batched` plans, shared across batch
        sizes (a ``B=12`` and a ``B=8`` plan at ``block=4`` reuse the
        same 4-replica :class:`BatchedStatics`), so relaxation waves and
        serving micro-batches of different widths amortize one block
        build.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        block = min(block, batch)
        entry = self._entry(graph)
        key = (batch, block)
        plan = self._plan_hit(entry.unions, key)
        if plan is not None:
            # A union hit is also a use of its cache blocks: refresh
            # their recency too, so a hot union's blocks are never the
            # eviction victims when a new block size comes along.
            for size in dict.fromkeys(p.batch for p in plan.plans):
                self._plan_hit(entry.batched, size)
        if plan is None:
            full, remainder = divmod(batch, block)
            sizes = [block] * full + ([remainder] if remainder else [])
            by_size = {size: self._batched(entry, graph, size)
                       for size in dict.fromkeys(sizes)}
            slices = []
            start = 0
            for size in sizes:
                slices.append((start, start + size))
                start += size
            plan = UnionPlan(
                batch=batch,
                block=block,
                slices=tuple(slices),
                plans=tuple(by_size[size] for size in sizes),
            )
            self._plan_put(entry.unions, key, plan)
        return plan
