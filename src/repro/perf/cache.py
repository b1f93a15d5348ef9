"""Graph-invariant forward-pass caches for the 3DGNN.

Potential relaxation pays one GNN forward-backward per L-BFGS function
evaluation; everything in that pass that does not depend on the guidance
``C`` is hoisted here and built once per graph:

* the directed edge expansion (also memoized on
  :meth:`repro.graph.hetero.HeteroGraph.directed_edges` itself);
* the static geometry of the Eq. 1 cost-aware distance — the per-edge
  ``|pos[dst] - pos[src]|`` decomposition that guidance merely reweights;
* the plain Euclidean distances used when ``use_cost_distance`` is off
  (fully static, so the whole Eq. 2-3 input is cacheable);
* one prebuilt CSR scatter operator (:class:`repro.nn.Scatter`) per
  edge endpoint array, which serves every segment sum of the forward
  (message aggregation, readout pooling) and every row-gather
  backward, so index ranges are checked once per build;
* the **disjoint-union batching plan**: to evaluate ``B`` guidance
  candidates in one forward, the graph is replicated ``B`` times into one
  block-diagonal graph.  Union node layout: access point ``(b, a)`` maps
  to ``b * A + a`` and module ``(b, m)`` to ``B * A + b * M + m`` — all
  APs first, mirroring the graph's own ``[aps, modules]`` layout so a
  ``(B * A, 3)`` guidance stack lines up with union indices directly.
  A single candidate runs on the ``B=1`` plan, which is the graph itself.

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

    Attributes:
        batch: number of replicas ``B``.
        num_nodes: total union nodes, ``B * (A + M)``.
        edge_cache: per edge type, (src, dst) :class:`Scatter` operators
            in union indexing, length ``B * E``.
        deltas: per edge type, the graph's (E, 3) absolute (h, w, z)
            edge-vector decomposition of Eq. 1, tiled ``B`` times; it is
            guidance-independent.
        ap_features: (B * A, F) tiled static AP features.
        module_features: (B * M, F) tiled static module features.
        pool: the per-candidate readout scatter: ``B`` segments, whose
            ids are the candidate of each union node.
        neutral_guidance: (B * M, 3) ones, the module receivers' guidance.
    """

    batch: int
    num_nodes: int
    edge_cache: dict[EdgeType, tuple[Scatter, Scatter]]
    deltas: dict[EdgeType, np.ndarray]
    ap_features: np.ndarray
    module_features: np.ndarray
    pool: Scatter
    neutral_guidance: np.ndarray
    _euclidean: dict[EdgeType, np.ndarray] = field(default_factory=dict)
    _casts: dict[str, "BatchedStatics"] = field(default_factory=dict,
                                                repr=False)

    def euclidean(self, edge_type: EdgeType) -> np.ndarray:
        """Static Euclidean edge lengths in the union (tiled)."""
        dist = self._euclidean.get(edge_type)
        if dist is None:
            d = self.deltas[edge_type]
            dist = np.sqrt((d * d).sum(axis=1) + 1e-6)
            self._euclidean[edge_type] = dist
        return dist

    def as_dtype(self, dtype) -> "BatchedStatics":
        """This plan with float arrays cast to ``dtype`` (cached).

        ``float64`` returns ``self``.  Index arrays are dtype-independent
        and shared with the original plan; the scatter operators carry
        ``dtype`` ones, so float32 segment sums stay float32.
        """
        dtype = np.dtype(dtype)
        if dtype == np.float64:
            return self
        cast = self._casts.get(dtype.name)
        if cast is None:
            cast = dataclasses.replace(
                self,
                edge_cache={et: (src.astype(dtype), dst.astype(dtype))
                            for et, (src, dst) in self.edge_cache.items()},
                pool=self.pool.astype(dtype),
                deltas={et: d.astype(dtype) for et, d in self.deltas.items()},
                ap_features=self.ap_features.astype(dtype),
                module_features=self.module_features.astype(dtype),
                neutral_guidance=self.neutral_guidance.astype(dtype),
                _euclidean={},
                _casts={},
            )
            self._casts[dtype.name] = cast
        return cast


def _union_indices(idx: np.ndarray, replica: int, num_aps: int,
                   num_modules: int, batch: int) -> np.ndarray:
    """Map the graph's node indices into replica ``replica`` of the union."""
    return np.where(
        idx < num_aps,
        replica * num_aps + idx,
        batch * num_aps + replica * num_modules + (idx - num_aps),
    )


def build_batched(graph: HeteroGraph, batch: int) -> BatchedStatics:
    """Replicate a graph ``batch`` times into one block-diagonal union.

    Each replica keeps the graph's edge order, so every union node's
    scatter row lists its replica's edges in the graph's order.  At
    ``batch=1`` the union is the graph itself: its scatter ids are the
    graph's directed edges and its deltas are the graph's own.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    num_aps, num_modules = graph.num_aps, graph.num_modules
    num_nodes = batch * graph.num_nodes
    positions = graph.positions

    def union(ids: np.ndarray) -> Scatter:
        return Scatter(np.concatenate([
            _union_indices(ids, b, num_aps, num_modules, batch)
            for b in range(batch)
        ]), num_nodes)

    edge_cache: dict[EdgeType, tuple[Scatter, Scatter]] = {}
    deltas: dict[EdgeType, np.ndarray] = {}
    for edge_type in EdgeType:
        src, dst = graph.directed_edges(edge_type)
        edge_cache[edge_type] = (union(src), union(dst))
        deltas[edge_type] = np.tile(np.abs(positions[dst] - positions[src]),
                                    (batch, 1))
    graph_ids = np.concatenate([
        np.repeat(np.arange(batch, dtype=np.int64), num_aps),
        np.repeat(np.arange(batch, dtype=np.int64), num_modules),
    ])
    return BatchedStatics(
        batch=batch,
        num_nodes=num_nodes,
        edge_cache=edge_cache,
        deltas=deltas,
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
