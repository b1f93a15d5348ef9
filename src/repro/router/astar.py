"""Multi-source multi-target A* maze routing on the 3D grid.

Move costs honor per-layer preferred directions, via costs, PathFinder
history, and the paper's non-uniform guidance: a step along direction ``d``
is scaled by the active guidance vector's ``C[d]`` (Section 3.1 — a smaller
``C[d]`` encourages wires along ``d``).

Routing is the inner loop of dataset generation, so the router ships three
interchangeable engines that return **bit-identical paths and expansion
counts** (enforced by test and by the perf gate):

``reference``
    The seed implementation, kept verbatim: a ``heapq`` of
    ``(f, g, node)`` float tuples over flat numpy arrays, with the
    heuristic recomputed on every push.  It defines the semantics — pop
    order ``(f, g, node)``, first-writer-wins on g-score ties — and is the
    baseline the perf benchmark measures speedups against.

``scalar``
    The fast general engine: all per-node arithmetic is precomputed into
    flat cost fields (``repro.router.costfield``) over a *padded* grid, so
    the unrolled expansion loop is pure Python-list lookups — no numpy
    scalar indexing, no bounds checks, no per-push heuristic calls.

``bucketed``
    Used automatically when the step-cost alphabet quantizes onto a dyadic
    lattice (:meth:`CostField.quantize`): costs become exact integers, the
    open set becomes a monotone :class:`~repro.router.pqueue.BucketQueue`
    over packed ``(f, g)`` keys, and all equal-priority frontier nodes are
    expanded as one numpy batch — bounds, occupancy, stamp, and relaxation
    masks computed for the whole batch in one shot.

G-scores, parents, and visited marks live in preallocated flat state
indexed by the cell encoding, reused across connections via a generation
stamp (bumping one counter invalidates the whole previous search in O(1));
the stamp wraps safely at ``uint32`` max by zero-filling once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.router.costfield import (
    CostField,
    INF,
    validate_connection_inputs,
)
from repro.router.grid import BLOCKED, FREE, GridNode, RoutingGrid
from repro.router.pqueue import BucketQueue

#: Engine names accepted by :class:`AStarRouter`.
ENGINES = ("auto", "scalar", "bucketed", "reference")

_STAMP_MAX = np.iinfo(np.uint32).max


@dataclass(frozen=True)
class CostParams:
    """Router cost knobs.

    Attributes:
        wire_cost: base cost of a planar unit step in the preferred
            direction.
        wrong_way_penalty: multiplier for planar steps against the layer's
            preferred direction.
        via_cost: base cost of a layer change.
        present_penalty: additive cost of stepping onto a cell owned by
            another net (soft/negotiation mode only).
        history_weight: multiplier on the grid's history cost.
        layer_aware_h: add the ``|l_t - l| * via_cost`` layer-distance term
            to the heuristic.  Tighter and still admissible (a path to a
            target on another layer must pay that many vias), typically
            ~35% fewer expansions — but tighter f-values break g-score
            ties differently, so routed paths may be *equal-cost
            different* from the default heuristic's.  Off by default to
            keep paths bit-identical with the seed router.
    """

    wire_cost: float = 1.0
    wrong_way_penalty: float = 2.5
    via_cost: float = 4.0
    present_penalty: float = 25.0
    history_weight: float = 1.0
    layer_aware_h: bool = False


class _SearchState:
    """Flat g/parent/stamp storage with O(1) generation reset."""

    __slots__ = ("g", "parent", "stamp", "generation")

    def __init__(self, g, parent, stamp) -> None:
        self.g = g
        self.parent = parent
        self.stamp = stamp
        self.generation = 0

    def next_generation(self) -> int:
        if self.generation >= _STAMP_MAX:
            # Wrapped: stale stamps could alias the new generation.
            if isinstance(self.stamp, list):
                self.stamp[:] = [0] * len(self.stamp)
            else:
                self.stamp.fill(0)
            self.generation = 0
        self.generation += 1
        return self.generation


class AStarRouter:
    """Routes individual 2-pin connections on a :class:`RoutingGrid`.

    Args:
        grid: the occupancy grid to search.
        params: cost knobs; defaults to :class:`CostParams`.
        engine: ``"auto"`` (bucketed when costs quantize, scalar
            otherwise), or force ``"scalar"`` / ``"bucketed"`` /
            ``"reference"``.  A forced ``"bucketed"`` engine falls back to
            scalar on connections whose costs don't quantize.
    """

    def __init__(self, grid: RoutingGrid, params: CostParams | None = None,
                 engine: str = "auto") -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}, want one of {ENGINES}")
        self.grid = grid
        self.params = params or CostParams()
        self.engine = engine
        #: Nodes expanded across every search this router has run.
        self.expansions_total = 0
        #: Expansions split by the engine that performed them
        #: (``route_expansions_total{mode=...}``).
        self.expansions_by_mode: dict[str, int] = {}
        #: Batched-expansion size summary (``route_frontier_batch``):
        #: count / sum / min / max of nodes expanded per frontier batch
        #: since the last :meth:`take_batch_window` — the iterative
        #: router drains it per net for per-net observability.
        self.batch_window = {"count": 0, "sum": 0.0,
                             "min": float("inf"), "max": float("-inf")}
        # Engine state, lazily allocated per family.
        self._ref_state: _SearchState | None = None
        self._list_state: _SearchState | None = None
        # (tx, ty) -> padded unscaled Manhattan heuristic field, shared
        # across connections, guidance vectors, and rip-up rounds.
        self._man_cache: dict = {}

    # -- state management ---------------------------------------------------

    def _get_ref_state(self) -> _SearchState:
        if self._ref_state is None:
            grid = self.grid
            total = grid.nx * grid.ny * grid.num_layers
            self._ref_state = _SearchState(
                np.empty(total, dtype=np.float64),
                np.empty(total, dtype=np.int64),
                np.zeros(total, dtype=np.uint32),
            )
        return self._ref_state

    def _padded_total(self) -> int:
        grid = self.grid
        return (grid.nx + 2) * (grid.ny + 2) * (grid.num_layers + 2)

    def _get_list_state(self) -> _SearchState:
        if self._list_state is None:
            total = self._padded_total()
            self._list_state = _SearchState(
                [0.0] * total, [-1] * total, [0] * total)
        return self._list_state

    def _note_expansions(self, mode: str, count: int) -> None:
        self.expansions_total += count
        self.expansions_by_mode[mode] = (
            self.expansions_by_mode.get(mode, 0) + count)

    def _observe_batch(self, size: int) -> None:
        stats = self.batch_window
        stats["count"] += 1
        stats["sum"] += size
        if size < stats["min"]:
            stats["min"] = size
        if size > stats["max"]:
            stats["max"] = size

    def take_batch_window(self) -> dict:
        """Return and reset the batch summary since the last call."""
        window = self.batch_window
        self.batch_window = {"count": 0, "sum": 0.0,
                             "min": float("inf"), "max": float("-inf")}
        return window

    # -- public API ---------------------------------------------------------

    def route_connection(
        self,
        net: str,
        sources: set[GridNode],
        targets: set[GridNode],
        guidance_vec: np.ndarray | None = None,
        soft: bool = False,
        max_expansions: int = 200_000,
        layer_multipliers: "np.ndarray | None" = None,
        add_core=None,
    ) -> list[GridNode] | None:
        """Find a cheapest path from any source to any target.

        Args:
            net: the net being routed (its own cells are passable).
            sources: starting cells (the already-routed tree).
            targets: goal cells.
            guidance_vec: length-3 guidance multipliers (x, y, z); neutral
                when None.  Non-finite or negative entries raise
                :class:`~repro.reliability.errors.RoutingError`.
            soft: when True, cells owned by other nets are passable at
                ``present_penalty`` (negotiation mode); when False they are
                hard blocked.
            max_expansions: search budget before giving up.
            layer_multipliers: optional per-layer planar-cost multipliers
                (length = num layers); e.g. supply nets get > 1 on thin
                lower metals to prefer routing on thick upper metals.
                Non-finite or negative entries raise ``RoutingError``.
            add_core: optional precomputed
                :class:`~repro.router.costfield.AddField` for this
                (net, soft) state, reused across a net's connections.

        Returns:
            The path as a list of grid cells from a source to a target, or
            None when no path exists within budget.
        """
        if not sources or not targets:
            return None
        guid, mult = validate_connection_inputs(
            guidance_vec, layer_multipliers, self.grid.num_layers)
        p = self.params
        if self.engine == "reference":
            return self._route_reference(
                net, sources, targets, guid, mult, soft, max_expansions)
        # A caller-provided add_core pins the grid state, so the whole
        # cost field (and its quantization core) is reusable across that
        # net's connections whenever guidance/multipliers repeat — only
        # the target-dependent heuristic needs repointing.
        field = None
        cache_key = None
        if add_core is not None:
            cache_key = (guid,
                         None if mult is None else tuple(mult.tolist()),
                         soft, p.layer_aware_h)
            field = add_core.field_cache.get(cache_key)
        if field is not None:
            field.retarget(targets)
        else:
            field = CostField(
                self.grid, net=net, guid=guid, layer_multipliers=mult,
                soft=soft, targets=targets,
                wire_cost=p.wire_cost, wrong_way_penalty=p.wrong_way_penalty,
                via_cost=p.via_cost, present_penalty=p.present_penalty,
                history_weight=p.history_weight,
                layer_aware_h=p.layer_aware_h, add_core=add_core,
                man_cache=self._man_cache)
            if cache_key is not None:
                add_core.field_cache[cache_key] = field
        if self.engine in ("auto", "bucketed"):
            quantized = field.quantize()
            if quantized is not None:
                return self._route_bucketed(
                    field, quantized, sources, max_expansions)
        return self._route_scalar(field, sources, max_expansions)

    # -- scalar engine ------------------------------------------------------

    def _route_scalar(self, field: CostField, sources, max_expansions):
        """Heap engine over precomputed list fields (padded, unrolled).

        Emulates the reference engine exactly: identical pop keys
        ``(f, g, node)``, identical float arithmetic (see
        ``costfield.CostField``), identical first-writer-wins relaxation.
        """
        state = self._get_list_state()
        g_l, par_l, st_l = state.g, state.parent, state.stamp
        gen = state.next_generation()
        add_l = field.add_list
        h_l = field.h_list
        step_x, step_y = field.step_x, field.step_y
        via = field.via
        nlp = field.nlp
        dx = field.dix
        dy = nlp
        hf = field.h_factor
        t_set = field.target_nodes
        heap: list[tuple[float, float, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        for s in sorted(sources):
            node = field.encode(s)
            g_l[node] = 0.0
            par_l[node] = -1
            st_l[node] = gen
            push(heap, (h_l[node] * hf, 0.0, node))

        if field.extra_list is None:
            expansions, found = self._scalar_hard(
                heap, g_l, par_l, st_l, gen, add_l, h_l, hf, step_x, step_y,
                via, nlp, dx, dy, t_set, max_expansions)
        else:
            expansions, found = self._scalar_soft(
                heap, g_l, par_l, st_l, gen, field.extra_list,
                field.hist_list, h_l, hf, step_x, step_y, via, nlp, dx, dy,
                t_set, max_expansions)
        self._note_expansions("scalar", expansions)
        if found < 0:
            return None
        return self._reconstruct_padded(field, par_l, found)

    @staticmethod
    def _scalar_hard(heap, g_l, par_l, st_l, gen, add_l, h_l, hf, step_x,
                     step_y, via, nlp, dx, dy, t_set, max_expansions):
        """Hard-blocked inner loop: ``new_g = (g + step) + add``.

        With hard blocking the seed router's ``extra`` term is always
        ``0.0`` on passable cells, so folding history into one additive
        field keeps float sums bit-identical.
        """
        push, pop = heapq.heappush, heapq.heappop
        inf = INF
        expansions = 0
        found = -1
        while heap and expansions < max_expansions:
            _, g, node = pop(heap)
            if g > g_l[node]:
                continue
            if node in t_set:
                found = node
                break
            expansions += 1
            layer = node % nlp
            cx = step_x[layer]
            cy = step_y[layer]
            # Six unrolled neighbor relaxations in the seed's direction
            # order (+x, -x, +y, -y, +z, -z).  Padding guarantees every
            # index is valid; ``add == inf`` marks blocked/foreign/border.
            nxt = node + dx
            a = add_l[nxt]
            if a != inf:
                ng = g + cx + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node - dx
            a = add_l[nxt]
            if a != inf:
                ng = g + cx + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node + dy
            a = add_l[nxt]
            if a != inf:
                ng = g + cy + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node - dy
            a = add_l[nxt]
            if a != inf:
                ng = g + cy + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node + 1
            a = add_l[nxt]
            if a != inf:
                ng = g + via + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node - 1
            a = add_l[nxt]
            if a != inf:
                ng = g + via + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
        return expansions, found

    @staticmethod
    def _scalar_soft(heap, g_l, par_l, st_l, gen, extra_l, hist_l, h_l, hf,
                     step_x, step_y, via, nlp, dx, dy, t_set,
                     max_expansions):
        """Soft-mode inner loop: ``new_g = ((g + step) + extra) + hist``.

        Keeps the present-penalty and history terms as separate additions
        in the seed router's association order — folding them first could
        shift the sum by an ulp and flip a float tie.
        """
        push, pop = heapq.heappush, heapq.heappop
        inf = INF
        expansions = 0
        found = -1
        deltas = (dx, -dx, dy, -dy, 1, -1)
        while heap and expansions < max_expansions:
            _, g, node = pop(heap)
            if g > g_l[node]:
                continue
            if node in t_set:
                found = node
                break
            expansions += 1
            layer = node % nlp
            cx = step_x[layer]
            cy = step_y[layer]
            costs = (cx, cx, cy, cy, via, via)
            for i in range(6):
                nxt = node + deltas[i]
                e = extra_l[nxt]
                if e != inf:
                    ng = ((g + costs[i]) + e) + hist_l[nxt]
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        push(heap, (ng + h_l[nxt] * hf, ng, nxt))
        return expansions, found

    # -- bucketed engine ----------------------------------------------------

    #: Popped buckets at least this large take the vectorized numpy
    #: expansion path; smaller batches run the sequential integer loop
    #: (fixed numpy dispatch overhead dominates below this size).
    VECTOR_BATCH_MIN = 48

    def _route_bucketed(self, field: CostField, quantized, sources,
                        max_expansions):
        """Bucket-queue engine with batched frontier expansion.

        All nodes sharing one exact packed ``(f, g)`` integer priority pop
        as a batch.  Large batches relax all six neighbors of the whole
        batch with numpy (candidate generation, blocked masks, and
        winner-per-neighbor selection in one shot); small batches run an
        unrolled sequential integer loop with the queue push inlined.
        Both resolve candidates in node-major, direction-minor order — the
        order the reference loop would have visited them — and integer
        costs are bit-exact with the reference's float costs, so routed
        paths are identical.
        """
        state = self._get_list_state()
        g_l, par_l, st_l = state.g, state.parent, state.stamp
        gen = state.next_generation()
        add_l = quantized.add_list
        h_l = quantized.h_list
        step_x = quantized.step_x_list
        step_y = quantized.step_y_list
        via = quantized.via
        impassable = quantized.impassable
        hf = quantized.h_factor
        nlp = field.nlp
        dx = field.dix
        dy = nlp
        t_set = field.target_nodes
        queue = BucketQueue(quantized.f_bound)
        modulus = queue.modulus
        buckets = queue.buckets
        key_heap = queue.key_heap
        heappush, heappop = heapq.heappush, heapq.heappop
        vector_min = self.VECTOR_BATCH_MIN
        for s in sorted(sources):
            node = field.encode(s)
            g_l[node] = 0
            par_l[node] = -1
            st_l[node] = gen
            queue.push(h_l[node] * hf, 0, node)

        expansions = 0
        found = -1
        b_count = 0
        b_sum = 0
        b_min = -1
        b_max = 0
        while key_heap and expansions < max_expansions:
            key = heappop(key_heap)
            nodes = buckets.pop(key)
            g = key % modulus
            if len(nodes) > 1:
                nodes.sort()
                if len(nodes) >= vector_min:
                    expansions, found, stop = self._expand_batch_vector(
                        quantized, field, queue, nodes, g, gen, state,
                        expansions, max_expansions)
                    if stop:
                        break
                    continue
            batch_size = 0
            for node in nodes:
                if expansions >= max_expansions:
                    break
                if g_l[node] != g:
                    continue  # stale: improved after this push
                if node in t_set:
                    found = node
                    break
                expansions += 1
                batch_size += 1
                layer = node % nlp
                cx = step_x[layer]
                cy = step_y[layer]
                nxt = node + dx
                a = add_l[nxt]
                if a != impassable:
                    ng = g + cx + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                nxt = node - dx
                a = add_l[nxt]
                if a != impassable:
                    ng = g + cx + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                nxt = node + dy
                a = add_l[nxt]
                if a != impassable:
                    ng = g + cy + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                nxt = node - dy
                a = add_l[nxt]
                if a != impassable:
                    ng = g + cy + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                nxt = node + 1
                a = add_l[nxt]
                if a != impassable:
                    ng = g + via + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                nxt = node - 1
                a = add_l[nxt]
                if a != impassable:
                    ng = g + via + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + h_l[nxt] * hf) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
            if batch_size:
                b_count += 1
                b_sum += batch_size
                if b_min < 0 or batch_size < b_min:
                    b_min = batch_size
                if batch_size > b_max:
                    b_max = batch_size
            if found >= 0:
                break
        if b_count:
            stats = self.batch_window
            stats["count"] += b_count
            stats["sum"] += b_sum
            if b_min < stats["min"]:
                stats["min"] = b_min
            if b_max > stats["max"]:
                stats["max"] = b_max
        self._note_expansions("bucketed", expansions)
        if found < 0:
            return None
        return self._reconstruct_padded(field, par_l, found)

    def _expand_batch_vector(self, quantized, field, queue, nodes, g, gen,
                             state, expansions, max_expansions):
        """Vectorized expansion of one large equal-priority batch.

        Returns ``(expansions, found, stop)``; exact emulation of popping
        the (sorted) batch nodes one by one from the reference heap.
        """
        g_l, par_l, st_l = state.g, state.parent, state.stamp
        t_set = field.target_nodes
        live = [n for n in nodes if g_l[n] == g]
        found = -1
        if not live:
            return expansions, found, False
        remaining = max_expansions - expansions
        first_hit = len(live)
        for i, n in enumerate(live):
            if n in t_set:
                first_hit = i
                break
        n_expand = min(first_hit, remaining)
        if first_hit < len(live) and first_hit < remaining:
            found = live[first_hit]
        if n_expand:
            self._observe_batch(n_expand)
            expansions += n_expand
            batch = np.asarray(live[:n_expand], dtype=np.int64)
            nlp = field.nlp
            strides = np.array([field.dix, -field.dix, nlp, -nlp, 1, -1],
                               dtype=np.int64)
            layer_idx = batch % nlp
            costs = np.empty((n_expand, 6), dtype=np.int64)
            costs[:, 0] = costs[:, 1] = quantized.step_x[layer_idx]
            costs[:, 2] = costs[:, 3] = quantized.step_y[layer_idx]
            costs[:, 4] = costs[:, 5] = quantized.via
            nb_flat = (batch[:, None] + strides[None, :]).ravel()
            add_flat = quantized.add[nb_flat]
            valid = add_flat < quantized.impassable
            nb_v = nb_flat[valid]
            if nb_v.size:
                ng_v = g + costs.ravel()[valid] + add_flat[valid]
                par_v = np.repeat(batch, 6)[valid]
                # Winner per neighbor: min new_g, earliest candidate in
                # sequential (node, direction) order on ties — exactly
                # the first writer the reference loop keeps.
                order = np.arange(nb_v.size)
                sel = np.lexsort((order, ng_v, nb_v))
                nb_s = nb_v[sel]
                keep = np.ones(nb_s.size, dtype=bool)
                keep[1:] = nb_s[1:] != nb_s[:-1]
                h_l = quantized.h_list
                hf = quantized.h_factor
                push = queue.push
                for nxt, ng, par in zip(nb_s[keep].tolist(),
                                        ng_v[sel][keep].tolist(),
                                        par_v[sel][keep].tolist()):
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = par
                        st_l[nxt] = gen
                        push(ng + h_l[nxt] * hf, ng, nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = par
                        push(ng + h_l[nxt] * hf, ng, nxt)
        # Stop when the target was reached or the budget cut the batch
        # short (the reference loop would stop mid-heap too).
        stop = found >= 0 or n_expand < len(live)
        return expansions, found, stop

    # -- reference engine ---------------------------------------------------

    def _route_reference(self, net, sources, targets, guid, mult, soft,
                         max_expansions):
        """The seed router, verbatim: semantics oracle and perf baseline."""
        grid = self.grid
        p = self.params
        nx, ny, nl = grid.nx, grid.ny, grid.num_layers
        # Per-(layer, axis) planar step cost, and via step cost.
        planar_cost = [[0.0, 0.0] for _ in range(nl)]
        for layer in range(nl):
            pref_axis = grid.preferred_direction(layer).axis
            scale = 1.0 if mult is None else float(mult[layer])
            for axis in range(2):
                base = p.wire_cost if axis == pref_axis else (
                    p.wire_cost * p.wrong_way_penalty)
                planar_cost[layer][axis] = base * guid[axis] * scale
        via_cost = p.via_cost * guid[2]
        h_scale = min(min(row) for row in planar_cost)

        # Integer cell encoding matching C-order of the occupancy array.
        def encode(cell: GridNode) -> int:
            return (cell[0] * ny + cell[1]) * nl + cell[2]

        target_nodes = {encode(t) for t in targets}
        target_xy = [(t[0], t[1]) for t in targets]
        single_target = target_xy[0] if len(target_xy) == 1 else None
        if p.layer_aware_h:
            target_xyl = [(t[0], t[1], t[2]) for t in targets]

            def heuristic(ix: int, iy: int, l: int) -> float:
                return min(
                    (abs(tx - ix) + abs(ty - iy)) * h_scale
                    + abs(tl - l) * via_cost
                    for tx, ty, tl in target_xyl)
        else:
            def heuristic(ix: int, iy: int, l: int) -> float:
                if single_target is not None:
                    tx, ty = single_target
                    return (abs(tx - ix) + abs(ty - iy)) * h_scale
                return min(abs(tx - ix) + abs(ty - iy)
                           for tx, ty in target_xy) * h_scale

        occ = grid.occupancy.reshape(-1)
        history = grid.history.reshape(-1)
        net_idx = grid.net_index[net]
        hist_w = p.history_weight
        present = p.present_penalty
        free, blocked = FREE, BLOCKED

        open_heap: list[tuple[float, float, int]] = []
        state = self._get_ref_state()
        g_arr, parent_arr, stamp = state.g, state.parent, state.stamp
        gen = state.next_generation()
        # Sources are pushed in sorted order so tie-breaking (and therefore
        # the chosen path) is identical across processes regardless of set
        # iteration order / PYTHONHASHSEED.
        for s in sorted(sources):
            node = encode(s)
            g_arr[node] = 0.0
            parent_arr[node] = -1
            stamp[node] = gen
            heapq.heappush(open_heap, (heuristic(s[0], s[1], s[2]), 0.0, node))

        heappush, heappop = heapq.heappush, heapq.heappop
        expansions = 0
        found: list[GridNode] | None = None
        while open_heap and expansions < max_expansions:
            _, g, node = heappop(open_heap)
            if g > g_arr[node]:
                continue
            if node in target_nodes:
                found = self._reconstruct(parent_arr, node, ny, nl)
                break
            expansions += 1
            layer = node % nl
            rem = node // nl
            iy = rem % ny
            ix = rem // ny
            costs = planar_cost[layer]
            # (neighbor, step_cost, in_bounds)
            steps = (
                (node + ny * nl, costs[0], ix + 1 < nx),
                (node - ny * nl, costs[0], ix >= 1),
                (node + nl, costs[1], iy + 1 < ny),
                (node - nl, costs[1], iy >= 1),
                (node + 1, via_cost, layer + 1 < nl),
                (node - 1, via_cost, layer >= 1),
            )
            for nxt, step, ok in steps:
                if not ok:
                    continue
                owner = occ[nxt]
                if owner == blocked:
                    continue
                extra = 0.0
                if owner != free and owner != net_idx:
                    if not soft:
                        continue
                    extra = present
                new_g = g + step + extra + hist_w * history[nxt]
                if stamp[nxt] != gen or new_g < g_arr[nxt]:
                    g_arr[nxt] = new_g
                    parent_arr[nxt] = node
                    stamp[nxt] = gen
                    n_rem = nxt // nl
                    n_layer = nxt % nl
                    heappush(open_heap,
                             (new_g + heuristic(n_rem // ny, n_rem % ny,
                                                n_layer),
                              new_g, nxt))
        self._note_expansions("reference", expansions)
        return found

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def _reconstruct_padded(field: CostField, parent, end: int
                            ) -> list[GridNode]:
        path: list[GridNode] = []
        node = end
        while node != -1:
            path.append(field.decode(node))
            node = int(parent[node])
        path.reverse()
        return path

    @staticmethod
    def _reconstruct(
        parent: np.ndarray, end: int, ny: int, nl: int
    ) -> list[GridNode]:
        path: list[GridNode] = []
        node = end
        while node != -1:
            layer = node % nl
            rem = node // nl
            path.append((rem // ny, rem % ny, layer))
            node = int(parent[node])
        path.reverse()
        return path
