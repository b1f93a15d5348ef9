"""Multi-source single-target A* maze routing on the 3D grid.

Move costs honor per-layer preferred directions, via costs, PathFinder
history, and the paper's non-uniform guidance: a step along direction ``d``
is scaled by the active guidance vector's ``C[d]`` (Section 3.1 — a smaller
``C[d]`` encourages wires along ``d``).

Routing is the inner loop of dataset generation, so the router runs one of
two engines per connection.  Both return **bit-identical paths and
expansion counts** to the seed router, which the router tests and the perf
gate keep as an oracle (``tests/router_oracle.py``): a ``heapq`` of
float tuples whose pop order ``(f, g, node)`` and first-writer-wins
g-score ties define the semantics.

The heuristic is ``man * h_scale + |l - l_t| * via``: the Manhattan
distance to the target at the cheapest planar step cost plus the layer
distance at the via cost.  Both are lower bounds on the remaining cost,
so it is admissible (and consistent).  A push computes it in O(1) as
``ng + (h[nxt] * h_factor + h_layer[layer])``, the oracle's float
association: ``h`` is an unscaled Manhattan field shared across
connections and ``h_layer`` a per-connection list of layer terms.

``scalar``
    The general engine: all per-node arithmetic is precomputed into
    flat cost fields (``repro.router.costfield``) over a *padded* grid, so
    the unrolled expansion loop is pure Python-list lookups — no numpy
    scalar indexing, no bounds checks, no per-push heuristic calls.

``bucketed``
    Used whenever the step-cost alphabet quantizes onto a dyadic
    lattice (:meth:`CostField.quantize`): costs become exact integers,
    the open set becomes a monotone
    :class:`~repro.router.pqueue.BucketQueue` over packed ``(f, g)``
    keys, and the frontier nodes sharing one priority pop as one batch.

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
from repro.router.grid import GridNode, RoutingGrid
from repro.router.pqueue import BucketQueue

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

    The search heuristic is fixed: ``man * h_scale + |l - l_t| * via``,
    the Manhattan distance to the target at the cheapest planar step
    cost plus the vias the path must still take at the via cost.  Both
    terms are lower bounds, so the heuristic is admissible and routed
    paths stay optimal.
    """

    wire_cost: float = 1.0
    wrong_way_penalty: float = 2.5
    via_cost: float = 4.0
    present_penalty: float = 25.0
    history_weight: float = 1.0


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
            self.stamp[:] = [0] * len(self.stamp)
            self.generation = 0
        self.generation += 1
        return self.generation


class AStarRouter:
    """Routes individual 2-pin connections on a :class:`RoutingGrid`.

    Each connection runs on the bucketed engine when its costs quantize
    and on the scalar engine otherwise.

    Args:
        grid: the occupancy grid to search.
        params: cost knobs; defaults to :class:`CostParams`.
    """

    def __init__(self, grid: RoutingGrid,
                 params: CostParams | None = None) -> None:
        self.grid = grid
        self.params = params or CostParams()
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
        # Engine state, lazily allocated.
        self._list_state: _SearchState | None = None
        # (tx, ty) -> padded unscaled Manhattan heuristic field, shared
        # across connections, guidance vectors, and rip-up rounds.
        self._man_cache: dict = {}

    # -- state management ---------------------------------------------------

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
        target: GridNode,
        guidance_vec: np.ndarray | None = None,
        soft: bool = False,
        max_expansions: int = 200_000,
        add_core=None,
    ) -> list[GridNode] | None:
        """Find a cheapest path from any source to the target.

        Args:
            net: the net being routed (its own cells are passable).
            sources: starting cells (the already-routed tree).
            target: the goal cell.
            guidance_vec: length-3 guidance multipliers (x, y, z); neutral
                when None.  Non-finite or negative entries raise
                :class:`~repro.reliability.errors.RoutingError`.
            soft: when True, cells owned by other nets are passable at
                ``present_penalty`` (negotiation mode); when False they are
                hard blocked.
            max_expansions: search budget before giving up.
            add_core: optional precomputed
                :class:`~repro.router.costfield.AddField` for this
                (net, soft) state, reused across a net's connections.

        Returns:
            The path as a list of grid cells from a source to the target,
            or None when no path exists within budget.
        """
        if not sources:
            return None
        guid = validate_connection_inputs(guidance_vec)
        p = self.params
        # A caller-provided add_core pins the grid state, so the whole
        # cost field (and its quantization core) is reusable across that
        # net's connections whenever guidance repeats — only the
        # target-dependent heuristic needs repointing.
        field = None
        cache_key = None
        if add_core is not None:
            cache_key = (guid, soft)
            field = add_core.field_cache.get(cache_key)
        if field is not None:
            field.retarget(target)
        else:
            field = CostField(
                self.grid, net=net, guid=guid, soft=soft, target=target,
                wire_cost=p.wire_cost, wrong_way_penalty=p.wrong_way_penalty,
                via_cost=p.via_cost, present_penalty=p.present_penalty,
                history_weight=p.history_weight, add_core=add_core,
                man_cache=self._man_cache)
            if cache_key is not None:
                add_core.field_cache[cache_key] = field
        quantized = field.quantize()
        if quantized is not None:
            return self._route_bucketed(
                field, quantized, sources, max_expansions)
        return self._route_scalar(field, sources, max_expansions)

    # -- scalar engine ------------------------------------------------------

    def _route_scalar(self, field: CostField, sources, max_expansions):
        """Heap engine over precomputed list fields (padded, unrolled).

        Emulates the seed engine exactly: identical pop keys
        ``(f, g, node)``, identical float arithmetic (see
        ``costfield.CostField``), identical first-writer-wins relaxation.
        A push's f is ``ng + (h_l[nxt] * hf + hl[layer])``, the seed's
        ``new_g + (man * h_scale + ldist * via)`` term for term.
        """
        state = self._get_list_state()
        g_l, par_l, st_l = state.g, state.parent, state.stamp
        gen = state.next_generation()
        h_l = field.h_list
        hl = field.h_layer
        hf = field.h_scale
        nlp = field.nlp
        heap: list[tuple[float, float, int]] = []
        push = heapq.heappush
        for s in sorted(sources):
            node = field.encode(s)
            g_l[node] = 0.0
            par_l[node] = -1
            st_l[node] = gen
            push(heap, (h_l[node] * hf + hl[node % nlp], 0.0, node))

        if field.extra_list is None:
            expansions, found = self._scalar_hard(
                heap, g_l, par_l, st_l, gen, field.add_list, h_l, hl, hf,
                field.step_x, field.step_y, field.via, nlp, field.dix,
                field.target_node, max_expansions)
        else:
            expansions, found = self._scalar_soft(
                heap, g_l, par_l, st_l, gen, field.extra_list,
                field.hist_list, h_l, hl, hf, field.step_x, field.step_y,
                field.via, nlp, field.dix, field.target_node,
                max_expansions)
        self._note_expansions("scalar", expansions)
        if found < 0:
            return None
        return self._reconstruct_padded(field, par_l, found)

    @staticmethod
    def _scalar_hard(heap, g_l, par_l, st_l, gen, add_l, h_l, hl, hf, step_x,
                     step_y, via, nlp, dx, target, max_expansions):
        """Hard-blocked inner loop: ``new_g = (g + step) + add``.

        With hard blocking the seed router's ``extra`` term is always
        ``0.0`` on passable cells, so folding history into one additive
        field keeps float sums bit-identical.
        """
        push, pop = heapq.heappush, heapq.heappop
        inf = INF
        dy = nlp
        expansions = 0
        found = -1
        while heap and expansions < max_expansions:
            _, g, node = pop(heap)
            if g > g_l[node]:
                continue
            if node == target:
                found = node
                break
            expansions += 1
            layer = node % nlp
            cx = step_x[layer]
            cy = step_y[layer]
            tl = hl[layer]
            # Six unrolled neighbor relaxations in the seed's direction
            # order (+x, -x, +y, -y, +z, -z).  Padding guarantees every
            # index is valid; ``add == inf`` marks blocked/foreign/border.
            # Planar pushes stay on this layer (layer term ``tl``); the
            # two via pushes read the layer term of the layer they enter.
            nxt = node + dx
            a = add_l[nxt]
            if a != inf:
                ng = g + cx + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node - dx
            a = add_l[nxt]
            if a != inf:
                ng = g + cx + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node + dy
            a = add_l[nxt]
            if a != inf:
                ng = g + cy + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node - dy
            a = add_l[nxt]
            if a != inf:
                ng = g + cy + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node + 1
            a = add_l[nxt]
            if a != inf:
                ng = g + via + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer + 1]),
                                ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer + 1]),
                                ng, nxt))
            nxt = node - 1
            a = add_l[nxt]
            if a != inf:
                ng = g + via + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer - 1]),
                                ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer - 1]),
                                ng, nxt))
        return expansions, found

    @staticmethod
    def _scalar_soft(heap, g_l, par_l, st_l, gen, extra_l, hist_l, h_l, hl,
                     hf, step_x, step_y, via, nlp, dx, target,
                     max_expansions):
        """Soft-mode inner loop: ``new_g = ((g + step) + extra) + hist``.

        Keeps the present-penalty and history terms as separate additions
        in the seed router's association order — folding them first could
        shift the sum by an ulp and flip a float tie.  Unrolled like
        :meth:`_scalar_hard`; ``extra == inf`` marks blocked/border cells.
        """
        push, pop = heapq.heappush, heapq.heappop
        inf = INF
        dy = nlp
        expansions = 0
        found = -1
        while heap and expansions < max_expansions:
            _, g, node = pop(heap)
            if g > g_l[node]:
                continue
            if node == target:
                found = node
                break
            expansions += 1
            layer = node % nlp
            cx = step_x[layer]
            cy = step_y[layer]
            tl = hl[layer]
            nxt = node + dx
            e = extra_l[nxt]
            if e != inf:
                ng = ((g + cx) + e) + hist_l[nxt]
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node - dx
            e = extra_l[nxt]
            if e != inf:
                ng = ((g + cx) + e) + hist_l[nxt]
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node + dy
            e = extra_l[nxt]
            if e != inf:
                ng = ((g + cy) + e) + hist_l[nxt]
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node - dy
            e = extra_l[nxt]
            if e != inf:
                ng = ((g + cy) + e) + hist_l[nxt]
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + tl), ng, nxt))
            nxt = node + 1
            e = extra_l[nxt]
            if e != inf:
                ng = ((g + via) + e) + hist_l[nxt]
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer + 1]),
                                ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer + 1]),
                                ng, nxt))
            nxt = node - 1
            e = extra_l[nxt]
            if e != inf:
                ng = ((g + via) + e) + hist_l[nxt]
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer - 1]),
                                ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + (h_l[nxt] * hf + hl[layer - 1]),
                                ng, nxt))
        return expansions, found

    # -- bucketed engine ----------------------------------------------------

    def _route_bucketed(self, field: CostField, quantized, sources,
                        max_expansions):
        """Bucket-queue engine with batched frontier expansion.

        All nodes sharing one exact packed ``(f, g)`` integer priority pop
        as a batch, sorted by node: the order the seed engine's heap
        would pop them in.  An unrolled integer loop expands the batch
        with the queue push inlined.  Integer costs are bit-exact with
        the seed engine's float costs, so routed paths are identical.
        """
        state = self._get_list_state()
        g_l, par_l, st_l = state.g, state.parent, state.stamp
        gen = state.next_generation()
        add_l = quantized.add
        h_l = quantized.h
        hl = quantized.h_layer
        step_x = quantized.step_x
        step_y = quantized.step_y
        via = quantized.via
        impassable = quantized.impassable
        hf = quantized.h_factor
        nlp = field.nlp
        dx = field.dix
        dy = nlp
        target = field.target_node
        queue = BucketQueue(quantized.f_bound)
        modulus = queue.modulus
        buckets = queue.buckets
        key_heap = queue.key_heap
        heappush, heappop = heapq.heappush, heapq.heappop
        for s in sorted(sources):
            node = field.encode(s)
            g_l[node] = 0
            par_l[node] = -1
            st_l[node] = gen
            queue.push(h_l[node] * hf + hl[node % nlp], 0, node)

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
            batch_size = 0
            for node in nodes:
                if expansions >= max_expansions:
                    break
                if g_l[node] != g:
                    continue  # stale: improved after this push
                if node == target:
                    found = node
                    break
                expansions += 1
                batch_size += 1
                layer = node % nlp
                cx = step_x[layer]
                cy = step_y[layer]
                tl = hl[layer]
                nxt = node + dx
                a = add_l[nxt]
                if a != impassable:
                    ng = g + cx + a
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
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
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
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
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
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
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = (ng + (h_l[nxt] * hf + tl)) * modulus + ng
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
                        key = ((ng + (h_l[nxt] * hf + hl[layer + 1]))
                               * modulus + ng)
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = ((ng + (h_l[nxt] * hf + hl[layer + 1]))
                               * modulus + ng)
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
                        key = ((ng + (h_l[nxt] * hf + hl[layer - 1]))
                               * modulus + ng)
                        b = buckets.get(key)
                        if b is None:
                            buckets[key] = [nxt]
                            heappush(key_heap, key)
                        else:
                            b.append(nxt)
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        key = ((ng + (h_l[nxt] * hf + hl[layer - 1]))
                               * modulus + ng)
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
