"""Router oracles: the seed A* engine, the flooding router and a DRC check.

:class:`SeedAStarRouter` is the seed router's A* search: a ``heapq`` of
``(f, g, node)`` float tuples over flat numpy arrays, with the heuristic
``man * h_scale + |l - l_t| * via`` recomputed on every push by a Python
``min`` over the targets.  It defines the semantics the shipped engines
reproduce bit for bit (pop order ``(f, g, node)``, first-writer-wins on
g-score ties, the heuristic's float association), and it is the
baseline ``benchmarks/bench_perf.py`` measures their speedups against.

:class:`FloodingRouter` runs every hard-mode A* search, including those
whose target no source can reach, which flood their sources' region and
return None.  It also skips the labelling, so it costs what the router
cost before the check.  The router tests hold the shipped router to its
paths, failures and iterations, and ``benchmarks/bench_perf.py`` times
the engines on it, because its floods are the workload the engine-speedup
floors were set on.

:func:`check_drc` is the grid-level design-rule check the router tests
hold every routing solution to.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.router import BLOCKED, FREE, AStarRouter, IterativeRouter
from repro.router.astar import _SearchState
from repro.router.costfield import validate_connection_inputs


class SeedAStarRouter(AStarRouter):
    """:class:`~repro.router.AStarRouter` that runs the seed engine."""

    def __init__(self, grid, params=None) -> None:
        super().__init__(grid, params)
        self._ref_state: _SearchState | None = None

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

    def route_connection(self, net, sources, target, guidance_vec=None,
                         soft=False, max_expansions=200_000, add_core=None):
        if not sources:
            return None
        guid = validate_connection_inputs(guidance_vec)
        # The seed engine keeps its own target set and its ``min`` over
        # targets; the shipped engines search for one target cell.
        return self._route_reference(net, sources, {target}, guid, soft,
                                     max_expansions)

    def _route_reference(self, net, sources, targets, guid, soft,
                         max_expansions):
        """The seed router: semantics oracle and perf baseline."""
        grid = self.grid
        p = self.params
        nx, ny, nl = grid.nx, grid.ny, grid.num_layers
        # Per-(layer, axis) planar step cost, and via step cost.
        planar_cost = [[0.0, 0.0] for _ in range(nl)]
        for layer in range(nl):
            pref_axis = grid.preferred_direction(layer).axis
            for axis in range(2):
                base = p.wire_cost if axis == pref_axis else (
                    p.wire_cost * p.wrong_way_penalty)
                planar_cost[layer][axis] = base * guid[axis]
        via_cost = p.via_cost * guid[2]
        h_scale = min(min(row) for row in planar_cost)

        # Integer cell encoding matching C-order of the occupancy array.
        def encode(cell):
            return (cell[0] * ny + cell[1]) * nl + cell[2]

        target_nodes = {encode(t) for t in targets}
        heuristic = self._heuristic(
            [(t[0], t[1], t[2]) for t in targets], h_scale, via_cost)

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
        found = None
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

    @staticmethod
    def _heuristic(targets, h_scale, via_cost):
        """The search heuristic: Manhattan distance at the cheapest planar
        step cost plus the layer distance at the via cost, minimised over
        the targets.  A test patches this to return 0 to get Dijkstra.

        A single target skips the ``min`` (the same float), so the
        reference arm of the route gate is not slowed by a generator the
        seed router never ran on that shape."""
        if len(targets) == 1:
            (tx, ty, tl), = targets

            def heuristic(ix: int, iy: int, l: int) -> float:
                return ((abs(tx - ix) + abs(ty - iy)) * h_scale
                        + abs(tl - l) * via_cost)
        else:
            def heuristic(ix: int, iy: int, l: int) -> float:
                return min(
                    (abs(tx - ix) + abs(ty - iy)) * h_scale
                    + abs(tl - l) * via_cost
                    for tx, ty, tl in targets)
        return heuristic

    @staticmethod
    def _reconstruct(parent, end, ny, nl):
        path = []
        node = end
        while node != -1:
            layer = node % nl
            rem = node // nl
            path.append((rem // ny, rem % ny, layer))
            node = int(parent[node])
        path.reverse()
        return path


class FloodingRouter(IterativeRouter):
    """:class:`~repro.router.IterativeRouter` that runs every hard search."""

    def _hard_components(self, net_name):
        return None


class SeedEngineRouter(IterativeRouter):
    """:class:`~repro.router.IterativeRouter` on the seed engine."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.astar = SeedAStarRouter(self.grid, self.config.cost)


class SeedFloodingRouter(SeedEngineRouter, FloodingRouter):
    """The flooding router on the seed engine: the route bench's baseline."""


@dataclass(frozen=True)
class DrcViolation:
    """A single design-rule or constraint violation.

    Attributes:
        kind: "short" | "open" | "bounds" | "symmetry" | "unrouted".
        nets: nets involved.
        detail: human-readable description.
    """

    kind: str
    nets: tuple[str, ...]
    detail: str


def check_drc(result, grid) -> list[DrcViolation]:
    """Run all grid-level DRC/constraint checks on a routing solution.

    Because the routing pitch exceeds min-width + min-spacing, same-layer
    spacing between distinct nets is clean by construction; the checks
    that remain meaningful on the grid are cell exclusivity (short
    check), bounds, connectivity, and symmetry conformance.  Shorts,
    opens, bounds and unrouted nets are hard errors the router should not
    emit; symmetry violations are soft (they degrade performance but the
    layout is manufacturable), matching the paper's treatment.
    """
    violations: list[DrcViolation] = []

    for cell, nets in sorted(result.overlaps().items()):
        violations.append(DrcViolation(
            kind="short", nets=tuple(sorted(nets)),
            detail=f"cell {cell} shared by {sorted(nets)}",
        ))

    for name, route in sorted(result.routes.items()):
        for cell in route.cells():
            if not grid.in_bounds(cell):
                violations.append(DrcViolation(
                    kind="bounds", nets=(name,),
                    detail=f"net {name} leaves the grid at {cell}",
                ))
                break
        if not route.is_connected():
            violations.append(DrcViolation(
                kind="open", nets=(name,),
                detail=f"net {name} does not connect all access points",
            ))

    for net_name in sorted(result.failed_nets):
        violations.append(DrcViolation(
            kind="unrouted", nets=(net_name,), detail=f"net {net_name} unrouted",
        ))

    circuit = grid.placement.circuit
    for pair in circuit.symmetry_pairs:
        route_b = result.routes.get(pair.net_b)
        if route_b is not None and not route_b.symmetric_ok:
            violations.append(DrcViolation(
                kind="symmetry", nets=(pair.net_a, pair.net_b),
                detail=f"pair ({pair.net_a}, {pair.net_b}) routed asymmetrically",
            ))
    return violations
