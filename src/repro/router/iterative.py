"""Constraint-aware iterative routing (the paper's step (1), after [16]).

The router processes nets in criticality order — symmetric pairs first, then
signal nets by weight, then bias, then supplies.  Multi-terminal nets are
decomposed into 2-pin connections along a minimum spanning tree of their
access points.  Failed or conflicting nets trigger PathFinder-style
negotiation: the failing net routes in soft mode over other nets, the nets
it crossed are ripped up and re-queued, and history costs grow on the
contested cells.

Routing guidance enters through the cost function: each 2-pin connection is
routed with the blend of its endpoint access points' guidance vectors
(Section 3.2: "routing guidance C are honored via penalties in the cost
function along different directions for different pin access points").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.netlist.nets import Net, NetType
from repro.obs import NULL_CONTEXT, RunContext
from repro.reliability.faults import maybe_inject
from repro.router.astar import AStarRouter, CostParams
from repro.router.costfield import CostState
from repro.router.grid import FREE, GridNode, RoutingGrid
from repro.router.guidance import AccessPoint, RoutingGuidance
from repro.router.result import NetRoute, RoutingResult
from repro.router.symmetry import mirror_route


@dataclass
class RouterConfig:
    """Iterative router knobs.

    Attributes:
        cost: A* cost parameters.
        max_iterations: rip-up-and-reroute rounds before giving up.
        history_increment: history cost added to contested cells per round.
        max_expansions: A* search budget per connection.
        workers: must be 0.  Routing is one serial rip-up loop; the
            field only keeps ``RouterConfig(workers=0)`` callers working.
    """

    cost: CostParams = field(default_factory=CostParams)
    max_iterations: int = 8
    history_increment: float = 2.0
    max_expansions: int = 200_000
    workers: int = 0

    def __post_init__(self) -> None:
        if self.workers != 0:
            raise ValueError(
                f"RouterConfig.workers must be 0, got {self.workers}: "
                f"net-parallel routing was removed and the router is serial")


#: Net ordering classes: lower routes earlier.
_TYPE_PRIORITY = {
    NetType.INPUT: 0,
    NetType.OUTPUT: 0,
    NetType.SIGNAL: 1,
    NetType.CLOCK: 1,
    NetType.BIAS: 2,
    NetType.POWER: 3,
    NetType.GROUND: 3,
}

#: Face connectivity (+-x, +-y, +-z): the moves every A* engine makes.
_FACE_NEIGHBOURS = ndimage.generate_binary_structure(3, 1)


class _Components:
    """Face-connected components of the cells a hard search may enter.

    ``labels`` is a padded flat list (the cost lists' layout): the free
    cells and the net's own are labelled from 1, blocked, foreign and
    border cells 0, so a cell's six neighbours need no bounds checks.
    """

    __slots__ = ("labels", "nyp", "nlp")

    def __init__(self, labels: list, nyp: int, nlp: int) -> None:
        self.labels = labels
        self.nyp = nyp
        self.nlp = nlp

    def label(self, cell: GridNode) -> int:
        """Component of one cell; 0 when a hard search cannot enter it."""
        return self.labels[((cell[0] + 1) * self.nyp + cell[1] + 1)
                           * self.nlp + cell[2] + 1]

    def entered(self, cells) -> set[int]:
        """Components a search from ``cells`` enters.

        A search pushes its sources whether or not they are passable, and
        from each one only its passable neighbours, so it can enter the
        components of its sources and of their face neighbours.
        """
        labels, nyp, nlp = self.labels, self.nyp, self.nlp
        dx = nyp * nlp
        found = set()
        for x, y, layer in cells:
            node = ((x + 1) * nyp + y + 1) * nlp + layer + 1
            found.update((labels[node], labels[node + dx],
                          labels[node - dx], labels[node + nlp],
                          labels[node - nlp], labels[node + 1],
                          labels[node - 1]))
        found.discard(0)
        return found


class IterativeRouter:
    """Routes a whole circuit on a grid, honoring symmetry and guidance."""

    def __init__(
        self,
        grid: RoutingGrid,
        guidance: RoutingGuidance | None = None,
        config: RouterConfig | None = None,
        obs: RunContext | None = None,
    ) -> None:
        self.grid = grid
        self.guidance = guidance or RoutingGuidance()
        self.config = config or RouterConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.astar = AStarRouter(grid, self.config.cost)
        self.circuit = grid.placement.circuit
        # The engine's live cost lists, only while route_all runs.
        self._costs: CostState | None = None

    # -- public API ---------------------------------------------------------------

    def route_all(self) -> RoutingResult:
        """Route every net with >= 2 terminals; returns the full solution.

        With an enabled obs context, every routing attempt emits a
        ``route.net`` span (outcome ``ok`` / ``mirrored`` / ``failed``;
        ``unreachable=n`` when the attempt skipped n hard searches), and
        every routed net adds its A* expansions to
        ``route_expansions_total{mode=...}`` and its frontier batches to
        the ``route_frontier_batch`` histogram.

        The engine's cost lists are built once per call and kept live:
        each commit, rip-up and history bump rewrites only the cells it
        changes, and each net's attempt opens that net's own cells.  An
        engine whose :meth:`~repro.router.astar.AStarRouter.cost_state`
        is None reads the grid itself and gets no lists.

        Raises :class:`~repro.reliability.errors.RoutingError` under an
        active fault-injection plan for the ``"routing"`` stage.
        """
        maybe_inject("routing")
        self._costs = self.astar.cost_state()
        try:
            return self._route_all()
        finally:
            self._costs = None

    def _route_all(self) -> RoutingResult:
        result = RoutingResult()
        queue: list[str] = self._net_order()
        routed: dict[str, NetRoute] = {}
        mirrored_from: dict[str, str] = self._mirror_partners()
        iterations = 0
        while queue and iterations < self.config.max_iterations:
            iterations += 1
            requeue: list[str] = []
            for net_name in queue:
                if net_name in routed:
                    continue
                with self.obs.span("route.net", net=net_name,
                                   iteration=iterations) as span:
                    partner = mirrored_from.get(net_name)
                    if partner is not None and partner in routed:
                        # Try exact mirror of the already-routed left partner.
                        mirror = mirror_route(self.grid, routed[partner],
                                              net_name)
                        if mirror is not None:
                            self._commit(mirror)
                            routed[net_name] = mirror
                            span.set(outcome="mirrored")
                            continue
                    route, conflicts, unreachable = (
                        self._route_net_observed(net_name))
                    if unreachable:
                        span.set(unreachable=unreachable)
                    if route is None:
                        span.set(outcome="failed")
                        requeue.append(net_name)
                        continue
                    if conflicts:
                        span.set(conflicts=len(conflicts))
                        # Sorted for cross-process determinism (set order
                        # varies with string hash randomization).
                        for victim in sorted(conflicts):
                            if victim in routed:
                                self._rip_up(routed.pop(victim))
                                requeue.append(victim)
                    if partner is not None and partner not in routed:
                        route.symmetric_ok = False
                    self._commit(route)
                    routed[net_name] = route
            queue = requeue

        # Mark right-side nets that had to route independently.
        for right, left in mirrored_from.items():
            right_route = routed.get(right)
            left_route = routed.get(left)
            if right_route is None or left_route is None:
                continue
            mirrored = {self.grid.mirror_cell(c) for c in left_route.cells()}
            right_route.symmetric_ok = mirrored == right_route.cells()

        result.routes = routed
        result.iterations = iterations
        result.failed_nets = sorted(
            n for n in self._routable_names() if n not in routed
        )
        return result

    # -- ordering -------------------------------------------------------------------

    def _routable_names(self) -> list[str]:
        return [n.name for n in self.circuit.nets.values() if n.degree >= 2]

    def _net_order(self) -> list[str]:
        symmetric = self.circuit.symmetric_net_names()

        def sort_key(net: Net) -> tuple:
            prio = _TYPE_PRIORITY.get(net.net_type, 2)
            sym_first = 0 if net.name in symmetric or net.self_symmetric else 1
            return (prio, sym_first, -net.weight, net.name)

        nets = [self.circuit.net(n) for n in self._routable_names()]
        ordered = sorted(nets, key=sort_key)

        # Keep symmetry pairs adjacent, left net first.
        names: list[str] = []
        for net in ordered:
            if net.name in names:
                continue
            names.append(net.name)
            pair = self.circuit.symmetry_pair_of(net.name)
            if pair is not None:
                other = pair.partner(net.name)
                if other not in names and other in {n.name for n in nets}:
                    names.append(other)
        return names

    def _mirror_partners(self) -> dict[str, str]:
        """Map right-side net -> left-side net for each symmetry pair.

        "Left" is whichever net routes first per :meth:`_net_order`.
        """
        order = {name: i for i, name in enumerate(self._net_order())}
        partners: dict[str, str] = {}
        for pair in self.circuit.symmetry_pairs:
            a, b = pair.net_a, pair.net_b
            if a not in order or b not in order:
                continue
            first, second = (a, b) if order[a] < order[b] else (b, a)
            partners[second] = first
        return partners

    # -- single-net routing -----------------------------------------------------------

    def _route_net_observed(self, net_name: str
                            ) -> tuple[NetRoute | None, set[str], int]:
        """:meth:`_route_net` plus its per-net expansion and batch metrics."""
        astar = self.astar
        before = dict(astar.expansions_by_mode)
        astar.take_batch_window()
        costs = self._costs
        if costs is not None:
            costs.open_net(net_name)
        route, conflicts, unreachable = self._route_net(net_name)
        if costs is not None:
            costs.close_net()
        for mode in sorted(astar.expansions_by_mode):
            count = astar.expansions_by_mode[mode] - before.get(mode, 0)
            if count:
                self.obs.counter("route_expansions_total",
                                 mode=mode).inc(count)
        batch = astar.take_batch_window()
        if batch["count"]:
            self.obs.histogram("route_frontier_batch").merge_summary(
                int(batch["count"]), batch["sum"],
                batch["min"], batch["max"])
        return route, conflicts, unreachable

    def _route_net(self, net_name: str
                   ) -> tuple[NetRoute | None, set[str], int]:
        """Route one net; returns (route, nets ripped through, unreachable).

        Each connection first tries hard-blocked routing; when that fails,
        it falls back to soft (negotiation) mode and reports the nets
        whose cells the path crosses so the caller can rip them up.

        A hard search whose target lies in no hard-passable component its
        sources can enter would flood that region and return None, so it
        is skipped: the connection goes straight to soft mode, and
        ``unreachable`` counts the skips.  The skip is exact.  The hard
        search only ever pushes cells of those components, and one
        labelling serves the whole attempt, because occupancy changes
        only at commit and rip-up (a soft fallback raises history only).
        Paths, failures and rip-ups are those of running every search.
        """
        aps = self.grid.access_points[net_name]
        route = NetRoute(net=net_name, access_points=aps)
        if len(aps) < 2:
            return route, set(), 0

        conflicts: set[str] = set()
        tree_cells: set[GridNode] = {aps[0].cell}
        remaining = list(self._mst_order(aps))
        components = self._hard_components(net_name)
        entered = (set() if components is None
                   else components.entered(tree_cells))
        unreachable = 0
        costs = self._costs
        net_mean = self.guidance.net_vector(aps)
        for target_ap in remaining:
            if target_ap.cell in tree_cells:
                continue
            guid = self._connection_guidance(target_ap, net_mean)
            path = None
            if (components is not None
                    and components.label(target_ap.cell) not in entered):
                unreachable += 1
            else:
                path = self.astar.route_connection(
                    net_name, tree_cells, target_ap.cell, guidance_vec=guid,
                    soft=False, max_expansions=self.config.max_expansions,
                    costs=costs,
                )
            if path is None:
                path = self.astar.route_connection(
                    net_name, tree_cells, target_ap.cell, guidance_vec=guid,
                    soft=True, max_expansions=self.config.max_expansions,
                    costs=costs,
                )
                if path is None:
                    return None, conflicts, unreachable
                conflicts |= self._bump_history(net_name, path)
            route.paths.append(path)
            tree_cells.update(path)
            if components is not None:
                entered |= components.entered(path)
        return route, conflicts, unreachable

    def _hard_components(self, net_name: str) -> _Components | None:
        """Face-connected components of the cells a hard search may enter.

        Those cells are the free ones and the net's own.  An override
        returning None runs every hard search (the flooding oracle of the
        router tests).
        """
        grid = self.grid
        occ = grid.occupancy
        passable = (occ == FREE) | (occ == grid.net_index[net_name])
        padded = np.zeros((grid.nx + 2, grid.ny + 2, grid.num_layers + 2),
                          dtype=np.int32)
        ndimage.label(passable, structure=_FACE_NEIGHBOURS,
                      output=padded[1:-1, 1:-1, 1:-1])
        return _Components(padded.reshape(-1).tolist(), grid.ny + 2,
                           grid.num_layers + 2)

    def _mst_order(self, aps: list[AccessPoint]) -> list[AccessPoint]:
        """Order terminals by nearest-neighbour growth from the first AP."""
        if len(aps) <= 1:
            return []
        pending = list(aps[1:])
        anchor_cells = [aps[0].cell]
        ordered: list[AccessPoint] = []
        while pending:
            best_i, best_d = 0, float("inf")
            for i, ap in enumerate(pending):
                d = min(
                    abs(ap.cell[0] - c[0]) + abs(ap.cell[1] - c[1])
                    for c in anchor_cells
                )
                if d < best_d:
                    best_i, best_d = i, d
            nxt = pending.pop(best_i)
            ordered.append(nxt)
            anchor_cells.append(nxt.cell)
        return ordered

    def _connection_guidance(
        self, target_ap: AccessPoint, net_mean: np.ndarray
    ) -> np.ndarray:
        """Blend of the target AP's guidance and the net-mean guidance."""
        target_vec = self.guidance.get(target_ap.key)
        return 0.5 * (net_mean + target_vec)

    # -- occupancy management ------------------------------------------------------------

    def _bump_history(self, net_name: str, path) -> set[str]:
        """Raise history on the path's cells other nets hold.

        Returns the nets holding them: the ones a soft path ripped through.
        """
        grid = self.grid
        owners: set[str] = set()
        bumped = []
        for cell in path:
            owner = grid.owner(cell)
            if owner >= 0 and grid.net_names[owner] != net_name:
                owners.add(grid.net_names[owner])
                grid.history[cell] += self.config.history_increment
                bumped.append(cell)
        if self._costs is not None:
            self._costs.refresh_cells(bumped)
        return owners

    def _commit(self, route: NetRoute) -> None:
        cells = route.cells()
        for cell in cells:
            self.grid.claim(cell, route.net)
        if self._costs is not None:
            self._costs.refresh_cells(cells)

    def _rip_up(self, route: NetRoute) -> None:
        cells = route.cells()
        self.grid.release_net(route.net)
        route.paths.clear()
        if self._costs is not None:
            self._costs.refresh_cells(cells)
