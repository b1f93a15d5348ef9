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
from repro.router.costfield import build_add_core
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

#: Offsets of a cell and its six face neighbours.
_CELL_AND_NEIGHBOURS = np.argwhere(_FACE_NEIGHBOURS) - 1


def _components_entered(labels: np.ndarray, cells) -> set[int]:
    """Labels of the hard-passable components a search from ``cells`` enters.

    A search pushes its sources whether or not they are passable, and
    from each one only its passable neighbours, so it can enter the
    components of its sources and of their in-bounds face neighbours.
    """
    near = (np.array(list(cells), dtype=np.int64)[:, None, :]
            + _CELL_AND_NEIGHBOURS).reshape(-1, 3)
    near = near[np.all((near >= 0) & (near < labels.shape), axis=1)]
    found = labels[near[:, 0], near[:, 1], near[:, 2]]
    return set(found[found > 0].tolist())


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

    # -- public API ---------------------------------------------------------------

    def route_all(self) -> RoutingResult:
        """Route every net with >= 2 terminals; returns the full solution.

        With an enabled obs context, every routing attempt emits a
        ``route.net`` span (outcome ``ok`` / ``mirrored`` / ``failed``;
        ``unreachable=n`` when the attempt skipped n hard searches), and
        every routed net adds its A* expansions to
        ``route_expansions_total{mode=...}`` and its frontier batches to
        the ``route_frontier_batch`` histogram.

        Raises :class:`~repro.reliability.errors.RoutingError` under an
        active fault-injection plan for the ``"routing"`` stage.
        """
        maybe_inject("routing")
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
        route, conflicts, unreachable = self._route_net(net_name)
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
        labels = self._hard_components(net_name)
        entered = (set() if labels is None
                   else _components_entered(labels, tree_cells))
        unreachable = 0
        # The hard-mode additive cost field only depends on (net, grid
        # state); reuse it across this net's connections, rebuilding after
        # any history bump from a soft fallback.
        hard_core = None
        net_mean = self.guidance.net_vector(aps)
        for target_ap in remaining:
            if target_ap.cell in tree_cells:
                continue
            guid = self._connection_guidance(target_ap, net_mean)
            path = None
            if (labels is not None
                    and int(labels[target_ap.cell]) not in entered):
                unreachable += 1
            else:
                if hard_core is None:
                    hard_core = build_add_core(
                        self.grid, net=net_name, soft=False,
                        present_penalty=self.config.cost.present_penalty,
                        history_weight=self.config.cost.history_weight)
                path = self.astar.route_connection(
                    net_name, tree_cells, {target_ap.cell}, guidance_vec=guid,
                    soft=False, max_expansions=self.config.max_expansions,
                    add_core=hard_core,
                )
            if path is None:
                path = self.astar.route_connection(
                    net_name, tree_cells, {target_ap.cell}, guidance_vec=guid,
                    soft=True, max_expansions=self.config.max_expansions,
                )
                if path is None:
                    return None, conflicts, unreachable
                for cell in path:
                    owner = self.grid.owner(cell)
                    if owner >= 0 and self.grid.net_names[owner] != net_name:
                        conflicts.add(self.grid.net_names[owner])
                        self.grid.history[cell] += self.config.history_increment
                hard_core = None
            route.paths.append(path)
            tree_cells.update(path)
            if labels is not None:
                entered |= _components_entered(labels, path)
        return route, conflicts, unreachable

    def _hard_components(self, net_name: str) -> np.ndarray | None:
        """Face-connected components of the cells a hard search may enter.

        Those cells are the free ones and the net's own; they are labelled
        from 1, blocked and foreign cells 0.  An override returning None
        runs every hard search (the flooding oracle of the router tests).
        """
        occ = self.grid.occupancy
        passable = (occ == FREE) | (occ == self.grid.net_index[net_name])
        labels, _ = ndimage.label(passable, structure=_FACE_NEIGHBOURS)
        return labels

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

    def _commit(self, route: NetRoute) -> None:
        for cell in route.cells():
            self.grid.claim(cell, route.net)

    def _rip_up(self, route: NetRoute) -> None:
        self.grid.release_net(route.net)
        route.paths.clear()
