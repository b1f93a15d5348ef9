"""Tests for the iterative router, symmetry routing, and the DRC check."""

import numpy as np
import pytest

from repro.netlist import build_benchmark
from repro.placement import place_benchmark
from repro.router import (
    IterativeRouter,
    RouterConfig,
    RoutingGrid,
    uniform_guidance,
)
from repro.router.guidance import RoutingGuidance, random_guidance
from repro.router.symmetry import mirror_path, mirror_route
from tests.router_oracle import check_drc


class TestRouteAll:
    def test_all_nets_routed(self, ota1_routed):
        result, grid = ota1_routed
        assert result.success
        routable = {n.name for n in grid.placement.circuit.nets.values()
                    if n.degree >= 2}
        assert set(result.routes) == routable

    def test_every_net_connected(self, ota1_routed):
        result, _ = ota1_routed
        for route in result.routes.values():
            assert route.is_connected(), route.net

    def test_no_overlaps(self, ota1_routed):
        result, _ = ota1_routed
        assert result.overlaps() == {}

    def test_no_drc_violations(self, ota1_routed):
        result, grid = ota1_routed
        hard = [v for v in check_drc(result, grid)
                if v.kind in ("short", "open", "bounds", "unrouted")]
        assert hard == []

    def test_wirelength_positive(self, ota1_routed):
        result, _ = ota1_routed
        assert result.total_wirelength() > 0
        assert result.total_vias() > 0

    def test_deterministic(self, ota1_placement, tech):
        results = []
        for _ in range(2):
            grid = RoutingGrid(ota1_placement, tech)
            results.append(IterativeRouter(grid).route_all())
        wl = [r.total_wirelength() for r in results]
        assert wl[0] == wl[1]

    def test_telescopic_routes_clean(self, ota3, tech):
        placement = place_benchmark(ota3, variant="A", iterations=100)
        grid = RoutingGrid(placement, tech)
        result = IterativeRouter(grid).route_all()
        assert result.success
        assert result.overlaps() == {}


class TestSymmetry:
    def test_symmetric_pairs_mirrored_with_neutral_guidance(self, ota1_routed):
        result, grid = ota1_routed
        circuit = grid.placement.circuit
        routed_pairs = [
            pair for pair in circuit.symmetry_pairs
            if pair.net_a in result.routes and pair.net_b in result.routes
        ]
        assert routed_pairs
        mirrored = [
            pair for pair in routed_pairs
            if result.routes[pair.net_b].symmetric_ok
            or result.routes[pair.net_a].symmetric_ok
        ]
        assert mirrored, "at least one pair should route symmetrically"

    def test_mirror_path_involution(self, ota1_grid):
        path = [(3, 3, 0), (4, 3, 0), (4, 4, 0), (4, 4, 1)]
        assert mirror_path(ota1_grid, mirror_path(ota1_grid, path)) == path

    def test_mirror_route_lands_on_partner_aps(self, ota1_routed):
        result, grid = ota1_routed
        left = result.routes["NET1L"]
        right = result.routes["NET1R"]
        if right.symmetric_ok:
            mirrored_cells = {grid.mirror_cell(c) for c in left.cells()}
            assert right.cells() == mirrored_cells

    def test_mirror_route_rejects_blocked(self, fresh_grid):
        router = IterativeRouter(fresh_grid)
        result_left = router._route_net("NET1L")[0]
        assert result_left is not None
        router._commit(result_left)
        # Block the entire mirror image on all layers.
        for cell in result_left.cells():
            m = fresh_grid.mirror_cell(cell)
            if fresh_grid.in_bounds(m) and fresh_grid.owner(m) == -1:
                fresh_grid.occupancy[m] = -2
        assert mirror_route(fresh_grid, result_left, "NET1R") is None


class TestGuidanceIntegration:
    def test_guidance_changes_routing(self, ota1_placement, tech, rng):
        grid_a = RoutingGrid(ota1_placement, tech)
        neutral = IterativeRouter(grid_a, uniform_guidance()).route_all()
        keys = [ap.key for aps in grid_a.access_points.values() for ap in aps]
        grid_b = RoutingGrid(ota1_placement, tech)
        guided = IterativeRouter(
            grid_b, random_guidance(keys, rng)).route_all()
        assert neutral.total_wirelength() != guided.total_wirelength() or (
            {n: r.cells() for n, r in neutral.routes.items()}
            != {n: r.cells() for n, r in guided.routes.items()}
        )

    def test_extreme_guidance_still_routes(self, ota1_placement, tech):
        grid = RoutingGrid(ota1_placement, tech)
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        guidance = RoutingGuidance()
        for i, key in enumerate(keys):
            vec = np.array([3.9, 0.05, 1.0]) if i % 2 else np.array([0.05, 3.9, 1.0])
            guidance.set(key, vec)
        result = IterativeRouter(grid, guidance).route_all()
        assert result.success
        assert result.overlaps() == {}


class TestPostProcess:
    def test_clean_result_has_no_hard_violations(self, ota1_routed):
        result, grid = ota1_routed
        kinds = {v.kind for v in check_drc(result, grid)}
        assert not kinds & {"short", "open", "bounds", "unrouted"}

    def test_detects_injected_short(self, ota1_placement, tech):
        grid = RoutingGrid(ota1_placement, tech)
        result = IterativeRouter(grid).route_all()
        # Inject a fake overlap between the first two routed nets.
        names = sorted(result.routes)
        a, b = names[0], names[1]
        shared = next(iter(result.routes[a].cells()))
        result.routes[b].paths.append([shared])
        violations = check_drc(result, grid)
        assert any(v.kind == "short" for v in violations)

    def test_detects_open(self, ota1_placement, tech):
        grid = RoutingGrid(ota1_placement, tech)
        result = IterativeRouter(grid).route_all()
        multi = next(n for n, r in result.routes.items() if len(r.paths) >= 2)
        result.routes[multi].paths.pop()
        violations = check_drc(result, grid)
        assert any(v.kind == "open" and multi in v.nets for v in violations)

    def test_detects_unrouted(self, ota1_routed):
        result, grid = ota1_routed
        import copy
        broken = copy.copy(result)
        broken.failed_nets = ["VBN"]
        assert any(v.kind == "unrouted" for v in check_drc(broken, grid))


class TestRouterConfig:
    def test_low_iteration_budget_may_fail_but_not_crash(
        self, ota1_placement, tech
    ):
        grid = RoutingGrid(ota1_placement, tech)
        config = RouterConfig(max_iterations=1, max_expansions=50)
        result = IterativeRouter(grid, config=config).route_all()
        # With a tiny search budget some nets fail; the result reports them.
        assert isinstance(result.failed_nets, list)

    def test_priority_order_critical_first(self, fresh_grid):
        router = IterativeRouter(fresh_grid)
        order = router._net_order()
        assert order.index("VOUTP") < order.index("VDD")
        assert order.index("NET1L") < order.index("VBN")
        assert order.index("VBN") < order.index("VSS")
