"""Equivalence and unit tests for the A* engines.

The router must be *bit-identical* to the seed router
(``tests/router_oracle.py``): same paths, same expansion counts, on both
engines and for every guidance vector.  These tests pin that contract —
the bucket queue in isolation, engine-vs-seed equivalence under
hypothesis-generated obstacles and guidance, the heuristic's optimality
against Dijkstra (the seed router with its heuristic patched to 0),
whole-circuit seed-vs-shipped identity, quantization detection, and the
router's observability surface.  The scalar engine runs whenever a
connection's costs do not quantize, so the tests force it by patching
``CostField.quantize`` to return None.  The iterative router skips hard
searches whose target is unreachable; the skip verdict is held to the
engines' own searches, and the whole router to the flooding oracle that
runs every search.
"""

import contextlib
import copy
import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import build_benchmark, place_benchmark
from repro.obs import RunContext
from repro.obs.metrics import MetricsRegistry
from repro.reliability.errors import RoutingError
from repro.router import (
    BLOCKED,
    FREE,
    AStarRouter,
    BucketQueue,
    CostField,
    IterativeRouter,
    NetRoute,
    RouterConfig,
    RoutingGrid,
)
from repro.router.astar import _STAMP_MAX, CostParams
from repro.router.guidance import RoutingGuidance, random_guidance
from repro.router.pqueue import BucketQueue as PQBucketQueue
from tests.router_oracle import (
    FloodingRouter,
    SeedAStarRouter,
    SeedEngineRouter,
)


def _free_cell(grid, layer=1, start=(0, 0)):
    for ix in range(start[0], grid.nx):
        for iy in range(start[1], grid.ny):
            if grid.occupancy[ix, iy, layer] == -1:
                return (ix, iy, layer)
    raise AssertionError("no free cell found")


@contextlib.contextmanager
def _scalar_engine():
    """Run every connection on the scalar engine: no cost field quantizes."""
    with mock.patch.object(CostField, "quantize", lambda self: None):
        yield


def _pop_batch(q):
    """Retire the lowest bucket as ``(f, g, nodes)``, as the router's
    expansion loop does with the queue's public fields."""
    key = heapq.heappop(q.key_heap)
    f, g = divmod(key, q.modulus)
    return f, g, q.buckets.pop(key)


class TestBucketQueue:
    def test_pops_in_priority_order(self):
        q = BucketQueue(modulus=100)
        q.push(5, 2, 11)
        q.push(3, 1, 22)
        q.push(5, 1, 33)
        assert _pop_batch(q) == (3, 1, [22])
        assert _pop_batch(q) == (5, 1, [33])
        assert _pop_batch(q) == (5, 2, [11])
        assert not q.key_heap and not q.buckets

    def test_g_breaks_f_ties(self):
        q = BucketQueue(modulus=10)
        q.push(4, 9, 1)
        q.push(4, 0, 2)
        f, g, nodes = _pop_batch(q)
        assert (f, g, nodes) == (4, 0, [2])

    def test_batch_groups_equal_keys_in_push_order(self):
        q = BucketQueue(modulus=64)
        for node in (7, 3, 9):
            q.push(2, 5, node)
        assert q.key_heap == [2 * 64 + 5]
        assert _pop_batch(q) == (2, 5, [7, 3, 9])

    def test_invalid_modulus_rejected(self):
        with pytest.raises(ValueError, match="modulus"):
            BucketQueue(modulus=0)

    def test_reexported_from_package(self):
        assert BucketQueue is PQBucketQueue


class TestInputValidation:
    """Satellite (a): poisoned inputs raise RoutingError, shapes ValueError."""

    def _route(self, grid, **kwargs):
        router = AStarRouter(grid)
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        return router.route_connection(net, {src}, dst, **kwargs)

    @pytest.mark.parametrize("bad", [
        np.array([np.nan, 1.0, 1.0]),
        np.array([1.0, np.inf, 1.0]),
        np.array([1.0, 1.0, -0.5]),
    ])
    def test_poisoned_guidance_raises_routing_error(self, fresh_grid, bad):
        with pytest.raises(RoutingError):
            self._route(fresh_grid, guidance_vec=bad)

    def test_guidance_shape_stays_value_error(self, fresh_grid):
        with pytest.raises(ValueError, match="shape"):
            self._route(fresh_grid, guidance_vec=np.array([1.0, 1.0]))

    def test_routing_error_reaches_reference_engine_too(self, fresh_grid):
        router = SeedAStarRouter(fresh_grid)
        net = fresh_grid.net_names[0]
        src = _free_cell(fresh_grid, layer=1)
        with pytest.raises(RoutingError):
            router.route_connection(net, {src}, src,
                                    guidance_vec=np.array([np.nan, 1, 1]))


def _route_one(grid, engine, src, dst, guid, soft):
    """One connection to ``dst`` on ``engine``: "seed", "auto" or
    "scalar"."""
    router = (SeedAStarRouter if engine == "seed" else AStarRouter)(grid)
    forced = (_scalar_engine() if engine == "scalar"
              else contextlib.nullcontext())
    with forced:
        path = router.route_connection(grid.net_names[0], {src}, dst,
                                       guidance_vec=guid, soft=soft)
    return path, router.expansions_total, _g_scores(router, grid)


def _g_scores(router, grid):
    """The last search's g-score of every cell it pushed, keyed by cell."""
    if isinstance(router, SeedAStarRouter):
        state = router._get_ref_state()
        nodes = np.flatnonzero(state.stamp == state.generation)
        shape = grid.occupancy.shape
        offset = 0
    else:
        state = router._get_list_state()
        nodes = np.flatnonzero(np.array(state.stamp) == state.generation)
        shape = (grid.nx + 2, grid.ny + 2, grid.num_layers + 2)
        offset = 1  # padded layout
    cells = zip(*(axis - offset
                  for axis in np.unravel_index(nodes, shape)))
    return {tuple(int(v) for v in cell): state.g[node]
            for cell, node in zip(cells, nodes.tolist())}


class TestEngineEquivalence:
    """Both engines return the seed router's exact path and expansion
    count, under randomized obstacles, guidance, history, and mode; the
    scalar engine also leaves bitwise the seed's g-scores, so its float
    sums associate as the seed's do."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blocks=st.integers(0, 60),
        gx=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 0.3, 1.1]),
        gy=st.sampled_from([0.25, 1.0, 2.0, 0.7]),
        gz=st.sampled_from([0.5, 1.0, 2.0, 1.3]),
        soft=st.booleans(),
        history=st.booleans(),
        wires=st.booleans(),
    )
    def test_engines_match_reference(self, fresh_grid, ota1_routed, seed,
                                     n_blocks, gx, gy, gz, soft, history,
                                     wires):
        grid = fresh_grid
        saved = grid.occupancy.copy()
        saved_history = grid.history.copy()
        try:
            rng = np.random.default_rng(seed)
            if wires:  # other nets' wires: soft mode pays present penalties
                grid.occupancy[:] = ota1_routed[1].occupancy
            if history:
                grid.history[:] = rng.uniform(0.0, 3.0, grid.history.shape)
            free = np.argwhere(grid.occupancy == -1)
            picks = rng.choice(len(free), size=min(n_blocks, len(free) - 2),
                               replace=False)
            for idx in picks:
                x, y, layer = free[idx]
                grid.occupancy[x, y, layer] = BLOCKED
            still_free = np.argwhere(grid.occupancy == -1)
            picks = rng.choice(len(still_free), size=2, replace=False)
            src, dst = (tuple(int(v) for v in still_free[i])
                        for i in picks)
            guid = np.array([gx, gy, gz])

            ref_path, ref_exp, ref_g = _route_one(grid, "seed", src, dst,
                                                  guid, soft)
            for engine in ("auto", "scalar"):
                path, exp, g = _route_one(grid, engine, src, dst, guid,
                                          soft)
                assert path == ref_path, engine
                assert exp == ref_exp, engine
                if engine == "scalar":  # bucketed g-scores are integers
                    assert g == ref_g
        finally:
            grid.occupancy[:] = saved
            grid.history[:] = saved_history

    def test_generation_wraparound_is_harmless(self, fresh_grid):
        """uint32 stamp wraparound resets stamps instead of aliasing."""
        grid = fresh_grid
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 3, 0))
        expected = AStarRouter(grid).route_connection(net, {src}, dst)
        assert expected is not None

        for router_cls, state_getter in (
            (AStarRouter, AStarRouter._get_list_state),
            (SeedAStarRouter, SeedAStarRouter._get_ref_state),
        ):
            router = router_cls(grid)
            assert router.route_connection(net, {src}, dst) == expected
            state = state_getter(router)
            state.generation = _STAMP_MAX
            # Next search wraps: stamps reset to 0, generation restarts at
            # 1, and the stale stamps from the first search cannot alias.
            assert router.route_connection(net, {src}, dst) == expected
            assert state.generation == 1


def _small_grid(template, occupancy):
    """``template`` cut down to ``occupancy``'s shape, with zero history."""
    grid = copy.copy(template)
    grid.nx, grid.ny, grid.num_layers = occupancy.shape
    grid.occupancy = occupancy
    grid.history = np.zeros(occupancy.shape)
    return grid


def _skip_verdict(grid, net, sources, target):
    """The iterative router's verdict: True when it skips the hard search."""
    components = IterativeRouter(grid)._hard_components(net)
    return components.label(target) not in components.entered(sources)


def _hard_searches(grid, net, sources, target):
    """Unbounded hard-mode search on every engine, keyed by engine."""
    def search(router):
        return router.route_connection(net, set(sources), target,
                                       soft=False, max_expansions=10**9)

    paths = {"seed": search(SeedAStarRouter(grid)),
             "auto": search(AStarRouter(grid))}
    with _scalar_engine():
        paths["scalar"] = search(AStarRouter(grid))
    return paths


class TestReachabilityVerdict:
    """The router skips a hard search exactly when that search, run
    without an expansion budget, would return None — on every engine."""

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 7), st.integers(2, 7),
                        st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        p_blocked=st.floats(0.0, 0.5),
        p_foreign=st.floats(0.0, 0.5),
        n_sources=st.integers(1, 4),
    )
    def test_verdict_matches_hard_search(self, ota1_grid, shape, seed,
                                         p_blocked, p_foreign, n_sources):
        net, other = ota1_grid.net_names[:2]
        own = ota1_grid.net_index[net]
        rng = np.random.default_rng(seed)
        draw = rng.random(shape)
        occ = np.full(shape, FREE, dtype=np.int32)
        occ[draw < p_blocked] = BLOCKED
        occ[(draw >= p_blocked) & (draw < p_blocked + p_foreign)] = (
            ota1_grid.net_index[other])
        occ[draw > 0.9] = own
        grid = _small_grid(ota1_grid, occ)
        # Sources and target are drawn from every kind of cell, so
        # foreign, blocked and own sources (and targets) all occur.
        total = occ.size
        picks = rng.permutation(total)[:min(n_sources, total - 1) + 1]
        cells = [tuple(int(v) for v in np.unravel_index(i, shape))
                 for i in picks]
        sources, target = cells[:-1], cells[-1]
        skipped = _skip_verdict(grid, net, sources, target)
        for engine, path in _hard_searches(grid, net, sources,
                                           target).items():
            assert (path is None) == skipped, engine

    @staticmethod
    def _open_grid(template):
        return _small_grid(template, np.full((5, 5, 3), FREE, dtype=np.int32))

    @staticmethod
    def _box_in(grid, cell, foreign):
        """Wall ``cell`` off on all six sides, alternating blockage kinds."""
        x, y, layer = cell
        around = [(x + 1, y, layer), (x - 1, y, layer), (x, y + 1, layer),
                  (x, y - 1, layer), (x, y, layer + 1), (x, y, layer - 1)]
        for i, nb in enumerate(around):
            grid.occupancy[nb] = BLOCKED if i % 2 else foreign

    def test_boxed_in_target_is_skipped(self, ota1_grid):
        net, other = ota1_grid.net_names[:2]
        grid = self._open_grid(ota1_grid)
        target = (2, 2, 1)
        grid.occupancy[target] = grid.net_index[net]
        self._box_in(grid, target, grid.net_index[other])
        assert _skip_verdict(grid, net, [(0, 0, 0)], target)
        for path in _hard_searches(grid, net, [(0, 0, 0)],
                                   target).values():
            assert path is None

    def test_boxed_in_source_is_skipped(self, ota1_grid):
        net, other = ota1_grid.net_names[:2]
        grid = self._open_grid(ota1_grid)
        source = (2, 2, 1)
        grid.occupancy[source] = grid.net_index[net]
        self._box_in(grid, source, grid.net_index[other])
        assert _skip_verdict(grid, net, [source], (4, 4, 2))
        for path in _hard_searches(grid, net, [source], (4, 4, 2)).values():
            assert path is None

    def test_foreign_source_next_to_target_component(self, ota1_grid):
        """A soft path's foreign cells become sources: impassable
        themselves, they still open their neighbours' components."""
        net, other = ota1_grid.net_names[:2]
        grid = self._open_grid(ota1_grid)
        grid.occupancy[2, :, :] = BLOCKED  # wall between x<2 and x>2
        gate = (2, 2, 1)
        grid.occupancy[gate] = grid.net_index[other]
        target = (4, 4, 2)
        left = (0, 0, 0)
        assert _skip_verdict(grid, net, [left], target)
        for path in _hard_searches(grid, net, [left], target).values():
            assert path is None
        assert not _skip_verdict(grid, net, [left, gate], target)
        paths = _hard_searches(grid, net, [left, gate], target)
        assert paths["seed"] is not None
        assert paths["seed"][0] == gate
        assert all(path == paths["seed"] for path in paths.values())


def _path_cost(field: CostField, path) -> float:
    """Accumulate a path's g: step costs plus entry costs."""
    costs = field.costs
    cost = 0.0
    for prev, cur in zip(path, path[1:]):
        if prev[2] != cur[2]:
            cost += field.via
        elif prev[1] != cur[1]:
            cost += field.step_y[cur[2] + 1]
        else:
            cost += field.step_x[cur[2] + 1]
        node = field.encode(cur)
        cost += (costs.hist[node] + costs.extra[node] if field.soft
                 else costs.hard[node])
    return cost


@contextlib.contextmanager
def _dijkstra_oracle():
    """The seed oracle with its heuristic patched to 0: plain Dijkstra."""
    zero = staticmethod(lambda targets, h_scale, via_cost:
                        lambda ix, iy, l: 0.0)
    with mock.patch.object(SeedAStarRouter, "_heuristic", zero):
        yield


_GUIDANCE_ENTRY = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
                            st.floats(0.2, 3.8))


class TestLayerAwareHeuristic:
    """The layer term ``|l - l_t| * via`` keeps the heuristic admissible:
    the shipped router finds a path as cheap as Dijkstra's and never
    expands more nodes, in hard and soft mode."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        guid=st.tuples(_GUIDANCE_ENTRY, _GUIDANCE_ENTRY, _GUIDANCE_ENTRY),
        soft=st.booleans(),
        history=st.booleans(),
    )
    def test_fewer_expansions_same_cost(self, fresh_grid, ota1_routed, seed,
                                        guid, soft, history):
        grid = fresh_grid
        # Other nets' wires make soft mode pay present penalties.
        grid.occupancy[:] = ota1_routed[1].occupancy
        rng = np.random.default_rng(seed)
        grid.history[:] = (rng.uniform(0.0, 3.0, grid.history.shape)
                           if history else 0.0)
        net = grid.net_names[0]
        own = grid.net_index[net]
        passable = np.argwhere((grid.occupancy == FREE)
                               | (grid.occupancy == own))
        picks = rng.choice(len(passable), size=2, replace=False)
        src, dst = (tuple(int(v) for v in passable[i]) for i in picks)
        guid = np.array(guid)

        shipped = AStarRouter(grid)
        path = shipped.route_connection(net, {src}, dst,
                                        guidance_vec=guid, soft=soft)
        dijkstra = SeedAStarRouter(grid)
        with _dijkstra_oracle():
            best = dijkstra.route_connection(net, {src}, dst,
                                             guidance_vec=guid, soft=soft)
        assert (path is None) == (best is None)
        assert shipped.expansions_total <= dijkstra.expansions_total
        if path is None:
            return
        assert path[0] == src and path[-1] == dst
        field = AStarRouter(grid).cost_state(net).cost_field(
            tuple(guid.tolist()), soft)
        assert _path_cost(field, path) == pytest.approx(
            _path_cost(field, best), rel=1e-12, abs=0.0)

    def test_engines_agree_across_layers(self, fresh_grid):
        """Both engines agree on a connection across every layer."""
        grid = fresh_grid
        net = grid.net_names[0]
        src = _free_cell(grid, layer=0)
        dst = _free_cell(grid, layer=grid.num_layers - 1,
                         start=(src[0] + 3, 0))
        a = AStarRouter(grid)
        b = AStarRouter(grid)
        path_a = a.route_connection(net, {src}, dst)
        with _scalar_engine():
            path_b = b.route_connection(net, {src}, dst)
        assert path_a == path_b
        assert a.expansions_by_mode == {"bucketed": a.expansions_total}
        assert b.expansions_by_mode == {"scalar": b.expansions_total}
        assert a.expansions_total == b.expansions_total


class TestQuantizationDetection:
    def _field(self, grid, *, guid=(1.0, 1.0, 1.0), via_cost=4.0,
               wire_cost=1.0):
        net = grid.net_names[0]
        params = CostParams(wire_cost=wire_cost, via_cost=via_cost)
        field = AStarRouter(grid, params).cost_state(net).cost_field(
            guid, soft=False)
        field.retarget(_free_cell(grid, layer=1))
        return field

    def test_dyadic_costs_quantize(self, fresh_grid):
        q = self._field(fresh_grid, guid=(1.5, 0.25, 2.0)).quantize()
        assert q is not None
        assert q.scale >= 1 and q.f_bound < 2**52
        assert q.impassable == q.f_bound + 1

    def test_non_dyadic_guidance_falls_back(self, fresh_grid):
        field = self._field(fresh_grid, guid=(1 / 3, 1.0, 1.0))
        assert field.quantize() is None
        # The no-quant verdict is cached, not re-probed.
        assert field.quantize() is None

    def test_zero_step_cost_falls_back(self, fresh_grid):
        """A zero-cost step would break the monotone-bucket invariant."""
        assert self._field(fresh_grid, via_cost=0.0).quantize() is None
        assert self._field(fresh_grid, wire_cost=0.0,
                           guid=(0.0, 1.0, 1.0)).quantize() is None

    def test_quant_core_survives_retarget(self, fresh_grid):
        field = self._field(fresh_grid)
        first = field.quantize()
        other = _free_cell(fresh_grid, layer=2, start=(3, 3))
        field.retarget(other)
        second = field.quantize()
        assert first is not None and second is not None
        assert second.scale == first.scale
        assert second.entry is first.entry  # target-independent parts reused


class TestCostFieldReuse:
    def test_field_cache_reused_across_targets(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        router = AStarRouter(grid)
        costs = router.cost_state(net)
        src = _free_cell(grid, layer=1)
        dst1 = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        dst2 = _free_cell(grid, layer=1, start=(src[0] + 4, 1))

        p1 = router.route_connection(net, {src}, dst1, costs=costs)
        p2 = router.route_connection(net, {src}, dst2, costs=costs)
        assert len(costs._fields) == 1  # same (guidance, mode) key

        fresh = AStarRouter(grid)
        assert p1 == fresh.route_connection(net, {src}, dst1)
        assert p2 == fresh.route_connection(net, {src}, dst2)

    def test_distinct_guidance_gets_distinct_fields(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        router = AStarRouter(grid)
        costs = router.cost_state(net)
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        router.route_connection(net, {src}, dst, costs=costs)
        router.route_connection(net, {src}, dst, costs=costs,
                                guidance_vec=np.array([2.0, 1.0, 1.0]))
        router.route_connection(net, {src}, dst, costs=costs, soft=True)
        assert len(costs._fields) == 3

    def test_state_must_have_the_net_open(self, fresh_grid):
        grid = fresh_grid
        net, other = grid.net_names[:2]
        router = AStarRouter(grid)
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        with pytest.raises(ValueError, match="open"):
            router.route_connection(net, {src}, dst,
                                    costs=router.cost_state(other))


def _bits(values) -> np.ndarray:
    """Bit patterns of a float list (``inf`` and signed zeros included)."""
    return np.array(values, dtype=np.float64).view(np.uint64)


_LIVE_STEPS = st.sampled_from(["commit", "rip_up", "bump", "open", "close"])


class TestLiveCostState:
    """The cost lists ``route_all`` keeps live equal a fresh snapshot of
    ``grid.occupancy`` and ``grid.history`` bitwise after every commit,
    rip-up, history bump and net open/close, the open net's own cells
    and the integer twins of the entry lists included."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), steps=st.lists(_LIVE_STEPS, min_size=1,
                                          max_size=14),
           increment=st.sampled_from([2.0, 0.5, 0.3]))
    def test_live_lists_match_snapshot(self, ota1_placement, tech, data,
                                       steps, increment):
        grid = RoutingGrid(ota1_placement, tech)
        router = IterativeRouter(
            grid, config=RouterConfig(history_increment=increment))
        costs = router._costs = router.astar.cost_state()
        # Integer twins at a fixed lattice and the cached entry terms,
        # built before any change.
        quantized = {soft: costs.quantized_entry(soft, 4, 10**9)
                     for soft in (False, True)}
        for soft in quantized:
            costs.entry_terms(soft)
        passable = [tuple(c) for c in
                    np.argwhere(grid.occupancy != BLOCKED).tolist()]
        anywhere = [tuple(c) for c in np.argwhere(
            np.ones(grid.occupancy.shape, dtype=bool)).tolist()]
        routed: dict = {}
        for step in steps:
            if step == "commit":
                free = [n for n in grid.net_names if n not in routed]
                net = data.draw(st.sampled_from(free))
                aps = grid.access_points[net]
                cells = data.draw(st.lists(st.sampled_from(passable),
                                           max_size=12))
                route = NetRoute(net=net, access_points=aps,
                                 paths=[[ap.cell for ap in aps] + cells])
                router._commit(route)
                routed[net] = route
            elif step == "rip_up" and routed:
                net = data.draw(st.sampled_from(sorted(routed)))
                router._rip_up(routed.pop(net))
            elif step == "bump":
                net = data.draw(st.sampled_from(grid.net_names))
                path = data.draw(st.lists(st.sampled_from(anywhere),
                                          max_size=12, unique=True))
                router._bump_history(net, path)
            elif step == "open" and costs.net is None:
                costs.open_net(data.draw(st.sampled_from(grid.net_names)))
            elif step == "close" and costs.net is not None:
                costs.close_net()

            snapshot = router.astar.cost_state(costs.net)
            for name in ("hist", "hard", "extra"):
                np.testing.assert_array_equal(
                    _bits(getattr(costs, name)),
                    _bits(getattr(snapshot, name)), err_msg=name)
            for soft, live in quantized.items():
                assert live == snapshot.quantized_entry(soft, 4, 10**9)
                assert costs.entry_terms(soft) == snapshot.entry_terms(soft)

    def test_route_all_keeps_no_state(self, fresh_grid):
        router = IterativeRouter(fresh_grid)
        router.route_all()
        assert router._costs is None


class TestWholeRouterIdentity:
    """Routing a whole OTA is bit-identical to the seed engine."""

    @staticmethod
    def _route(placement, tech, router_cls, guidance_seed):
        grid = RoutingGrid(placement, tech)
        guidance = RoutingGuidance()
        if guidance_seed is not None:
            keys = [ap.key for aps in grid.access_points.values()
                    for ap in aps]
            guidance = random_guidance(
                keys, np.random.default_rng(guidance_seed))
        router = router_cls(grid, guidance)
        result = router.route_all()
        paths = {name: tuple(tuple(p) for p in route.paths)
                 for name, route in result.routes.items()}
        return paths, result.failed_nets, router.astar.expansions_total

    @pytest.mark.parametrize("guidance_seed", [None, 7],
                             ids=["neutral", "guided"])
    def test_reference_matches_auto(self, ota1_placement, tech,
                                    guidance_seed):
        auto = self._route(ota1_placement, tech, IterativeRouter,
                           guidance_seed)
        reference = self._route(ota1_placement, tech, SeedEngineRouter,
                                guidance_seed)
        assert auto[0] and auto[2] > 0
        assert auto == reference

    def test_workers_must_be_zero(self):
        assert RouterConfig(workers=0).workers == 0
        with pytest.raises(ValueError, match="net-parallel"):
            RouterConfig(workers=2)


@pytest.fixture(scope="module")
def ota_placements():
    return {name: place_benchmark(build_benchmark(name), variant="A",
                                  seed=0, iterations=200)
            for name in ("OTA1", "OTA2", "OTA3")}


def _route_whole(router_cls, placement, tech, guidance_seed):
    """Route a whole OTA; returns the outcome and the expansion count."""
    grid = RoutingGrid(placement, tech)
    guidance = RoutingGuidance()
    if guidance_seed is not None:
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        guidance = random_guidance(keys, np.random.default_rng(guidance_seed))
    router = router_cls(grid, guidance)
    result = router.route_all()
    outcome = {
        "paths": {name: tuple(tuple(p) for p in route.paths)
                  for name, route in result.routes.items()},
        "failed_nets": result.failed_nets,
        "iterations": result.iterations,
        "symmetric_ok": {name: route.symmetric_ok
                         for name, route in result.routes.items()},
    }
    return outcome, router.astar.expansions_total


class TestShippedMatchesFloodingOracle:
    """Skipping unreachable hard searches changes no routing decision,
    and only ever removes expansions."""

    @pytest.mark.parametrize("guidance_seed", [None, 7],
                             ids=["neutral", "guided"])
    @pytest.mark.parametrize("circuit", ["OTA1", "OTA2", "OTA3"])
    def test_same_routes_fewer_expansions(self, ota_placements, tech,
                                          circuit, guidance_seed):
        placement = ota_placements[circuit]
        shipped, shipped_exp = _route_whole(IterativeRouter, placement, tech,
                                            guidance_seed)
        oracle, oracle_exp = _route_whole(FloodingRouter, placement, tech,
                                          guidance_seed)
        assert shipped["paths"]
        assert shipped == oracle
        assert shipped_exp <= oracle_exp
        if circuit in ("OTA1", "OTA3") and guidance_seed is None:
            assert shipped_exp < oracle_exp


class TestRouterObservability:
    """Satellite (f): expansion counters and frontier-batch histogram."""

    def test_expansion_counters_by_mode(self, ota1_placement, tech):
        obs = RunContext.recording()
        grid = RoutingGrid(ota1_placement, tech)
        router = IterativeRouter(grid, obs=obs)
        router.route_all()
        counters = obs.metrics.counter_values()
        by_mode = {name: v for name, v in counters.items()
                   if name.startswith("route_expansions_total")}
        assert by_mode  # neutral guidance -> at least the bucketed mode
        assert sum(by_mode.values()) == router.astar.expansions_total
        for mode, count in router.astar.expansions_by_mode.items():
            assert by_mode[f"route_expansions_total{{mode={mode}}}"] == count

    def test_frontier_batch_histogram(self, ota1_placement, tech):
        obs = RunContext.recording()
        grid = RoutingGrid(ota1_placement, tech)
        router = IterativeRouter(grid, obs=obs)
        take = router.astar.take_batch_window
        windows = []

        def recording_take():
            windows.append(take())
            return windows[-1]

        router.astar.take_batch_window = recording_take
        router.route_all()
        hist = obs.metrics.to_dict()["histograms"]["route_frontier_batch"]
        drained = [w for w in windows if w["count"]]
        assert hist["count"] == sum(w["count"] for w in drained) > 0
        assert hist["sum"] == pytest.approx(sum(w["sum"] for w in drained))
        assert hist["min"] == min(w["min"] for w in drained) >= 1
        assert hist["max"] == max(w["max"] for w in drained)

    def test_unreachable_spans_count_the_oracle_floods(self, ota1_placement,
                                                        tech):
        """``route.net`` spans count the skipped hard searches: as many as
        the flooding oracle's hard searches that return None."""
        oracle = FloodingRouter(RoutingGrid(ota1_placement, tech))
        search = oracle.astar.route_connection
        floods = []

        def counting_search(*args, **kwargs):
            path = search(*args, **kwargs)
            if not kwargs["soft"] and path is None:
                floods.append(args[0])
            return path

        oracle.astar.route_connection = counting_search
        oracle.route_all()

        obs = RunContext.recording()
        IterativeRouter(RoutingGrid(ota1_placement, tech), obs=obs).route_all()
        spans = [e for e in obs.drain_events() if e["name"] == "route.net"]
        counts = [e["attrs"]["unreachable"] for e in spans
                  if "unreachable" in e["attrs"]]
        assert floods and all(n > 0 for n in counts)
        assert sum(counts) == len(floods)

    def test_histogram_merge_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(4.0)
        h.merge_summary(count=3, total=9.0, min_value=1.0, max_value=6.0)
        d = reg.to_dict()["histograms"]["h"]
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(13.0)
        assert d["min"] == 1.0 and d["max"] == 6.0

    def test_merge_summary_ignores_empty_window(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.merge_summary(count=0, total=0.0,
                        min_value=float("inf"), max_value=float("-inf"))
        assert reg.to_dict()["histograms"]["h"] == {"count": 0, "sum": 0.0}

    def test_batch_window_drains(self, fresh_grid):
        router = AStarRouter(fresh_grid)
        net = fresh_grid.net_names[0]
        src = _free_cell(fresh_grid, layer=1)
        dst = _free_cell(fresh_grid, layer=1, start=(src[0] + 3, 0))
        router.route_connection(net, {src}, dst)
        window = router.take_batch_window()
        assert window["count"] > 0
        assert router.take_batch_window()["count"] == 0
