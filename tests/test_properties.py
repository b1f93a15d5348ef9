"""Hypothesis property tests on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist import Capacitor, Circuit, MOSFET, MOSType, NetType
from repro.placement import Placer
from repro.router import AStarRouter, IterativeRouter, RoutingGrid
from repro.simulation.mna import MnaSystem
from repro.simulation.metrics import PerformanceMetrics
from repro.tech import generic_40nm


# -- circuit generator strategy ---------------------------------------------------

@st.composite
def small_circuits(draw):
    """Random small valid circuits: a chain of MOSFETs and caps."""
    n_mos = draw(st.integers(2, 6))
    n_cap = draw(st.integers(0, 2))
    circuit = Circuit(name="rand")
    for i in range(n_mos):
        circuit.add_device(MOSFET(
            name=f"M{i}",
            mos_type=MOSType.NMOS if i % 2 else MOSType.PMOS,
            w=draw(st.floats(1.0, 8.0)),
            l=draw(st.sampled_from([0.04, 0.06, 0.08])),
            bias_current=draw(st.floats(1e-6, 1e-4)),
        ))
    for i in range(n_cap):
        circuit.add_device(Capacitor(name=f"C{i}",
                                     value=draw(st.floats(0.1e-12, 1e-12))))
    # Chain nets: M[i].D -- M[i+1].G, plus supply rails.
    vdd = circuit.new_net("VDD", NetType.POWER)
    vss = circuit.new_net("VSS", NetType.GROUND)
    for i in range(n_mos):
        dev = circuit.device(f"M{i}")
        (vdd if dev.mos_type is MOSType.PMOS else vss).connect(f"M{i}", "S")
    for i in range(n_mos - 1):
        net = circuit.new_net(f"N{i}")
        net.connect(f"M{i}", "D").connect(f"M{i + 1}", "G")
    last = circuit.new_net("NOUT")
    last.connect(f"M{n_mos - 1}", "D")
    for i in range(n_cap):
        last.connect(f"C{i}", "PLUS")
        vss.connect(f"C{i}", "MINUS")
    circuit.net("NOUT").connect("M0", "G")  # feedback to keep all pins used
    circuit.validate()
    return circuit


class TestPlacerProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(circuit=small_circuits(), seed=st.integers(0, 100))
    def test_placements_always_legal(self, circuit, seed):
        placement = Placer(circuit, variant="A", seed=seed,
                           iterations=30).place()
        assert placement.is_legal()
        assert set(placement.positions) == set(circuit.devices)
        x0, y0, _, _ = placement.bounding_box()
        assert x0 >= 0 and y0 >= 0


class TestRouterProperties:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(circuit=small_circuits(), seed=st.integers(0, 50))
    def test_routing_clean_on_random_circuits(self, circuit, seed):
        placement = Placer(circuit, variant="A", seed=seed,
                           iterations=20).place()
        grid = RoutingGrid(placement, generic_40nm())
        result = IterativeRouter(grid).route_all()
        assert result.success, result.failed_nets
        assert result.overlaps() == {}
        for route in result.routes.values():
            assert route.is_connected()
            for a, b in route.segments():
                assert sum(abs(x - y) for x, y in zip(a, b)) == 1

    @settings(max_examples=15, deadline=None)
    @given(ax=st.integers(2, 12), ay=st.integers(2, 12),
           bx=st.integers(2, 12), by=st.integers(2, 12),
           gx=st.floats(0.2, 3.0), gy=st.floats(0.2, 3.0),
           gz=st.floats(0.2, 3.0))
    def test_astar_path_valid(self, ota1_grid, ax, ay, bx, by, gx, gy, gz):
        # ota1_grid is read-only here: route_connection never mutates
        # occupancy, so sharing the session grid across examples is safe.
        router = AStarRouter(ota1_grid)
        net = ota1_grid.net_names[0]
        a, b = (ax, ay, 1), (bx, by, 2)
        path = router.route_connection(
            net, {a}, b, guidance_vec=np.array([gx, gy, gz]))
        assert path is not None
        assert path[0] == a and path[-1] == b
        for u, v in zip(path, path[1:]):
            assert sum(abs(x - y) for x, y in zip(u, v)) == 1
            assert ota1_grid.in_bounds(v)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_mirror_involution_random_cells(self, ota1_grid, seed):
        rng = np.random.default_rng(seed)
        cell = (int(rng.integers(0, ota1_grid.nx)),
                int(rng.integers(0, ota1_grid.ny)),
                int(rng.integers(0, ota1_grid.num_layers)))
        assert ota1_grid.mirror_cell(ota1_grid.mirror_cell(cell)) == cell


class TestMnaProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=6))
    def test_series_ladder_resistance(self, resistances):
        """DC voltage at the head of a series ladder = sum of resistances."""
        sys = MnaSystem()
        nodes = [f"n{i}" for i in range(len(resistances))] + ["0"]
        for r, a, b in zip(resistances, nodes, nodes[1:]):
            sys.add_resistance(a, b, r)
        sol = sys.solve(0.0, {"n0": 1.0})
        # rel=1e-4 leaves room for the intentional G_MIN leak at every node.
        assert sol["n0"].real == pytest.approx(sum(resistances), rel=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reciprocity_of_resistive_network(self, seed):
        """For reciprocal (R-only) networks, transfer a->b equals b->a."""
        rng = np.random.default_rng(seed)
        sys = MnaSystem()
        names = ["a", "b", "c", "d"]
        for i, u in enumerate(names):
            sys.add_resistance(u, "0", float(rng.uniform(10, 1e3)))
            for v in names[i + 1:]:
                sys.add_resistance(u, v, float(rng.uniform(10, 1e3)))
        v_ab = sys.solve(0.0, {"a": 1.0})["b"]
        v_ba = sys.solve(0.0, {"b": 1.0})["a"]
        assert v_ab.real == pytest.approx(v_ba.real, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e3, 1e9))
    def test_passivity(self, freq):
        """A passive RC network driven by 1A dissipates positive power."""
        sys = MnaSystem()
        sys.add_resistance("a", "b", 100.0)
        sys.add_capacitance("b", "0", 1e-12)
        sys.add_resistance("b", "0", 1e3)
        sol = sys.solve(freq, {"a": 1.0})
        power = (sol["a"] * np.conj(1.0)).real
        assert power > 0


class TestMetricsProperties:
    @settings(max_examples=40, deadline=None)
    @given(offset=st.floats(1e-2, 1e5), cmrr=st.floats(1.0, 200.0),
           bw=st.floats(1e-2, 1e4), gain=st.floats(0.1, 100.0),
           noise=st.floats(1e-1, 1e5))
    def test_normalization_roundtrip(self, offset, cmrr, bw, gain, noise):
        m = PerformanceMetrics(offset, cmrr, bw, gain, noise)
        r = PerformanceMetrics.from_normalized(m.to_normalized())
        assert r.offset_uv == pytest.approx(offset, rel=1e-9)
        assert r.cmrr_db == pytest.approx(cmrr, rel=1e-9)
        assert r.bandwidth_mhz == pytest.approx(bw, rel=1e-9)
        assert r.gain_db == pytest.approx(gain, rel=1e-9)
        assert r.noise_uvrms == pytest.approx(noise, rel=1e-9)


class TestDistanceProperties:
    @settings(max_examples=40, deadline=None)
    @given(c=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0),
                       st.floats(0.1, 4.0)),
           delta=st.tuples(st.floats(0, 20), st.floats(0, 20),
                           st.floats(0, 3)))
    def test_cost_distance_monotone_in_guidance(self, c, delta):
        """Eq. 1: d_cost grows with each guidance component."""
        def d_cost(cv):
            return np.sqrt(sum((ci * di) ** 2 for ci, di in zip(cv, delta)))

        base = d_cost(c)
        for i in range(3):
            bumped = list(c)
            bumped[i] *= 2.0
            assert d_cost(bumped) >= base
