"""Small coverage tests for utility surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.eval.visualize import render_guidance
from repro.nn import Tensor
from repro.router.guidance import RoutingGuidance
from repro.router.result import NetRoute, RoutingResult
from repro.simulation.mna import MnaSystem


class TestTensorDunders:
    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_shape(self):
        assert "shape=(2, 3)" in repr(Tensor(np.zeros((2, 3))))

    def test_item_scalar(self):
        assert Tensor(np.array(2.5)).item() == 2.5

    def test_numpy_returns_copy(self):
        t = Tensor(np.ones(3))
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** np.ones(2)

    def test_radd_rsub_rdiv(self):
        t = Tensor(np.array([2.0]))
        assert (1.0 + t).data[0] == 3.0
        assert (5.0 - t).data[0] == 3.0
        assert (8.0 / t).data[0] == 4.0


class TestMnaIntrospection:
    def test_num_nodes_and_has_node(self):
        sys = MnaSystem()
        sys.add_resistance("a", "b", 1.0)
        assert sys.num_nodes == 2
        assert sys.has_node("a")
        assert not sys.has_node("zz")

    def test_ground_is_not_a_node(self):
        sys = MnaSystem()
        sys.add_resistance("a", "0", 1.0)
        assert sys.num_nodes == 1
        assert sys.node("0") == -1


class TestRoutingResultHelpers:
    def test_cell_owners(self):
        result = RoutingResult(routes={
            "A": NetRoute(net="A", paths=[[(0, 0, 0), (1, 0, 0)]]),
            "B": NetRoute(net="B", paths=[[(5, 5, 0)]]),
        })
        owners = result.cell_owners()
        assert owners[(0, 0, 0)] == ["A"]
        assert owners[(5, 5, 0)] == ["B"]

    def test_empty_route_not_connected_with_aps(self):
        from repro.router.guidance import AccessPoint
        ap1 = AccessPoint(net="A", device="d", pin="p", cell=(0, 0, 0),
                          position=(0, 0))
        ap2 = AccessPoint(net="A", device="d", pin="q", cell=(5, 0, 0),
                          position=(0, 0))
        route = NetRoute(net="A", access_points=[ap1, ap2])
        assert not route.is_connected()

    def test_single_ap_always_connected(self):
        from repro.router.guidance import AccessPoint
        ap = AccessPoint(net="A", device="d", pin="p", cell=(0, 0, 0),
                         position=(0, 0))
        assert NetRoute(net="A", access_points=[ap]).is_connected()


class TestRenderGuidanceDirections:
    def test_prefers_cheapest_direction(self, ota1_grid):
        guidance = RoutingGuidance()
        ap = ota1_grid.access_points["NET1L"][0]
        guidance.set(ap.key, np.array([5.0, 0.1, 3.0]))
        art = render_guidance(guidance, ota1_grid)
        line = next(l for l in art.splitlines()
                    if f"{ap.device}.{ap.pin}" in l)
        assert line.rstrip().endswith("y")
