"""Tests for the 3D routing grid and pin access assignment."""

import numpy as np
import pytest

from repro.router import BLOCKED, FREE, RoutingGrid


class TestGridGeometry:
    def test_covers_placement_with_halo(self, ota1_grid, ota1_placement):
        x0, y0, x1, y1 = ota1_placement.bounding_box()
        gx1, gy1, _ = ota1_grid.to_um((ota1_grid.nx - 1, ota1_grid.ny - 1, 0))
        assert ota1_grid.origin[0] < x0
        assert ota1_grid.origin[1] < y0
        assert gx1 > x1 - ota1_grid.pitch
        assert gy1 > y1 - ota1_grid.pitch

    def test_to_cell_um_roundtrip(self, ota1_grid):
        cell = (5, 7, 2)
        x, y, layer = ota1_grid.to_um(cell)
        assert ota1_grid.to_cell(x, y, layer) == cell

    def test_in_bounds(self, ota1_grid):
        assert ota1_grid.in_bounds((0, 0, 0))
        assert not ota1_grid.in_bounds((-1, 0, 0))
        assert not ota1_grid.in_bounds((ota1_grid.nx, 0, 0))
        assert not ota1_grid.in_bounds((0, 0, ota1_grid.num_layers))

    def test_pitch_below_rule_pitch_raises(self, ota1_placement, tech):
        with pytest.raises(ValueError):
            RoutingGrid(ota1_placement, tech, pitch=0.01)

    def test_mirror_is_involution(self, ota1_grid):
        for cell in [(3, 4, 0), (10, 2, 1), (0, 0, 3)]:
            assert ota1_grid.mirror_cell(ota1_grid.mirror_cell(cell)) == cell

    def test_mirror_preserves_adjacency(self, ota1_grid):
        a, b = (5, 5, 0), (6, 5, 0)
        ma, mb = ota1_grid.mirror_cell(a), ota1_grid.mirror_cell(b)
        assert abs(ma[0] - mb[0]) == 1
        assert ma[1:] == a[1:]


class TestBlockages:
    def test_device_bodies_block_m1(self, ota1_grid, ota1_placement):
        name = "MN_TAIL"
        x0, y0, x1, y1 = ota1_placement.device_box(name)
        cell = ota1_grid.to_cell((x0 + x1) / 2, (y0 + y1) / 2, 0)
        occ = ota1_grid.occupancy[cell]
        assert occ == BLOCKED or occ >= 0  # body or a pin reservation

    def test_upper_layers_start_free(self, ota1_grid):
        # Layers above M1 only carry access-point reservations if a pin is
        # defined there; with all pins on M1 they must be fully free.
        assert (ota1_grid.occupancy[:, :, 1:] == FREE).all()

    def test_halo_region_free(self, ota1_grid):
        assert ota1_grid.occupancy[0, :, 0].max() == FREE
        assert ota1_grid.occupancy[:, 0, 0].max() == FREE


class TestPinAccess:
    def test_every_terminal_has_access_point(self, ota1, ota1_grid):
        for net in ota1.nets.values():
            aps = ota1_grid.access_points[net.name]
            assert len(aps) == net.degree

    def test_access_cells_unique(self, ota1_grid):
        cells = [
            ap.cell
            for aps in ota1_grid.access_points.values()
            for ap in aps
        ]
        assert len(cells) == len(set(cells))

    def test_access_cells_reserved_for_net(self, ota1_grid):
        for net_name, aps in ota1_grid.access_points.items():
            for ap in aps:
                assert ota1_grid.occupancy[ap.cell] == ota1_grid.net_index[net_name]

    def test_access_cell_near_pin(self, ota1_grid):
        for aps in ota1_grid.access_points.values():
            for ap in aps:
                x, y, _ = ota1_grid.to_um(ap.cell)
                # Collision resolution may shift by a few cells at most.
                assert abs(x - ap.position[0]) <= 3 * ota1_grid.pitch
                assert abs(y - ap.position[1]) <= 3 * ota1_grid.pitch


class TestOccupancy:
    def test_claim_and_release(self, fresh_grid):
        net = fresh_grid.net_names[0]
        cell = (1, 1, 1)
        assert fresh_grid.is_available(cell, net)
        fresh_grid.claim(cell, net)
        assert fresh_grid.owner(cell) == fresh_grid.net_index[net]
        other = fresh_grid.net_names[1]
        assert not fresh_grid.is_available(cell, other)
        assert fresh_grid.is_available(cell, net)
        fresh_grid.release_net(net)
        assert fresh_grid.owner(cell) == FREE

    def test_release_keeps_access_points(self, fresh_grid):
        net = "NET1L"
        fresh_grid.release_net(net)
        for ap in fresh_grid.access_points[net]:
            assert fresh_grid.owner(ap.cell) == fresh_grid.net_index[net]

    def test_blocked_not_available_to_anyone(self, fresh_grid):
        blocked_cells = np.argwhere(fresh_grid.occupancy == BLOCKED)
        assert len(blocked_cells) > 0
        cell = tuple(int(v) for v in blocked_cells[0])
        for net in fresh_grid.net_names[:3]:
            assert not fresh_grid.is_available(cell, net)
