"""Grid layout, reuse blocks, and co-channel neighbor derivation."""

import math

import numpy as np
import pytest

from vlcudn.topology import (
    cell_bounds,
    central_ap,
    co_channel_neighbors,
    make_grid,
    reuse_blocks,
)

FOV = math.radians(70.0)


def test_single_ap_position():
    topo = make_grid(1, 1, 2.0, 3.0)
    assert topo.positions.shape == (1, 3)
    np.testing.assert_allclose(topo.positions[0], [1.0, 1.0, 3.0])


def test_five_by_five_center():
    topo = make_grid(5, 5, 2.0, 3.0)
    assert topo.n_aps == 25
    assert central_ap(topo) == 12
    np.testing.assert_allclose(topo.positions[12], [5.0, 5.0, 3.0])


def test_row_major_indexing():
    topo = make_grid(2, 3, 2.0, 3.0)
    assert topo.n_aps == 6
    # id 5 is row 1, col 2
    np.testing.assert_allclose(topo.positions[5], [5.0, 3.0, 3.0])


def test_two_block_checkerboard():
    topo = make_grid(2, 2, 2.0, 3.0)
    assert reuse_blocks(topo, "two_block").tolist() == [0, 1, 1, 0]


def test_four_block_tiling():
    topo = make_grid(2, 2, 2.0, 3.0)
    assert reuse_blocks(topo, "four_block").tolist() == [0, 2, 1, 3]


def test_four_block_center_of_five_by_five():
    topo = make_grid(5, 5, 2.0, 3.0)
    blocks = reuse_blocks(topo, "four_block")
    assert blocks[12] == 0


@pytest.mark.parametrize("mode", ["two_block", "four_block"])
@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (5, 5), (6, 3)])
def test_adjacent_cells_never_share_a_block(mode, rows, cols):
    topo = make_grid(rows, cols, 2.0, 3.0)
    blocks = reuse_blocks(topo, mode).reshape(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                assert blocks[i, j] != blocks[i + 1, j]
            if j + 1 < cols:
                assert blocks[i, j] != blocks[i, j + 1]


def _brute_force_neighbors(topo, ap, mode, fov, ue_height):
    blocks = reuse_blocks(topo, mode)
    radius = (topo.ap_height - ue_height) * math.tan(fov) + topo.spacing * math.sqrt(2) / 2
    out = []
    for other in range(topo.n_aps):
        if other == ap or blocks[other] != blocks[ap]:
            continue
        d = math.dist(topo.positions[other, :2], topo.positions[ap, :2])
        if d <= radius:
            out.append(other)
    return out


def test_four_block_center_has_eight_neighbors_at_known_offsets():
    topo = make_grid(5, 5, 2.0, 3.0)
    got = co_channel_neighbors(topo, 12, "four_block", FOV, 1.0)
    offsets = {
        tuple(np.round(topo.positions[j, :2] - topo.positions[12, :2], 9)) for j in got
    }
    assert offsets == {
        (-4.0, -4.0), (0.0, -4.0), (4.0, -4.0),
        (-4.0, 0.0), (4.0, 0.0),
        (-4.0, 4.0), (0.0, 4.0), (4.0, 4.0),
    }
    assert got.tolist() == _brute_force_neighbors(topo, 12, "four_block", FOV, 1.0)


def test_two_block_center_matches_brute_force():
    topo = make_grid(5, 5, 2.0, 3.0)
    got = co_channel_neighbors(topo, 12, "two_block", FOV, 1.0)
    assert got.tolist() == _brute_force_neighbors(topo, 12, "two_block", FOV, 1.0)
    assert len(got) == 12


def test_single_ap_has_no_neighbors():
    topo = make_grid(1, 1, 2.0, 3.0)
    assert co_channel_neighbors(topo, 0, "two_block", FOV, 1.0).size == 0


@pytest.mark.parametrize("mode", ["two_block", "four_block"])
def test_neighbor_relation_is_symmetric_and_irreflexive(mode):
    topo = make_grid(5, 6, 2.0, 3.0)
    sets = {
        ap: set(co_channel_neighbors(topo, ap, mode, FOV, 1.0).tolist())
        for ap in range(topo.n_aps)
    }
    for ap, neigh in sets.items():
        assert ap not in neigh
        for other in neigh:
            assert ap in sets[other]


def test_four_block_cochannel_distance_at_least_two_spacings():
    topo = make_grid(6, 6, 2.0, 3.0)
    blocks = reuse_blocks(topo, "four_block")
    for a in range(topo.n_aps):
        for b in range(a + 1, topo.n_aps):
            if blocks[a] == blocks[b]:
                d = math.dist(topo.positions[a, :2], topo.positions[b, :2])
                assert d >= 2 * topo.spacing - 1e-12


def test_cell_bounds_of_center():
    topo = make_grid(5, 5, 2.0, 3.0)
    assert cell_bounds(topo, 12) == (4.0, 6.0, 4.0, 6.0)


def test_points_in_central_cell_are_nearest_to_central_ap():
    topo = make_grid(5, 5, 2.0, 3.0)
    xmin, xmax, ymin, ymax = cell_bounds(topo, 12)
    rng = np.random.default_rng(5)
    pts = np.column_stack(
        (rng.uniform(xmin, xmax, 500), rng.uniform(ymin, ymax, 500))
    )
    for p in pts:
        d2 = ((topo.positions[:, :2] - p) ** 2).sum(axis=1)
        assert int(np.argmin(d2)) == 12

