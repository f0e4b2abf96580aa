"""Grid layout, reuse blocks, co-channel neighbours and the episode's cells."""

import math

import numpy as np
import pytest

from vlcudn import harness
from vlcudn.config import load_experiment
from vlcudn.topology import co_channel_neighbors, episode_cells, reuse_blocks

FOV = math.radians(70.0)
# (ap_height - ue_height) * tan(fov) + half the diagonal of a 2 m cell, at
# the desk-scale heights 3 m and 1 m
RADIUS = 2.0 * math.tan(FOV) + math.sqrt(2.0)


def _grid(rows, cols):
    """x, y of each AP of a 2 m grid, row-major: AP (i, j) at the center of
    cell (i, j)."""
    return np.array([(2.0 * j + 1.0, 2.0 * i + 1.0) for i in range(rows) for j in range(cols)])


def _cells(make_config, rows, cols, mode):
    return episode_cells(load_experiment(make_config({
        "topology.rows": rows, "topology.cols": cols, "topology.reuse_mode": mode,
    })))


def _brute_force_cells(rows, cols, mode):
    """The central AP (nearest the grid center, lowest index among ties),
    then each same-block AP within RADIUS of it, in index order."""
    positions = _grid(rows, cols)
    center = (cols * 1.0, rows * 1.0)
    dists = [math.dist(p, center) for p in positions]
    central = dists.index(min(dists))
    blocks = reuse_blocks(rows, cols, mode)
    return [positions[central].tolist()] + [
        p.tolist() for ap, p in enumerate(positions)
        if ap != central and blocks[ap] == blocks[central]
        and math.dist(p, positions[central]) <= RADIUS
    ]


def test_single_ap_position(make_config):
    assert _cells(make_config, 1, 1, "two_block").tolist() == [[1.0, 1.0]]


def test_five_by_five_center(make_config):
    assert _cells(make_config, 5, 5, "four_block")[0].tolist() == [5.0, 5.0]


def test_row_major_indexing(make_config):
    # the tie between APs 1 and 4 goes to 1; neighbours 3 and 5 are row 1,
    # columns 0 and 2
    assert _cells(make_config, 2, 3, "two_block").tolist() == [[3.0, 1.0], [1.0, 3.0], [5.0, 3.0]]


@pytest.mark.parametrize("rows,cols,mode", [
    (4, 4, "two_block"), (6, 5, "two_block"), (2, 3, "four_block"), (6, 6, "four_block"),
    (3, 1, "four_block"),
])
def test_episode_cells_match_brute_force(make_config, rows, cols, mode):
    assert _cells(make_config, rows, cols, mode).tolist() == _brute_force_cells(rows, cols, mode)


@pytest.mark.filterwarnings("error")
def test_central_ap_at_the_largest_spacing_the_config_accepts(make_config):
    """At 1e150 m the squared distances to the grid centre stay finite, so
    the 4 x 4 grid's central AP is (1, 1), not AP 0; 1e160 is a config error."""
    cfg = load_experiment(make_config({
        "topology.rows": 4, "topology.cols": 4, "topology.reuse_mode": "two_block",
        "topology.spacing_m": "1e150",
    }))
    assert episode_cells(cfg)[0].tolist() == pytest.approx([1.5e150, 1.5e150])


def test_two_block_checkerboard():
    assert reuse_blocks(2, 2, "two_block").tolist() == [0, 1, 1, 0]


def test_four_block_tiling():
    assert reuse_blocks(2, 2, "four_block").tolist() == [0, 2, 1, 3]


def test_four_block_center_of_five_by_five():
    assert reuse_blocks(5, 5, "four_block")[12] == 0


@pytest.mark.parametrize("mode", ["two_block", "four_block"])
@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (5, 5), (6, 3)])
def test_adjacent_cells_never_share_a_block(mode, rows, cols):
    blocks = reuse_blocks(rows, cols, mode).reshape(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                assert blocks[i, j] != blocks[i + 1, j]
            if j + 1 < cols:
                assert blocks[i, j] != blocks[i, j + 1]


def test_four_block_center_has_eight_neighbors_at_known_offsets(make_config):
    cells = _cells(make_config, 5, 5, "four_block")
    offsets = {tuple(c) for c in (cells[1:] - cells[0]).tolist()}
    assert len(cells) == 9 and offsets == {
        (-4.0, -4.0), (0.0, -4.0), (4.0, -4.0),
        (-4.0, 0.0), (4.0, 0.0),
        (-4.0, 4.0), (0.0, 4.0), (4.0, 4.0),
    }
    assert cells.tolist() == _brute_force_cells(5, 5, "four_block")


def test_two_block_center_matches_brute_force(make_config):
    cells = _cells(make_config, 5, 5, "two_block")
    assert cells.tolist() == _brute_force_cells(5, 5, "two_block")
    assert len(cells) == 1 + 12


def test_single_ap_has_no_neighbors():
    assert co_channel_neighbors(_grid(1, 1), reuse_blocks(1, 1, "two_block"), 0, RADIUS).size == 0


@pytest.mark.parametrize("mode", ["two_block", "four_block"])
def test_neighbor_relation_is_symmetric_and_irreflexive(mode):
    positions, blocks = _grid(5, 6), reuse_blocks(5, 6, mode)
    sets = {
        ap: set(co_channel_neighbors(positions, blocks, ap, RADIUS).tolist())
        for ap in range(len(positions))
    }
    for ap, neigh in sets.items():
        assert ap not in neigh
        for other in neigh:
            assert ap in sets[other]
        # every AP, not only a grid's central one, gets the brute-force set
        assert neigh == {
            other for other in range(len(positions))
            if other != ap and blocks[other] == blocks[ap]
            and math.dist(positions[other], positions[ap]) <= RADIUS
        }


def test_four_block_cochannel_distance_at_least_two_spacings():
    positions, blocks = _grid(6, 6), reuse_blocks(6, 6, "four_block")
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if blocks[a] == blocks[b]:
                assert math.dist(positions[a], positions[b]) >= 2 * 2.0 - 1e-12


@pytest.fixture()
def walked_bounds(make_config, monkeypatch):
    """The cell bounds run_episode hands simulate_paths, one per call, for
    a desk-scale 5 x 5 four_block episode."""
    seen = []
    simulate = harness.simulate_paths

    def recording(n_ues, bounds, *args):
        seen.append(bounds)
        return simulate(n_ues, bounds, *args)

    monkeypatch.setattr(harness, "simulate_paths", recording)
    harness.run_episode(load_experiment(make_config({"agent.max_slots": 30,
                                                     "agent.warmup_slots": 5})), 1)
    return seen


def test_cell_bounds_of_center(walked_bounds):
    assert walked_bounds[0] == (4.0, 6.0, 4.0, 6.0)
    # then each neighbour's cell, in index order
    assert [(x0 + 1.0, y0 + 1.0) for x0, _, y0, _ in walked_bounds[1:]] == [
        (1.0, 1.0), (5.0, 1.0), (9.0, 1.0), (1.0, 5.0), (9.0, 5.0), (1.0, 9.0), (5.0, 9.0),
        (9.0, 9.0),
    ]
    assert all(x1 - x0 == y1 - y0 == 2.0 for x0, x1, y0, y1 in walked_bounds)


def test_points_in_central_cell_are_nearest_to_central_ap(walked_bounds):
    xmin, xmax, ymin, ymax = walked_bounds[0]
    positions = _grid(5, 5)
    rng = np.random.default_rng(5)
    pts = np.column_stack(
        (rng.uniform(xmin, xmax, 500), rng.uniform(ymin, ymax, 500))
    )
    for p in pts:
        d2 = ((positions - p) ** 2).sum(axis=1)
        assert int(np.argmin(d2)) == 12
