"""AP grid layout, frequency-reuse blocks and the cells an episode simulates."""

from __future__ import annotations

import math

import numpy as np

REUSE_MODES = ("two_block", "four_block")


def reuse_blocks(rows: int, cols: int, mode: str) -> np.ndarray:
    """Block id per AP of a rows x cols grid, row-major.

    two_block checkerboards two frequency blocks; four_block tiles four
    blocks so that no two adjacent cells (including diagonals in the
    2x2 super-cell) share one.
    """
    ii, jj = np.divmod(np.arange(rows * cols), cols)
    if mode == "two_block":
        return (ii + jj) % 2
    return (ii % 2) + 2 * (jj % 2)


def co_channel_neighbors(positions: np.ndarray, blocks: np.ndarray, ap_index: int,
                         radius: float) -> np.ndarray:
    """Indices of the APs in ap_index's block whose horizontal distance
    from it, over the (n_aps, 2) x, y positions, is at most radius."""
    x, y = positions[ap_index]
    dist = np.hypot(positions[:, 0] - x, positions[:, 1] - y)
    mask = (blocks == blocks[ap_index]) & (dist <= radius)
    mask[ap_index] = False
    return np.flatnonzero(mask)


def episode_cells(config) -> np.ndarray:
    """x, y of the APs an episode simulates, shape (1 + J, 2): the central
    AP, then its J co-channel neighbours in index order.

    AP (i, j) sits at the center of square cell (i, j); indices are
    row-major.  The central AP is the one nearest the grid's center, the
    lowest index among ties.  A same-block AP is a neighbour when its
    distance is at most (ap_height - ue_height) * tan(fov) plus half the
    cell diagonal: its coverage disc at receiver height then reaches into
    the central cell.
    """
    rows, cols, spacing = config.rows, config.cols, config.spacing
    ii, jj = np.divmod(np.arange(rows * cols), cols)
    half = spacing / 2.0
    positions = np.column_stack((jj * spacing + half, ii * spacing + half))
    d2 = (positions[:, 0] - cols * spacing / 2.0) ** 2 + (
        positions[:, 1] - rows * spacing / 2.0) ** 2
    central = int(np.argmin(d2))
    radius = (config.ap_height - config.ue_height) * math.tan(math.radians(config.fov_angle))
    radius += spacing * math.sqrt(2.0) / 2.0
    blocks = reuse_blocks(rows, cols, config.reuse_mode)
    return positions[[central, *co_channel_neighbors(positions, blocks, central, radius)]]
