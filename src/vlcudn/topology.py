"""AP grid layout, frequency-reuse blocks and co-channel neighbor sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

REUSE_MODES = ("two_block", "four_block")


@dataclass
class Topology:
    """Rectangular grid of ceiling APs, one per square cell.

    AP (i, j) sits at the center of cell (i, j): x = j * spacing + spacing/2,
    y = i * spacing + spacing/2, z = ap_height.  Flat indices are row-major.
    """

    rows: int
    cols: int
    spacing: float
    ap_height: float
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ii, jj = np.divmod(np.arange(self.rows * self.cols), self.cols)
        half = self.spacing / 2.0
        self.positions = np.column_stack(
            (
                jj * self.spacing + half,
                ii * self.spacing + half,
                np.full(ii.shape, float(self.ap_height)),
            )
        )

    @property
    def n_aps(self) -> int:
        return self.rows * self.cols


def make_grid(rows: int, cols: int, spacing: float, ap_height: float) -> Topology:
    return Topology(rows=rows, cols=cols, spacing=spacing, ap_height=ap_height)


def reuse_blocks(topo: Topology, mode: str) -> np.ndarray:
    """Block id per AP under the given reuse pattern.

    two_block checkerboards two frequency blocks; four_block tiles four
    blocks so that no two adjacent cells (including diagonals in the
    2x2 super-cell) share one.
    """
    ii, jj = np.divmod(np.arange(topo.n_aps), topo.cols)
    if mode == "two_block":
        return (ii + jj) % 2
    return (ii % 2) + 2 * (jj % 2)


def co_channel_neighbors(
    topo: Topology,
    ap_index: int,
    mode: str,
    fov_angle: float,
    ue_height: float,
) -> np.ndarray:
    """Indices of same-block APs whose coverage can overlap this AP's cell.

    An AP counts as a neighbor when the horizontal distance between the two
    AP positions is at most (ap_height - ue_height) * tan(fov_angle) plus
    half the cell diagonal: its coverage disc at receiver height then
    reaches into this cell.  fov_angle is in radians.
    """
    blocks = reuse_blocks(topo, mode)
    radius = (topo.ap_height - ue_height) * math.tan(fov_angle)
    radius += topo.spacing * math.sqrt(2.0) / 2.0
    center = topo.positions[ap_index, :2]
    dist = np.hypot(
        topo.positions[:, 0] - center[0], topo.positions[:, 1] - center[1]
    )
    mask = (blocks == blocks[ap_index]) & (dist <= radius)
    mask[ap_index] = False
    return np.flatnonzero(mask)


def cell_bounds(topo: Topology, ap_index: int) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) of the square cell served by an AP."""
    x, y = topo.positions[ap_index, :2]
    half = topo.spacing / 2.0
    return (x - half, x + half, y - half, y + half)


def central_ap(topo: Topology) -> int:
    """Index of the AP nearest the geometric center of the grid."""
    cx = topo.cols * topo.spacing / 2.0
    cy = topo.rows * topo.spacing / 2.0
    d2 = (topo.positions[:, 0] - cx) ** 2 + (topo.positions[:, 1] - cy) ** 2
    return int(np.argmin(d2))
