"""Random-waypoint movement of receivers inside one cell.

:func:`simulate_paths` generates the trajectories of a group of UEs for
a whole episode.  Each UE heads for its waypoint at its speed; a move
that reaches or overshoots the waypoint lands exactly on it, and the UE
then draws a new waypoint and speed.  The random stream is consumed in a
fixed order (per UE: waypoint x, waypoint y, speed), the same order as
the per-UE scalar reference in ``tests/oracles.py``, so for a given seed
both produce the same paths.

The walk is plain Python over scalar floats: a group holds only a few
UEs, so numpy calls on arrays that small would cost more in call
overhead than in arithmetic.
"""

from __future__ import annotations

import math
from array import array

import numpy as np


def simulate_paths(
    n_ues: int,
    bounds: tuple[float, float, float, float],
    v_min: float,
    v_max: float,
    slot_duration: float,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Trajectories of a group of UEs in the cell bounds (xmin, xmax, ymin,
    ymax): positions of shape (n_slots, n_ues, 2).

    Row k holds all UE positions after the move of slot k.  The initial
    placement (position, waypoint, speed per UE) is drawn first but is
    not part of the returned array.
    """
    xmin, xmax, ymin, ymax = bounds
    ues = []  # per UE: [x, y, waypoint x, waypoint y, distance per slot]
    for _ in range(n_ues):
        x, y = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
        wx, wy = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
        ues.append([x, y, wx, wy, rng.uniform(v_min, v_max) * slot_duration])

    # Slot-major, so arrivals draw in (slot, UE) order.  8 bytes per
    # coordinate, as the returned float64 array holds them.
    out = array("d")
    for _ in range(n_slots):
        for ue in ues:
            x, y, wx, wy, step = ue
            dx = wx - x
            dy = wy - y
            dist = math.sqrt(dx * dx + dy * dy)
            if step >= dist:
                x, y = wx, wy
                ue[2], ue[3] = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
                ue[4] = rng.uniform(v_min, v_max) * slot_duration
            else:
                frac = step / dist
                x = x + dx * frac
                y = y + dy * frac
            ue[0] = x
            ue[1] = y
            out.append(x)
            out.append(y)
    return np.frombuffer(out).reshape(n_slots, n_ues, 2)
