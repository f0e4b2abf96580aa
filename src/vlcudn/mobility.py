"""Random-waypoint movement of receivers inside one cell.

:func:`simulate_paths` generates the trajectories of a group of UEs for
a whole episode; the move itself is :func:`vlcudn.kernels.advance_positions`.
The random stream is consumed in a fixed order (per UE: waypoint x,
waypoint y, speed), the same order as the per-UE scalar reference in
``tests/oracles.py``, so for a given seed both produce the same paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import advance_positions

Bounds = tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)


@dataclass(frozen=True)
class MobilityConfig:
    v_min: float
    v_max: float
    slot_duration: float
    bounds: Bounds

    def __post_init__(self):
        if not 0.0 <= self.v_min <= self.v_max:
            raise ValueError("need 0 <= v_min <= v_max")
        if self.slot_duration <= 0.0:
            raise ValueError("slot_duration must be positive")
        xmin, xmax, ymin, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("bounds must span a non-empty rectangle")


def _draw_point(config: MobilityConfig, rng: np.random.Generator) -> tuple[float, float]:
    xmin, xmax, ymin, ymax = config.bounds
    x = rng.uniform(xmin, xmax)
    y = rng.uniform(ymin, ymax)
    return x, y


def simulate_paths(
    n_ues: int,
    config: MobilityConfig,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Batched trajectories: positions of shape (n_slots, n_ues, 2).

    Row k holds all UE positions after the move of slot k.  The initial
    placement (position, waypoint, speed per UE) is drawn first but is
    not part of the returned array.
    """
    pos = np.empty((n_ues, 2))
    wp = np.empty((n_ues, 2))
    speed = np.empty(n_ues)
    for i in range(n_ues):
        pos[i] = _draw_point(config, rng)
        wp[i] = _draw_point(config, rng)
        speed[i] = rng.uniform(config.v_min, config.v_max)

    out = np.empty((n_slots, n_ues, 2))
    for k in range(n_slots):
        pos, arrived = advance_positions(pos, wp, speed * config.slot_duration)
        for i in np.flatnonzero(arrived):
            wp[i] = _draw_point(config, rng)
            speed[i] = rng.uniform(config.v_min, config.v_max)
        out[k] = pos
    return out

