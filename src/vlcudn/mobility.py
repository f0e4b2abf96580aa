"""Random-waypoint movement of receivers inside one cell.

Two implementations of the same process: a per-UE reference
(:func:`rwp_step`) and a batched trajectory generator
(:func:`simulate_paths`) used by the simulation loop.  Both consume the
random stream in the identical order (per UE: waypoint x, waypoint y,
speed), so for a given seed they produce the same paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import Pos3
from .kernels import advance_positions

Bounds = tuple[float, float, float, float]  # (xmin, xmax, ymin, ymax)


@dataclass(frozen=True)
class MobilityConfig:
    v_min: float
    v_max: float
    slot_duration: float
    ue_height: float
    bounds: Bounds

    def __post_init__(self):
        if not 0.0 <= self.v_min <= self.v_max:
            raise ValueError("need 0 <= v_min <= v_max")
        if self.slot_duration <= 0.0:
            raise ValueError("slot_duration must be positive")
        if self.ue_height < 0.0:
            raise ValueError("ue_height must be non-negative")
        xmin, xmax, ymin, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("bounds must span a non-empty rectangle")


@dataclass(frozen=True)
class UeState:
    id: int
    position: Pos3
    waypoint: Pos3
    speed: float
    serving_ap: int = -1


def _draw_point(config: MobilityConfig, rng: np.random.Generator) -> tuple[float, float]:
    xmin, xmax, ymin, ymax = config.bounds
    x = rng.uniform(xmin, xmax)
    y = rng.uniform(ymin, ymax)
    return x, y


def init_ues(n: int, config: MobilityConfig, rng: np.random.Generator) -> list[UeState]:
    """Place n UEs uniformly in bounds with fresh waypoints and speeds."""
    ues = []
    for i in range(n):
        px, py = _draw_point(config, rng)
        wx, wy = _draw_point(config, rng)
        speed = rng.uniform(config.v_min, config.v_max)
        ues.append(
            UeState(
                id=i,
                position=Pos3(px, py, config.ue_height),
                waypoint=Pos3(wx, wy, config.ue_height),
                speed=speed,
            )
        )
    return ues


def rwp_step(ue: UeState, config: MobilityConfig, rng: np.random.Generator) -> UeState:
    """Advance one slot toward the waypoint.

    If the move would reach or overshoot the waypoint, the UE lands
    exactly on it and draws a new waypoint and speed for the next slot.
    """
    step = ue.speed * config.slot_duration
    dx = ue.waypoint.x - ue.position.x
    dy = ue.waypoint.y - ue.position.y
    # same float ops as the batched kernel so both paths agree bit for bit
    dist = math.sqrt(dx * dx + dy * dy)
    if step >= dist:
        wx, wy = _draw_point(config, rng)
        speed = rng.uniform(config.v_min, config.v_max)
        return replace(
            ue,
            position=Pos3(ue.waypoint.x, ue.waypoint.y, config.ue_height),
            waypoint=Pos3(wx, wy, config.ue_height),
            speed=speed,
        )
    frac = step / dist
    return replace(
        ue,
        position=Pos3(ue.position.x + dx * frac, ue.position.y + dy * frac, config.ue_height),
    )


def simulate_paths(
    n_ues: int,
    config: MobilityConfig,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Batched trajectories: positions of shape (n_slots, n_ues, 2).

    Row k holds all UE positions after the move of slot k.  The initial
    placement is drawn the same way as :func:`init_ues` but is not part
    of the returned array.
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

