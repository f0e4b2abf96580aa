"""Random-waypoint movement of receivers inside their cells.

:func:`simulate_paths` generates the trajectories of every UE of an
episode, cell group after cell group.  Each UE heads for its waypoint at
its speed; a move that reaches or overshoots the waypoint lands exactly
on it, and the UE then draws a new waypoint and speed.  The random stream
is consumed in a fixed order: group by group, first each UE's position,
waypoint and speed, then one waypoint x, waypoint y and speed per arrival
in (slot, UE) order.  That is the order of the per-UE scalar reference in
``tests/oracles.py`` walking the groups one after the other, so for a
given seed both produce the same paths and leave the generator in the
same state.

A UE's path between two arrivals (a segment) depends only on its start,
waypoint and step, so the walk has two phases:

1. Schedule.  A heap of (arrival slot, UE) per group hands out the draws
   in (slot, UE) order.  Each segment's arrival is guessed in closed form
   as ``ceil(dist / step) - 1`` moves after its start.  The doubles come
   from ``rng.random`` in chunks, and ``low + (high - low) * u`` is bit
   for bit what ``Generator.uniform(low, high)`` returns; afterwards the
   generator is reset and advanced by exactly the doubles used.
2. Walk.  The float recurrence (``dx, dy, sqrt, step / dist,
   x + dx * frac``) runs for every segment of the episode at once, one
   numpy step per move offset.  It then checks that each segment reached
   its waypoint on its guessed move and on no other.  A rounding case
   where a guess is off sends the schedule round again with each arrival
   found by the scalar recurrence (:func:`_exact`), so the paths and the
   draws always are those of the scalar walk.
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import chain

import numpy as np

_CHUNK = 4096  # doubles drawn from the generator at a time by the schedule


def simulate_paths(
    groups: list[tuple[int, tuple[float, float, float, float]]],
    v_min: float,
    v_max: float,
    slot_duration: float,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Trajectories of the UE groups [(n_ues, (xmin, xmax, ymin, ymax)), ...]
    in their cell bounds: positions of shape (n_slots, total UEs, 2), the
    groups' UEs side by side in list order.

    Row k holds all UE positions after the move of slot k.  The initial
    placement (position, waypoint, speed per UE) is drawn first but is
    not part of the returned array.
    """
    n_total = sum(n for n, _ in groups)
    state = rng.bit_generator.state
    for guess in (_guess, _exact):
        segments, used = _schedule(groups, v_min, v_max, slot_duration, n_slots, rng, guess)
        paths, exact = _walk(segments, n_slots, n_total)
        rng.bit_generator.state = state
        if exact:
            break
    else:
        raise RuntimeError("the waypoint walk disagrees with its own arrival slots")
    rng.random(used)  # the generator ends past exactly the draws used
    return paths


def _guess(x, y, wx, wy, step, horizon):
    """Offset of the move that reaches (wx, wy) from (x, y) at step per
    move, in closed form; horizon or more if none of the next horizon
    moves does."""
    dx = wx - x
    dy = wy - y
    dist = math.sqrt(dx * dx + dy * dy)
    if step >= dist:
        return 0
    if step * horizon < dist:  # zero and tiny steps included
        return horizon
    return math.ceil(dist / step) - 1


def _exact(x, y, wx, wy, step, horizon):
    """_guess by the walk's own recurrence: always right, one move at a time."""
    for j in range(horizon):
        dx = wx - x
        dy = wy - y
        dist = math.sqrt(dx * dx + dy * dy)
        if step >= dist:
            return j
        frac = step / dist
        x = x + dx * frac
        y = y + dy * frac
    return horizon


def _schedule(groups, v_min, v_max, slot_duration, n_slots, rng, guess):
    """Phase 1: draw every segment of the episode in the scalar walk's order.

    Returns the segments and the number of doubles they took from rng.
    Segments are rows of two flat columns: floats (x, y, waypoint x,
    waypoint y, step) and ints (UE column, first slot, guessed arrival
    offset from guess).  A UE's start is drawn as an arrival before slot
    0; a segment that would start after the last slot only takes its
    draws.
    """
    draw = chain.from_iterable(iter(lambda: rng.random(_CHUNK).tolist(), None)).__next__
    floats, ints = array("d"), array("q")
    v_range = v_max - v_min
    pops = col = 0
    for n_ues, bounds in groups:
        xmin, xmax, ymin, ymax = map(float, bounds)
        x_range, y_range = xmax - xmin, ymax - ymin
        waypoints = [None] * n_ues
        heap = [(-1, i) for i in range(n_ues)]  # sorted, so already a heap
        while heap:
            k, i = heapq.heappop(heap)
            pops += 1
            x, y = waypoints[i] or (xmin + x_range * draw(), ymin + y_range * draw())
            wx, wy = xmin + x_range * draw(), ymin + y_range * draw()
            step = (v_min + v_range * draw()) * slot_duration
            waypoints[i] = (wx, wy)
            start = k + 1
            if start < n_slots:
                j = guess(x, y, wx, wy, step, n_slots - start)
                floats.extend((x, y, wx, wy, step))
                ints.extend((col + i, start, j))
                if start + j < n_slots:
                    heapq.heappush(heap, (start + j, i))
        col += n_ues
    segments = (np.frombuffer(floats).reshape(-1, 5), np.frombuffer(ints, np.int64).reshape(-1, 3))
    return segments, 2 * col + 3 * pops


def _walk(segments, n_slots, n_total):
    """Phase 2: every segment's moves at once; returns the (n_slots,
    n_total, 2) positions and whether each segment reached its waypoint on
    its guessed move and on no other."""
    floats, ints = segments
    col, start, guess = ints.T
    length = np.minimum(guess, n_slots - 1 - start) + 1  # moves within the episode
    lands = guess < n_slots - start
    # Longest first, and among equal lengths the landing segments last, so
    # the segments still moving at offset j are a prefix, and those that
    # land on it the tail of that prefix.
    order = np.lexsort((lands, -length))
    length = length[order]
    pos = floats[order, 0:2]
    way = floats[order, 2:4]
    step = floats[order, 4]
    dest = (start * n_total + col)[order]  # flat (slot, UE) row of each first move

    top = int(length[0]) if len(length) else 0
    moving = len(length) - np.cumsum(np.bincount(length, minlength=top + 1))  # [j]: length > j
    landing = np.bincount(length[lands[order]], minlength=top + 1)[1:]  # [j]: land at j
    out = np.empty((n_slots * n_total, 2))
    hits = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only on landing moves
        for j, (m, m_land) in enumerate(zip(moving[:-1].tolist(), landing.tolist())):
            cur = pos[:m]
            d = way[:m] - cur
            sq = d * d
            dist = np.sqrt(sq[:, 0] + sq[:, 1])
            reached = step[:m] >= dist
            hits += np.count_nonzero(reached)
            if m_land and not reached[m - m_land:].all():
                return out, False
            d *= (step[:m] / dist)[:, None]
            cur += d
            cur[m - m_land:] = way[m - m_land:m]
            out[dest[:m] + j * n_total] = cur
    # Every landing segment reached its waypoint on its last move, so any
    # other reach is one more.
    return out.reshape(n_slots, n_total, 2), hits == np.count_nonzero(lands)
