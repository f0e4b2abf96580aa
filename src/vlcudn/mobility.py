"""Random-waypoint movement of receivers inside their cells.

:func:`simulate_paths` generates the trajectories of every UE of an
episode.  Each UE heads for its waypoint at its speed; a move that
reaches or overshoots the waypoint lands exactly on it, and the UE then
takes its next waypoint and speed.

The random stream is consumed in a fixed layout, part of what a seed
means.  UEs are numbered group after group (their columns in the
result).  First each UE, in column order, draws its start x and y, then
a block of _BLOCK = 128 legs (waypoint x, waypoint y, speed) that it
walks in order.  A UE whose legs run out before the last slot is short;
round after round, every UE still short draws one more block, in column
order, until none is.  Legs that start after the last slot are drawn but
not walked.  Each value is ``low + (high - low) * u`` for a double u of
``rng.random``, bit for bit ``Generator.uniform(low, high)``.  The
per-UE scalar reference in ``tests/oracles.py`` deals the same blocks,
so for a given seed both produce the same paths and leave the generator
in the same state.

The walk has two phases:

1. Schedule.  The legs of a block are known once it is drawn, so all
   their arrivals are guessed at once: ``ceil(dist / step) - 1`` moves
   after the leg's start, 0 if ``step >= dist``, and not before the last
   slot if the step is too small.  Start slots are their cumulative sum.
2. Walk.  The float recurrence (``dx, dy, sqrt, step / dist,
   x + dx * frac``) runs for every leg of the episode at once, one numpy
   step per move offset, with x and y stepped by the same recurrence as
   separate contiguous arrays.  It then checks that each leg reached its
   waypoint on its guessed move and on no other.  A guess off by rounding
   sends the schedule round again from the same generator state, with
   each arrival found by the scalar recurrence (:func:`_exact`), so the
   paths and draws always are those of the scalar walk.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 128  # legs a UE draws at a time: a constant of the stream layout


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

    Row k holds all UE positions after the move of slot k.  The start
    positions are drawn but are not part of the returned array.
    """
    n_total = sum(n for n, _ in groups)
    state = rng.bit_generator.state
    for arrivals in (_guess, _exact):
        legs = _schedule(groups, v_min, v_max, slot_duration, n_slots, rng, arrivals)
        paths, exact = _walk(legs, n_slots, n_total)
        if exact:
            return paths
        rng.bit_generator.state = state
    raise RuntimeError("the waypoint walk disagrees with its own arrival slots")


def _guess(src, way, step, n_slots, first):
    """Offsets of the moves on which the legs of a block reach their
    waypoints, in closed form.  src and way are (UEs, _BLOCK, 2), step is
    (UEs, _BLOCK), and first holds each UE's first start slot; a leg that
    cannot arrive in the slots left after first gets n_slots - first."""
    d = way - src
    sq = d * d
    dist = np.sqrt(sq[..., 0] + sq[..., 1])
    left = (n_slots - first)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero steps never use it
        moves = np.ceil(dist / step) - 1
    return np.where(step >= dist, 0, np.where(step * left < dist, left, moves)).astype(np.int64)


def _exact(src, way, step, n_slots, first):
    """_guess by the walk's own recurrence, one move at a time: always
    right.  Each UE's legs are walked in turn from its first start slot;
    legs that start after the last slot are left at 0."""
    out = np.zeros(step.shape, np.int64)
    start = first.tolist()
    for (i, t), s in np.ndenumerate(step):  # each UE's legs in order
        (x, y), (wx, wy), s = src[i, t].tolist(), way[i, t].tolist(), float(s)
        j = 0
        while j < n_slots - start[i]:
            dx = wx - x
            dy = wy - y
            dist = math.sqrt(dx * dx + dy * dy)
            if s >= dist:
                break
            x = x + dx * (s / dist)
            y = y + dy * (s / dist)
            j += 1
        out[i, t] = j
        start[i] += j + 1
    return out


def _schedule(groups, v_min, v_max, slot_duration, n_slots, rng, arrivals):
    """Phase 1: draw every leg of the episode in the module's layout and
    find its arrival with arrivals (_guess or _exact).

    Returns the legs that start before the last slot as flat columns:
    start point and waypoint (legs, 2), step, UE column, start slot and
    arrival offset."""
    low = np.concatenate([np.tile((xmin, ymin), (n, 1)) for n, (xmin, _, ymin, _) in groups])
    span = np.concatenate([np.tile((xmax - xmin, ymax - ymin), (n, 1))
                           for n, (xmin, xmax, ymin, ymax) in groups])
    v_range = v_max - v_min
    cols = np.arange(len(low))
    draws = rng.random(len(cols) * (2 + 3 * _BLOCK)).reshape(len(cols), -1)
    pos = low + span * draws[:, :2]
    draws = draws[:, 2:]
    first = np.zeros(len(cols), np.int64)
    legs = []
    while True:
        triples = draws.reshape(len(cols), _BLOCK, 3)
        way = low[cols, None] + span[cols, None] * triples[..., :2]
        step = (v_min + v_range * triples[..., 2]) * slot_duration
        src = np.concatenate([pos[:, None], way[:, :-1]], axis=1)
        moves = arrivals(src, way, step, n_slots, first) + 1
        ends = first[:, None] + np.cumsum(moves, axis=1)
        starts = ends - moves
        walked = starts < n_slots
        legs.append((src[walked], way[walked], step[walked], cols.repeat(walked.sum(axis=1)),
                     starts[walked], moves[walked] - 1))
        short = ends[:, -1] < n_slots
        if not short.any():
            return [np.concatenate(column) for column in zip(*legs)]
        cols, pos, first = cols[short], way[short, -1], ends[short, -1]
        draws = rng.random(len(cols) * 3 * _BLOCK)


def _walk(legs, n_slots, n_total):
    """Phase 2: every leg's moves at once; returns the (n_slots, n_total,
    2) positions and whether each leg reached its waypoint on its guessed
    move and on no other."""
    src, way, step, col, start, guess = legs
    length = np.minimum(guess, n_slots - 1 - start) + 1  # moves within the episode
    lands = guess < n_slots - start
    # Longest first, and among equal lengths the landing legs last, so the
    # legs still moving at offset j are a prefix, and those that land on
    # it the tail of that prefix.
    order = np.lexsort((lands, -length))
    length = length[order]
    # x and y apart, each contiguous: the position and waypoint of every leg
    x, y, wx, wy = (coord[order] for coord in (*src.T, *way.T))
    step = step[order]
    dest = (start * n_total + col)[order]  # flat (slot, UE) row of each first move

    top = int(length[0]) if len(length) else 0
    moving = len(length) - np.cumsum(np.bincount(length, minlength=top + 1))  # [j]: length > j
    landing = np.bincount(length[lands[order]], minlength=top + 1)[1:]  # [j]: land at j
    out = np.empty((n_slots * n_total, 2))
    out_x, out_y = out[:, 0], out[:, 1]
    scratch = np.empty((4, len(length)))  # dx, dy, dist and a temporary, per leg
    hits = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only on landing moves
        for j, (m, m_land) in enumerate(zip(moving[:-1].tolist(), landing.tolist())):
            px, py, s = x[:m], y[:m], step[:m]  # the legs still moving
            dx, dy, dist, tmp = scratch[:, :m]
            np.subtract(wx[:m], px, out=dx)
            np.subtract(wy[:m], py, out=dy)
            np.multiply(dx, dx, out=dist)
            np.multiply(dy, dy, out=tmp)
            np.sqrt(np.add(dist, tmp, out=dist), out=dist)
            reached = s >= dist
            hits += np.count_nonzero(reached)
            if m_land and not reached[m - m_land:].all():
                return out, False
            np.divide(s, dist, out=tmp)
            np.add(px, np.multiply(dx, tmp, out=dx), out=px)
            np.add(py, np.multiply(dy, tmp, out=dy), out=py)
            if m_land:
                px[m - m_land:] = wx[m - m_land:m]
                py[m - m_land:] = wy[m - m_land:m]
            rows = dest[:m] + j * n_total
            out_x[rows] = px
            out_y[rows] = py
    # Every landing leg reached its waypoint on its last move, so any other
    # reach is one more.
    return out.reshape(n_slots, n_total, 2), hits == np.count_nonzero(lands)
