"""Random-waypoint movement of receivers inside their cells.

:func:`simulate_paths` generates the trajectories of every UE of an
episode.  Each UE heads for its waypoint at its speed, and then takes its
next waypoint and speed.  A leg from origin o to waypoint w at step s
(speed times slot length) is walked in closed form: with q = dist / s,
move m of the leg (counted from 1) lands exactly on w when m >= q, and
the first move always lands when s >= dist; until it lands, move m puts
the UE at ``o + (w - o) * (m / q)``.  So a leg lands on its move
``ceil(q)``, or its first if s >= dist, and the next leg starts from w
on the slot after.

The random stream is consumed in a fixed layout, part of what a seed
means.  UEs are numbered group after group (their columns in the
result).  First each UE, in column order, draws its start x and y, then
a block of _BLOCK = 128 legs (waypoint x, waypoint y, speed) that it
walks in order.  A UE whose legs run out before the last slot is short;
round after round, every UE still short draws one more block, in column
order, until none is.  Legs that start after the last slot are drawn but
not walked.  Each value is ``low + (high - low) * u`` for a double u of
``rng.random``, bit for bit ``Generator.uniform(low, high)``.  The
per-UE scalar reference in ``tests/oracles.py`` deals the same blocks
and walks the same formula slot by slot, so for a given seed both
produce the same paths and leave the generator in the same state.

Once every leg is drawn, each group's moves are placed in its UEs' slice of
the result, group after group, so every temporary of the walk is group-sized.
"""

from __future__ import annotations

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
    positions are drawn but are not part of the returned array.  The array
    is the transposed view of a C-contiguous (2, total UEs, n_slots)
    buffer, whose x and y planes hold each UE's slots side by side; its
    .T is that buffer.
    """
    firsts = np.cumsum([0] + [n for n, _ in groups])  # each group's first UE column
    src, way, q, col, start, arrival = _schedule(groups, v_min, v_max, slot_duration, n_slots,
                                                 rng)
    # Each UE's legs in turn, so that their moves are its slots in order.
    order = np.argsort(col * n_slots + start, kind="stable")
    src, way, q, col, arrival = (np.take(a, order, axis=0) for a in (src, way, q, col, arrival))
    length = np.minimum(arrival, n_slots - 1 - start[order]) + 1  # moves within the episode
    lands = length > arrival
    ends = np.cumsum(length)
    cuts = np.searchsorted(col, firsts)  # each group's first leg
    out = np.empty((2, firsts[-1], n_slots))
    for first, last, a, b in zip(firsts, firsts[1:], cuts, cuts[1:]):
        # a UE has n_slots moves, so the group's moves start at first * n_slots
        _walk(out[:, first:last], src[a:b], way[a:b], q[a:b], length[a:b], lands[a:b],
              ends[a:b] - first * n_slots)
    return out.T


def _walk(out, src, way, q, length, lands, ends):
    """Place the moves of one group's legs, in UE and start order, into its
    (2, UEs, n_slots) slice out of the position planes; ends counts each
    leg's last move from the group's first."""
    n_ues, n_slots = out.shape[1:]
    land_col, land_slot = np.divmod(ends[lands] - 1, n_slots)  # (UE, slot) of each landing
    # Each move's number on its leg, from 1, then its share m / q of the leg.
    move = np.arange(1, n_slots * n_ues + 1)
    move -= np.repeat(ends - length, length)
    share = np.repeat(q, length)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and 1/0 only on landing moves
        np.divide(move, share, out=share)
        del move
        share = share.reshape(n_ues, n_slots)
        for axis in (0, 1):  # one temporary of the group's size at a time beside share
            origin = src[:, axis]
            pos = out[axis]  # this coordinate, UE by UE
            np.multiply(np.repeat(way[:, axis] - origin, length).reshape(pos.shape), share,
                        out=pos)
            pos += np.repeat(origin, length).reshape(pos.shape)
            pos[land_col, land_slot] = way[lands, axis]


def _arrivals(src, way, step, left):
    """q = dist / step of the legs of a block, and the offset of the move on
    which each lands: ceil(q) - 1 moves after its start, 0 if step >= dist,
    and no later than left, the slots left after the UE's first start slot
    (a leg that outlasts the episode).  src and way are (UEs, _BLOCK, 2),
    step is (UEs, _BLOCK) and left is (UEs, 1)."""
    d = way - src
    sq = d * d
    dist = np.sqrt(sq[..., 0] + sq[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):  # q = inf or nan for a zero step
        q = dist / step
    moves = np.minimum(np.ceil(q) - 1, left)
    return q, np.where(step >= dist, 0, moves).astype(np.int64)


def _schedule(groups, v_min, v_max, slot_duration, n_slots, rng):
    """Draw every leg of the episode in the module's layout and find its
    arrival.

    Returns the legs that start before the last slot as flat columns:
    start point and waypoint (legs, 2), q, UE column, start slot and
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
        q, arrival = _arrivals(src, way, step, (n_slots - first)[:, None])
        moves = arrival + 1
        ends = first[:, None] + np.cumsum(moves, axis=1)
        starts = ends - moves
        walked = starts < n_slots
        legs.append((src[walked], way[walked], q[walked], cols.repeat(walked.sum(axis=1)),
                     starts[walked], arrival[walked]))
        short = ends[:, -1] < n_slots
        if not short.any():
            return [np.concatenate(column) for column in zip(*legs)]
        cols, pos, first = cols[short], way[short, -1], ends[short, -1]
        draws = rng.random(len(cols) * 3 * _BLOCK)
