"""A fixed reference workload that measures how fast the host runs now.

The benchmark host shares its cores with other tenants, whose load slows
every program on it by up to about 40% for minutes at a time.  Each
child runs this workload before it imports vlcudn and makes its CLI call,
and run.py scales the call's episode rate by the median pass time (of
the slowest lane, for a parallel call) over NOMINAL_S, so that the reported rate is the one the host would give at
its nominal speed.

The workload mixes what an episode does: scalar draws and small numpy
arrays in an interpreted per-slot loop, tuple keys into a dict of rows,
and now and then a vectorised pass over a 7776 x 5 array.  It imports
nothing from vlcudn and must never change: a change to it moves every
rate the benchmark reports.
"""

import statistics
import time

import numpy as np

# About what reference_seconds() gives in a fresh interpreter on a
# 2-vCPU Intel Xeon VM (2.0 GHz, Python 3.11, numpy 2.4).  It only sets
# the scale of the reported rates.
NOMINAL_S = 0.060
SLOTS = 1000
PASSES = 6


def reference_seconds(lanes: int = 1) -> list[float]:
    """Median time of PASSES short passes of the reference workload, on each
    of `lanes` processes run at once (one per worker of a parallel call,
    so that every vCPU it uses is measured).  The median ignores a stall
    that hits one pass."""
    if lanes == 1:
        return [_median_pass()]
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(lanes)
    try:
        return pool.starmap(_median_pass, [()] * lanes, chunksize=1)
    finally:
        pool.close()
        pool.join()


def _median_pass() -> float:
    return statistics.median(_one_pass(SLOTS) for _ in range(PASSES))


def _one_pass(slots: int) -> float:
    rng = np.random.default_rng(12345)
    aps = rng.random((25, 2)) * 10.0
    pos = rng.random((3, 2)) * 10.0
    table: dict[tuple, list[float]] = {}
    joint = rng.random((7776, 5))
    acc = 0.0
    t0 = time.perf_counter()
    for t in range(slots):
        speed = rng.uniform(0.1, 1.0)
        pos = np.clip(pos + rng.normal(size=(3, 2)) * speed * 0.1, 0.0, 10.0)
        d = np.sqrt(((pos[:, None, :] - aps[None, :, :]) ** 2).sum(-1))
        gain = 1.0 / (1.0 + d * d)
        key = tuple((gain[:, :4] * 8).astype(int).ravel().tolist())
        row = table.setdefault(key, [0.0] * 8)
        a = t % 8
        row[a] = 0.1 * row[a] + 0.9 * (float(gain.max()) + 0.3 * max(row))
        if t % 50 == 0:
            acc += float((np.log2(1.0 + joint * gain[0, 0]) - joint).sum(axis=1).max())
    elapsed = time.perf_counter() - t0
    if not (acc == acc and table):  # keep the work observable
        raise RuntimeError("reference workload produced no result")
    return elapsed
