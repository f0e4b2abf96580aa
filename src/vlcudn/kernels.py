"""Vectorized numpy kernels for the per-episode channel and reward arithmetic.

Each kernel is written once and is the package's only implementation of
its formula: the Lambertian gain, the SINR/rate of every (slot, UE, power
level) of an episode, and the leakage and utility of summed rates and
powers, on the learner's Python floats or on whole arrays of slots.  The
scalar code in ``tests/oracles.py`` is the reference the tests hold these
kernels to.  The random-waypoint move is not a kernel: it steps a few UEs
at a time, and is written once, in :func:`vlcudn.mobility.simulate_paths`.
"""

from __future__ import annotations

import numpy as np

# The only backend.  Kept because perfbench/run.py's environment() reads it
# on every run; remove it together with that field.
ACTIVE_BACKEND = "numpy"


def lambertian_gains(dx, dy, dz, m_order, coef, cos_fov):
    # coef = (m + 1) * detector_area / (2 * pi); dz > 0 is the vertical
    # drop from transmitter plane to receiver plane, shared by all links.
    d2 = dx * dx + dy * dy + dz * dz
    cos_t = dz / np.sqrt(d2)
    gains = (coef / d2) * cos_t ** (m_order + 1.0)
    return np.where(cos_t >= cos_fov, gains, 0.0)


def level_rates(levels, serving, interference, wn, noise_psd, eta, squared):
    # levels is the (L+1,) per-UE power grid in watts; serving and
    # interference are (slots, users) arrays (gain, and the denominator
    # term, already squared when squared mode is on).  Returns the
    # (slots, users, L+1) Shannon rates in bit/s on bandwidth wn, built in
    # place so that the table is the only array of that size.
    out = np.multiply(eta * levels, serving[:, :, None])
    if squared:
        np.multiply(out, out, out=out)
    np.divide(out, (wn * noise_psd + interference)[:, :, None], out=out)
    np.add(out, 1.0, out=out)
    np.log2(out, out=out)
    np.multiply(out, wn, out=out)
    return out


def utility(rate_sum, n_ues, total_w, outgoing, eta, energy_weight, ici_weight):
    # rate_sum is the users' summed rate in bit/s, total_w their summed
    # power in watts and outgoing the slot's total cross-gain toward
    # foreign UEs.  Plain arithmetic, so Python floats and numpy arrays
    # (broadcast elementwise) give the same IEEE results.  Returns the
    # utility and the leaked power chi in watts:
    # utility = mean rate in Mbit/s - energy_weight * total power in mW
    #           - ici_weight * leaked power in mW.
    ici_w = eta * total_w * outgoing
    # one expression, so numpy reuses its temporaries on a whole table
    u = (rate_sum / n_ues) * 1e-6 - energy_weight * total_w * 1e3 - ici_weight * ici_w * 1e3
    return u, ici_w
