"""Vectorized numpy kernels for the hot per-slot paths.

Each kernel is written once and is the only implementation of its
formula; the scalar code in ``channel``, ``mobility`` and ``metrics`` is
the reference the tests hold these kernels to.
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


def advance_positions(pos, wp, step):
    # One waypoint-chasing move per row; rows that reach (or overshoot)
    # their waypoint land exactly on it and are flagged for a redraw.
    delta = wp - pos
    dist = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    arrived = step >= dist
    safe = np.where(dist > 0.0, dist, 1.0)
    frac = step / safe
    out = np.empty_like(pos)
    out[:, 0] = np.where(arrived, wp[:, 0], pos[:, 0] + delta[:, 0] * frac)
    out[:, 1] = np.where(arrived, wp[:, 1], pos[:, 1] + delta[:, 1] * frac)
    return out, arrived


def action_utilities(
    powers,
    serving,
    interference,
    wn,
    noise_psd,
    eta,
    squared,
    outgoing_sum,
    energy_weight,
    ici_weight,
):
    # powers is (actions, users) in watts; serving and interference are
    # per-user vectors (gain, and the denominator term, already squared
    # when squared mode is on).  Returns per action: the utility, the
    # (actions, users) Shannon rates in bit/s on bandwidth wn, the total
    # power and the leaked power chi, both in watts.
    # Utility = mean rate in Mbit/s - energy_weight * total power in mW
    #           - ici_weight * leaked power in mW.
    den = wn * noise_psd + interference
    sig = eta * powers * serving
    if squared:
        sig = sig * sig
    rates = wn * np.log2(1.0 + sig / den)
    mean_mbps = (rates.sum(axis=1) / rates.shape[1]) * 1e-6
    total_w = powers.sum(axis=1)
    ici_w = eta * total_w * outgoing_sum
    utilities = mean_mbps - energy_weight * total_w * 1e3 - ici_weight * ici_w * 1e3
    return utilities, rates, total_w, ici_w
