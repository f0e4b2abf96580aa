"""Vectorized numpy kernels for the hot per-slot paths.

Each kernel is written once and is the package's only implementation of
its formula: the Lambertian gain, and the SINR/rate, leakage and utility
of every candidate power vector.  The scalar code in ``tests/oracles.py``
is the reference the tests hold these kernels to.  The random-waypoint
move is not a kernel: it steps a few UEs at a time, and is written once,
in :func:`vlcudn.mobility.simulate_paths`.
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
