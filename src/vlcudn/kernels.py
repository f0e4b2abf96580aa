"""Vectorized numeric kernels for the hot per-slot paths.

Every kernel is written once as a plain numpy function and compiled with
numba's ``@njit`` when numba is importable.  Set the environment variable
``VLCUDN_DISABLE_NUMBA=1`` (or any value other than ``0``/empty) before
import to force the pure-numpy implementations, e.g. for debugging or on
platforms where numba is unavailable.  ``ACTIVE_BACKEND`` records which
path was selected.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    HAS_NUMBA = False


def _numba_disabled() -> bool:
    flag = os.environ.get("VLCUDN_DISABLE_NUMBA", "")
    return flag not in ("", "0")


USE_NUMBA = HAS_NUMBA and not _numba_disabled()
ACTIVE_BACKEND = "numba" if USE_NUMBA else "numpy"


def _lambertian_gains(dx, dy, dz, m_order, coef, cos_fov):
    # coef = (m + 1) * detector_area / (2 * pi); dz > 0 is the vertical
    # drop from transmitter plane to receiver plane, shared by all links.
    d2 = dx * dx + dy * dy + dz * dz
    cos_t = dz / np.sqrt(d2)
    gains = (coef / d2) * cos_t ** (m_order + 1.0)
    return np.where(cos_t >= cos_fov, gains, 0.0)


def _advance_positions(pos, wp, step):
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


def _action_utilities(
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


if USE_NUMBA:
    _jit = njit(cache=True)
    lambertian_gains = _jit(_lambertian_gains)
    advance_positions = _jit(_advance_positions)
    action_utilities = _jit(_action_utilities)
else:
    lambertian_gains = _lambertian_gains
    advance_positions = _advance_positions
    action_utilities = _action_utilities
