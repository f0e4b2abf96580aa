"""Vectorized numpy kernels for the per-episode channel and reward arithmetic.

Each kernel is written once and is the package's only implementation of
its formula: the Lambertian gain, the SINR/rate of every (slot, UE, power
level) of an episode, and the leakage and utility of summed rates and
powers, on the learner's Python floats or on whole arrays of slots.  The
scalar code in ``tests/oracles.py`` is the reference the tests hold these
kernels to.  The random-waypoint move is not a kernel: its closed form
is written once, in :mod:`vlcudn.mobility`, which places the moves of
one cell group at a time in numpy.
"""

from __future__ import annotations

import math

import numpy as np

# The only backend.  Kept because perfbench/run.py's environment() reads it
# on every run; remove it together with that field.
ACTIVE_BACKEND = "numpy"


def lambertian_order(semi_angle_half_intensity: float) -> float:
    """Lambertian order m = -1 / log2(cos(semi_angle)), semi-angle in degrees.

    A 60 degree semi-angle gives m = 1 (the ideal Lambertian source),
    45 degrees gives m = 2; smaller angles give narrower, higher-order lobes.
    """
    return -1.0 / math.log2(math.cos(math.radians(semi_angle_half_intensity)))


def lambertian_gains(dx, dy, dz, semi_angle_deg, detector_area, fov_deg):
    """Line-of-sight gains of a ceiling AP seen by receivers at offsets dx, dy.

    The downlink gain of an LED transmitter seen by a photodiode is

        h = (m + 1) * A_R / (2 * pi * d^2) * cos(phi)^m * cos(theta) * rect(theta)

    with m the Lambertian order of the LED lobe, A_R the effective detector
    area, d the AP-receiver distance, phi the irradiance angle at the LED,
    theta the incidence angle at the photodiode, and rect() the field-of-view
    cutoff (1 inside the FOV, 0 outside, boundary included).  Both the LED
    and the photodiode face vertically (LED down, detector up), so
    phi == theta.  Distances are in meters.

    dx, dy are arrays; dz > 0 is the drop to the receiver plane, shared by
    all links.  The optics come as configured: the LED semi-angle and the
    FOV half-angle in degrees, the detector area A_R in m^2.  dx and dy are
    only read; a link outside the FOV, or with a NaN cos(theta), gets 0.
    """
    m_order = lambertian_order(semi_angle_deg)
    coef = (m_order + 1.0) * detector_area / (2.0 * math.pi)
    cos_fov = math.cos(math.radians(fov_deg))
    d2 = dx * dx
    d2 += dy * dy
    d2 += dz * dz
    cos_t = np.sqrt(d2)
    np.divide(dz, cos_t, out=cos_t)
    outside = ~(cos_t >= cos_fov)
    np.divide(coef, d2, out=d2)
    np.power(cos_t, m_order + 1.0, out=cos_t)
    d2 *= cos_t
    d2[outside] = 0.0
    return d2


def level_rates(levels, serving, interference, wn, noise_psd, eta, squared):
    """Shannon rate of every (slot, UE, power level) of an episode, in bit/s.

    For UE n served with optical power x_n over gain h_n, with J co-channel
    neighbor APs sending power x_{j,n} seen through gain gamma_{j,n}:

        zeta_n = (eta x_n h_n) / (W_n N0 + sum_j eta x_{j,n} gamma_{j,n})
        r_n    = W_n log2(1 + zeta_n)

    The SINR numerator and interference terms are linear in the received
    optical power by default; ``squared`` switches both to the squared
    electrical form (eta x h)^2 used in conventional direct-detection link
    budgets.

    levels is the (L+1,) per-UE power grid in watts; serving and
    interference are (slots, users) arrays (gain, and the denominator term,
    already squared when squared is on).  Returns the (slots, users, L+1)
    rates on bandwidth wn, built in place so that the table is the only
    array of that size.
    """
    out = np.multiply(eta * levels, serving[:, :, None])
    if squared:
        np.multiply(out, out, out=out)
    np.divide(out, (wn * noise_psd + interference)[:, :, None], out=out)
    np.add(out, 1.0, out=out)
    np.log2(out, out=out)
    np.multiply(out, wn, out=out)
    return out


def utility(rate_sum, n_ues, total_w, outgoing, eta, energy_weight, ici_weight):
    """Utility and leaked power chi, in watts, of summed rates and powers.

    Leakage toward neighbors aggregates over this cell's own transmissions
    and every foreign UE m attached to neighbor j, with cross-gain g_{j,m}:

        chi = sum_n sum_j sum_m eta x_n g_{j,m}

    The scalar reward blends the three quantities in mixed units: rates
    enter in Mbit/s, powers and chi in mW, and the weights carry the
    conversions:

        u = mean_n(r_n [Mbit/s]) - energy_weight * sum_n(x_n [mW])
            - ici_weight * (chi [mW])

    rate_sum is the users' summed rate in bit/s, total_w their summed power
    in watts and outgoing the slot's total cross-gain toward foreign UEs.
    Plain arithmetic, so Python floats and numpy arrays (broadcast
    elementwise) give the same IEEE results.
    """
    ici_w = eta * total_w * outgoing
    # one expression, so numpy reuses its temporaries on a whole table
    u = (rate_sum / n_ues) * 1e-6 - energy_weight * total_w * 1e3 - ici_weight * ici_w * 1e3
    return u, ici_w
