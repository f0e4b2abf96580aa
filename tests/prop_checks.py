"""Randomized invariant checks of acceptance criterion 9.

Each function runs `n_cases` independent random trials, raises AssertionError
on the first violation, and returns the number of cases exercised so callers
can enforce a minimum.  Where a check draws its cases through the scalar
references in ``oracles``, it asserts the same invariant on the package kernel
that computes the quantity in a run.
"""

import math

import numpy as np

from oracles import (
    Channel, Link, PowerVector, Pos3, SlotChannelSnapshot, channel_gain,
    channel_params_from_cm2, link_geometry, per_ue_bandwidth, rect_fov, sinr, total_ici,
)
from vlcudn import kernels
from vlcudn.agent import QTable
from vlcudn.mobility import simulate_paths


def _random_channel(rng) -> Channel:
    return channel_params_from_cm2(
        detector_area_cm2=rng.uniform(0.2, 3.0),
        semi_angle_deg=rng.uniform(20.0, 80.0),
        fov_deg=rng.uniform(20.0, 89.0),
        responsivity=rng.uniform(0.1, 1.0),
    )


def check_fov_cutoff(n_cases: int = 1000, seed: int = 101) -> int:
    """Gain is positive inside the field of view and exactly zero outside."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        params = _random_channel(rng)
        ap = Pos3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(2.0, 4.0))
        ue = Pos3(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0.0, 1.5))
        geo = link_geometry(ap, ue)
        gate = rect_fov(geo.incidence_angle, params.fov_rad)
        g = channel_gain(ap, ue, params)
        inside = geo.incidence_angle <= params.fov_rad
        assert gate == (1.0 if inside else 0.0)
        assert (g > 0.0) == inside, (geo.incidence_angle, params.fov_rad)
        # vectorized kernel applies the same cutoff
        gk = kernels.lambertian_gains(
            np.array([ue.x - ap.x]), np.array([ue.y - ap.y]), ap.z - ue.z,
            params.semi_angle_half_intensity, params.detector_area, params.fov_angle,
        )[0]
        assert (gk > 0.0) == inside
    return n_cases


def check_gain_monotonicity(n_cases: int = 1000, seed: int = 102) -> int:
    """Gain never increases as a UE slides horizontally away from the AP."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        params = _random_channel(rng)
        ap = Pos3(0.0, 0.0, rng.uniform(2.0, 4.0))
        height = rng.uniform(0.0, 1.5)
        r1 = rng.uniform(0.0, 6.0)
        r2 = r1 + rng.uniform(0.05, 4.0)
        phi = rng.uniform(0.0, 2 * math.pi)
        g1 = channel_gain(ap, Pos3(r1 * math.cos(phi), r1 * math.sin(phi), height), params)
        g2 = channel_gain(ap, Pos3(r2 * math.cos(phi), r2 * math.sin(phi), height), params)
        r = np.array([r1, r2])
        gk1, gk2 = kernels.lambertian_gains(r * math.cos(phi), r * math.sin(phi), ap.z - height,
                                            params.semi_angle_half_intensity,
                                            params.detector_area, params.fov_angle)
        for near, far in ((g1, g2), (gk1, gk2)):
            assert near >= far, (r1, r2, near, far)
            if far > 0.0:  # both inside the field of view: strictly decreasing
                assert near > far
    return n_cases


def check_ici_linearity(n_cases: int = 1000, seed: int = 103) -> int:
    """Leakage is linear: chi(c*x) = c*chi(x) and chi(x+y) = chi(x)+chi(y)."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        n = int(rng.integers(1, 5))
        j = int(rng.integers(1, 4))
        snap = SlotChannelSnapshot(
            rng.uniform(0, 8e-6, n),
            rng.uniform(0, 2e-6, (j, n)),
            [rng.uniform(0, 2e-6, int(rng.integers(0, 4))) for _ in range(j)],
        )
        eta = rng.uniform(0.1, 1.0)
        zeros = np.zeros((j, n))
        x = rng.uniform(0, 4e-3, n)
        y = rng.uniform(0, 4e-3, n)
        c = rng.uniform(0.01, 100.0)
        outgoing = snap.outgoing_sum()
        for leak in (
            lambda p: total_ici(PowerVector(p, zeros), snap, eta),
            # the leaked power of kernels.utility, on the summed powers
            lambda p: kernels.utility(0.0, n, float(p.sum()), outgoing, eta, 1.0, 1.0)[1],
        ):
            chi_x, chi_y, chi_cx, chi_xy = leak(x), leak(y), leak(c * x), leak(x + y)
            assert math.isclose(chi_cx, c * chi_x, rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(chi_xy, chi_x + chi_y, rel_tol=1e-12, abs_tol=1e-300)
    return n_cases


def check_sinr_monotonicity(n_cases: int = 1000, seed: int = 104) -> int:
    """SINR rises with own power and falls as any interferer turns up."""
    rng = np.random.default_rng(seed)
    link = Link(20e6, 1e-21, 0.5)
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        target = int(rng.integers(n))
        squared = bool(rng.integers(2))
        snap = SlotChannelSnapshot(
            rng.uniform(1e-7, 8e-6, n),
            rng.uniform(1e-8, 2e-6, (j, n)),
            [np.empty(0)] * j,
        )
        eta = rng.uniform(0.1, 1.0)
        x = rng.uniform(1e-4, 4e-3, n)
        xi = rng.uniform(0, 4e-3, (j, n))
        base = sinr(target, PowerVector(x, xi), snap, link, eta, squared)
        boosted = x.copy()
        boosted[target] *= 1.0 + rng.uniform(0.1, 2.0)
        assert sinr(target, PowerVector(boosted, xi), snap, link, eta, squared) > base
        noisier = xi.copy()
        noisier[int(rng.integers(j)), target] += rng.uniform(1e-4, 4e-3)
        assert sinr(target, PowerVector(x, noisier), snap, link, eta, squared) < base
        # kernels.level_rates: the rate rises along the power grid 0 < x < boosted,
        # and falls from the first slot's interference to the second's
        terms = eta * np.stack((xi, noisier)) * snap.interferer_gains
        rates = kernels.level_rates(
            np.array([0.0, x[target], boosted[target]]),
            np.tile(snap.serving_gains, (2, 1)),
            (terms * terms if squared else terms).sum(axis=1),
            per_ue_bandwidth(link, n), link.noise_psd, eta, squared,
        )[:, target]
        assert (np.diff(rates, axis=1) > 0.0).all(), rates
        assert (rates[1, 1:] < rates[0, 1:]).all(), rates
    return n_cases


def check_argmax_invariance(n_cases: int = 1000, seed: int = 105) -> int:
    """Positive scaling of a value row never changes the greedy choice."""
    rng = np.random.default_rng(seed)
    state, n_actions = 0, 4
    for _ in range(n_cases):
        row = rng.normal(0.0, 10.0, n_actions)  # ties have measure zero
        c = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        assert int(np.argmax(row)) == int(np.argmax(c * row))
        q1, q2 = QTable(n_actions), QTable(n_actions)
        for a, v in enumerate(row):
            q1.set(state, a, v)
            q2.set(state, a, c * v)
        pick1 = q1[state].select(False, 0.5)
        pick2 = q2[state].select(False, 0.5)
        assert pick1 == pick2 == int(np.argmax(row))
    return n_cases


def check_mobility_confinement(n_cases: int = 1000, seed: int = 106) -> int:
    """Walkers never leave their rectangle, whatever the bounds and speeds."""
    rng = np.random.default_rng(seed)
    cases = 0
    while cases < n_cases:
        x0 = rng.uniform(-10, 10)
        y0 = rng.uniform(-10, 10)
        bounds = (x0, x0 + rng.uniform(0.5, 6.0), y0, y0 + rng.uniform(0.5, 6.0))
        v_min = rng.uniform(0.0, 1.0)
        v_max = v_min + rng.uniform(0.0, 2.0)
        slot_duration = rng.uniform(0.02, 0.5)
        n_ues = int(rng.integers(1, 4))
        n_slots = int(rng.integers(5, 40))
        paths = simulate_paths([(n_ues, bounds)], v_min, v_max, slot_duration, n_slots, rng)
        eps = 1e-9
        assert (paths[:, :, 0] >= bounds[0] - eps).all()
        assert (paths[:, :, 0] <= bounds[1] + eps).all()
        assert (paths[:, :, 1] >= bounds[2] - eps).all()
        assert (paths[:, :, 1] <= bounds[3] + eps).all()
        cases += n_slots * n_ues
    return cases


ALL_CHECKS = {
    "fov cutoff": check_fov_cutoff,
    "gain monotonicity": check_gain_monotonicity,
    "ici linearity": check_ici_linearity,
    "sinr monotonicity": check_sinr_monotonicity,
    "argmax invariance": check_argmax_invariance,
    "mobility confinement": check_mobility_confinement,
}
