"""The vectorized kernels must agree with the scalar reference code."""

import numpy as np
import pytest

from oracles import (
    Channel, Link, PowerVector, Pos3, SlotChannelSnapshot, Weights, achievable_rate,
    channel_gain, channel_params_from_cm2, per_ue_bandwidth, sinr, total_ici, utility,
)
from vlcudn import kernels

PARAMS = channel_params_from_cm2(1.0, 60.0, 70.0, 0.54)
LINK = Link(total_bandwidth=20e6, noise_psd=1e-21, effective_bandwidth_factor=0.5)


def _gain_args(params: Channel):
    m = kernels.lambertian_order(params.semi_angle_half_intensity)
    coef = (m + 1.0) * params.detector_area / (2.0 * np.pi)
    return m, coef, np.cos(params.fov_rad)


def test_lambertian_gains_matches_scalar_gain():
    rng = np.random.default_rng(42)
    n = 400
    dx = rng.uniform(-8.0, 8.0, n)  # wide enough to cross the FOV edge
    dy = rng.uniform(-8.0, 8.0, n)
    dz = 2.0
    m, coef, cos_fov = _gain_args(PARAMS)
    got = kernels.lambertian_gains(dx, dy, dz, m, coef, cos_fov)
    ap = Pos3(0.0, 0.0, 3.0)
    for i in range(n):
        want = channel_gain(ap, Pos3(dx[i], dy[i], 1.0), PARAMS)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("squared", [False, True])
def test_level_rates_matches_metrics_ops(squared):
    rng = np.random.default_rng(7)
    n_slots, n_ues, n_nb = 4, 3, 4
    levels = np.arange(6) * (4e-3 / 5)
    serving = rng.uniform(1e-6, 8e-6, (n_slots, n_ues))
    gamma = rng.uniform(0.0, 2e-6, (n_slots, n_nb, n_ues))
    x_nb = np.full((n_nb, n_ues), 1.5e-3)
    wn = per_ue_bandwidth(LINK, n_ues)
    eta = PARAMS.responsivity

    terms = eta * x_nb * gamma
    if squared:
        terms = terms * terms
    interference = terms.sum(axis=1)
    rates = kernels.level_rates(levels, serving, interference, wn, LINK.noise_psd, eta, squared)
    assert rates.shape == (n_slots, n_ues, levels.size)

    for k in range(n_slots):
        snapshot = SlotChannelSnapshot(serving[k], gamma[k], [np.empty(0)] * n_nb)
        for level, x in enumerate(levels):
            powers = PowerVector(np.full(n_ues, x), x_nb)
            for n in range(n_ues):
                zeta = sinr(n, powers, snapshot, LINK, eta, squared=squared)
                want = achievable_rate(wn, zeta)
                assert rates[k, n, level] == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("squared", [False, True])
def test_utility_matches_metrics_ops(squared):
    rng = np.random.default_rng(11)
    n_ues, n_nb, n_foreign, n_actions = 2, 3, 2, 16
    serving = rng.uniform(1e-6, 8e-6, n_ues)
    gamma = rng.uniform(0.0, 2e-6, (n_nb, n_ues))
    outgoing = [rng.uniform(0.0, 2e-6, n_foreign) for _ in range(n_nb)]
    snapshot = SlotChannelSnapshot(serving, gamma, outgoing)
    x_nb = np.full((n_nb, n_ues), 2e-3)
    action_powers = rng.uniform(0.0, 4e-3, (n_actions, n_ues))
    weights = Weights(energy_weight=4.0, interference_weight=1e6)
    wn = per_ue_bandwidth(LINK, n_ues)
    eta = PARAMS.responsivity
    cross = snapshot.outgoing_sum()

    rates = np.array([
        [achievable_rate(wn, sinr(n, PowerVector(x, x_nb), snapshot, LINK, eta,
                                  squared=squared)) for n in range(n_ues)]
        for x in action_powers
    ])
    rate_sum = rates[:, 0] + rates[:, 1]
    total_w = action_powers[:, 0] + action_powers[:, 1]
    got, leaked = kernels.utility(rate_sum, n_ues, total_w, cross, eta,
                                  weights.energy_weight, weights.interference_weight)

    for a in range(n_actions):
        powers = PowerVector(action_powers[a], x_nb)
        chi = total_ici(powers, snapshot, eta)
        want = utility(rates[a], powers, chi, weights)
        assert got[a] == pytest.approx(want, rel=1e-12)
        assert leaked[a] == pytest.approx(chi, rel=1e-12)
        # the learner's loop calls it on Python floats: the same bits
        scalar = kernels.utility(float(rate_sum[a]), n_ues, float(total_w[a]), cross, eta,
                                 weights.energy_weight, weights.interference_weight)
        assert type(scalar[0]) is float and scalar == (got[a], leaked[a])
