"""The vectorized kernels must agree with the scalar reference code."""

import numpy as np
import pytest

from vlcudn import kernels
from vlcudn.channel import ChannelParams, Pos3, channel_gain
from vlcudn.metrics import (
    LinkParams,
    PowerVector,
    SlotChannelSnapshot,
    UtilityWeights,
    achievable_rate,
    per_ue_bandwidth,
    sinr,
    total_ici,
    utility,
)

PARAMS = ChannelParams.from_cm2(1.0, 60.0, 70.0, 0.54)
LINK = LinkParams(total_bandwidth=20e6, noise_psd=1e-21, effective_bandwidth_factor=0.5)


def _gain_args(params: ChannelParams):
    m = params.lambertian_order
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
def test_link_rates_matches_metrics_ops(squared):
    rng = np.random.default_rng(7)
    n_ues, n_nb = 3, 4
    serving = rng.uniform(1e-6, 8e-6, n_ues)
    gamma = rng.uniform(0.0, 2e-6, (n_nb, n_ues))
    x = rng.uniform(0.0, 4e-3, n_ues)
    x_nb = np.full((n_nb, n_ues), 1.5e-3)
    snapshot = SlotChannelSnapshot(serving, gamma, [np.empty(0)] * n_nb)
    powers = PowerVector(x, x_nb)
    wn = per_ue_bandwidth(LINK, n_ues)
    eta = PARAMS.responsivity

    terms = eta * x_nb * gamma
    if squared:
        terms = terms * terms
    interference = terms.sum(axis=0)
    _, rates, _, _ = kernels.action_utilities(
        x[None, :], serving, interference, wn, LINK.noise_psd, eta, squared, 0.0, 4.0, 1e6
    )
    assert rates.shape == (1, n_ues)

    for n in range(n_ues):
        zeta = sinr(n, powers, snapshot, LINK, eta, squared=squared)
        assert rates[0, n] == pytest.approx(achievable_rate(wn, zeta), rel=1e-12)


@pytest.mark.parametrize("squared", [False, True])
def test_action_utilities_matches_metrics_ops(squared):
    rng = np.random.default_rng(11)
    n_ues, n_nb, n_foreign, n_actions = 2, 3, 2, 16
    serving = rng.uniform(1e-6, 8e-6, n_ues)
    gamma = rng.uniform(0.0, 2e-6, (n_nb, n_ues))
    outgoing = [rng.uniform(0.0, 2e-6, n_foreign) for _ in range(n_nb)]
    snapshot = SlotChannelSnapshot(serving, gamma, outgoing)
    x_nb = np.full((n_nb, n_ues), 2e-3)
    action_powers = rng.uniform(0.0, 4e-3, (n_actions, n_ues))
    weights = UtilityWeights(energy_weight=4.0, interference_weight=1e6)
    wn = per_ue_bandwidth(LINK, n_ues)
    eta = PARAMS.responsivity

    terms = eta * x_nb * gamma
    if squared:
        terms = terms * terms
    interference = terms.sum(axis=0)
    got, _, power, leaked = kernels.action_utilities(
        action_powers, serving, interference, wn, LINK.noise_psd, eta,
        squared, snapshot.outgoing_sum(), weights.energy_weight,
        weights.interference_weight,
    )

    for a in range(n_actions):
        powers = PowerVector(action_powers[a], x_nb)
        rates = [
            achievable_rate(wn, sinr(n, powers, snapshot, LINK, eta, squared=squared))
            for n in range(n_ues)
        ]
        chi = total_ici(powers, snapshot, eta)
        want = utility(rates, powers, chi, weights)
        assert got[a] == pytest.approx(want, rel=1e-12)
        assert power[a] == pytest.approx(powers.serving.sum(), rel=1e-12)
        assert leaked[a] == pytest.approx(chi, rel=1e-12)


def test_advance_positions_lands_exactly_on_waypoint():
    pos = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.4]])
    wp = np.array([[3.0, 4.0], [1.0, 1.0], [0.3, 0.4]])
    step = np.array([10.0, 0.5, 0.0])
    out, arrived = kernels.advance_positions(pos, wp, step)
    assert arrived.tolist() == [True, True, True]
    assert np.array_equal(out, wp)


def test_advance_positions_partial_move_is_collinear():
    pos = np.array([[0.0, 0.0]])
    wp = np.array([[3.0, 4.0]])
    out, arrived = kernels.advance_positions(pos, wp, np.array([1.0]))
    assert not arrived[0]
    # unit step along the (3,4)/5 direction
    assert out[0, 0] == pytest.approx(0.6, rel=1e-12)
    assert out[0, 1] == pytest.approx(0.8, rel=1e-12)

