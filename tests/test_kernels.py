"""The vectorized kernels must agree with the scalar reference code, and the
reference code with hand values.

Numeric expectations in the reference-code tests were computed independently
with 40-digit arithmetic from the closed-form expressions, then frozen here.
"""

import math

import numpy as np
import pytest

from oracles import (
    Link, PowerVector, Pos3, SlotChannelSnapshot, Weights, achievable_rate, channel_gain,
    channel_params_from_cm2, joint_actions, link_geometry, per_ue_bandwidth, rect_fov, sinr,
    total_ici, utility,
)
from vlcudn import kernels
from vlcudn.agent import enumerate_actions
from vlcudn.kernels import lambertian_order

PARAMS = channel_params_from_cm2(1.0, 60.0, 70.0, 0.54)
LINK = Link(total_bandwidth=20e6, noise_psd=1e-21, effective_bandwidth_factor=0.5)
ETA = 0.54


@pytest.mark.parametrize("area_cm2,semi_deg,fov_deg,dz", [
    pytest.param(1.0, 60.0, 70.0, 2.0, id="1cm2-60deg-fov70-2m"),
    pytest.param(0.5, 45.0, 60.0, 2.15, id="0.5cm2-45deg-fov60-2.15m"),
    pytest.param(3.0, 20.0, 89.0, 0.5, id="3cm2-20deg-fov89-0.5m"),
    pytest.param(0.2, 80.0, 30.0, 3.0, id="0.2cm2-80deg-fov30-3m"),
    pytest.param(2.0, 10.0, 90.0, 1.0, id="2cm2-10deg-fov90-1m"),
])
def test_lambertian_gains_matches_scalar_gain(area_cm2, semi_deg, fov_deg, dz):
    params = channel_params_from_cm2(area_cm2, semi_deg, fov_deg, 0.54)
    rng = np.random.default_rng(42)
    n = 400
    dx = rng.uniform(-8.0, 8.0, n)  # wide enough to cross the FOV edge of the narrower fields
    dy = rng.uniform(-8.0, 8.0, n)
    got = kernels.lambertian_gains(dx, dy, dz, semi_deg, params.detector_area, fov_deg)
    ap = Pos3(0.0, 0.0, dz)
    for i in range(n):
        want = channel_gain(ap, Pos3(dx[i], dy[i], 0.0), params)
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_lambertian_gains_keeps_a_receiver_exactly_on_the_fov_edge():
    # 3 m across, 4 m down: cos(theta) is exactly 4/5, and so is the cosine
    # of this FOV; the edge counts as inside
    fov_deg = 36.86989764584401
    assert math.cos(math.radians(fov_deg)) == 4.0 / math.sqrt(25.0) == 0.8
    gains = kernels.lambertian_gains(np.array([3.0, 0.0, 3.0 + 1e-9]), np.array([0.0, 3.0, 0.0]),
                                     4.0, 60.0, 1e-4, fov_deg)
    assert gains[0] > 0.0 and gains[1] == gains[0] and gains[2] == 0.0


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


# The reference code the checks above rely on: the Lambertian order, gain
# geometry and field of view, SINR, rate, leakage and utility.  A frozen
# value that release gate 1 pins at the same or a looser bound is not
# repeated here.

class TestLambertianOrder:
    def test_thirty_degrees(self):
        assert lambertian_order(30.0) == pytest.approx(4.818841679306418, rel=1e-12)

    @pytest.mark.parametrize("angle", [120.0])
    def test_rejects_angles_outside_open_interval(self, angle):
        with pytest.raises(ValueError):
            lambertian_order(angle)


class TestLinkGeometry:
    def test_vertical_link(self):
        geom = link_geometry(Pos3(2.0, 3.0, 3.0), Pos3(2.0, 3.0, 1.0))
        assert geom.distance == pytest.approx(2.0, rel=1e-12)
        assert geom.irradiance_angle == 0.0
        assert geom.incidence_angle == 0.0

    def test_offset_link(self):
        geom = link_geometry(Pos3(5.0, 5.0, 3.0), Pos3(7.0, 5.0, 1.0))
        assert geom.distance == pytest.approx(math.sqrt(8.0), rel=1e-12)
        # 2 m down, 2 m across: both angles are 45 degrees
        assert geom.irradiance_angle == pytest.approx(0.78539816339744831, rel=1e-12)
        assert geom.incidence_angle == geom.irradiance_angle


class TestRectFov:
    def test_inside(self):
        assert rect_fov(0.5, 1.0) == 1

    def test_boundary_counts_as_inside(self):
        assert rect_fov(1.0, 1.0) == 1

    def test_outside(self):
        assert rect_fov(1.0000001, 1.0) == 0

    def test_symmetric_in_sign(self):
        assert rect_fov(-0.9, 1.0) == rect_fov(0.9, 1.0)


class TestChannelGain:
    def test_zero_outside_fov(self):
        # 6 m across, 2 m down: incidence 71.57 deg > 70 deg
        assert channel_gain(Pos3(5.0, 5.0, 3.0), Pos3(11.0, 5.0, 1.0), PARAMS) == 0.0

    def test_positive_just_inside_fov(self):
        r = 2.0 * math.tan(math.radians(69.9))
        gain = channel_gain(Pos3(0.0, 0.0, 3.0), Pos3(r, 0.0, 1.0), PARAMS)
        assert gain > 0.0

    def test_gain_drops_with_offset(self):
        gains = [
            channel_gain(Pos3(0.0, 0.0, 3.0), Pos3(r, 0.0, 1.0), PARAMS)
            for r in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert gains == sorted(gains, reverse=True)


def _no_interference_snapshot(h: float) -> SlotChannelSnapshot:
    return SlotChannelSnapshot([h], np.empty((0, 1)), [])


class TestSinr:
    def test_zero_power_gives_zero(self):
        snap = _no_interference_snapshot(7.9577471545947668e-6)
        powers = PowerVector([0.0], np.empty((0, 1)))
        assert sinr(0, powers, snap, LINK, ETA) == 0.0

    def test_interference_equal_to_noise_halves_sinr(self):
        h = 5e-6
        snap_free = _no_interference_snapshot(h)
        free = sinr(0, PowerVector([2e-3], np.empty((0, 1))), snap_free, LINK, ETA)
        # one interferer whose received term equals the noise term
        noise_term = per_ue_bandwidth(LINK, 1) * LINK.noise_psd
        gamma = 1e-6
        x_j = noise_term / (ETA * gamma)
        snap = SlotChannelSnapshot([h], [[gamma]], [np.empty(0)])
        halved = sinr(0, PowerVector([2e-3], [[x_j]]), snap, LINK, ETA)
        assert halved == pytest.approx(free / 2.0, rel=1e-12)

    def test_squared_mode(self):
        h, x, gamma, x_j = 5e-6, 2e-3, 1e-6, 1.5e-3
        snap = SlotChannelSnapshot([h], [[gamma]], [np.empty(0)])
        powers = PowerVector([x], [[x_j]])
        wn = per_ue_bandwidth(LINK, 1)
        want = (ETA * x * h) ** 2 / (wn * LINK.noise_psd + (ETA * x_j * gamma) ** 2)
        assert sinr(0, powers, snap, LINK, ETA, squared=True) == pytest.approx(
            want, rel=1e-12
        )


class TestAchievableRate:
    def test_zero_sinr(self):
        assert achievable_rate(10e6, 0.0) == 0.0

    def test_unit_sinr_doubles_capacity_argument(self):
        assert achievable_rate(10e6, 1.0) == pytest.approx(10e6, rel=1e-12)


class TestTotalIci:
    def test_zero_powers(self):
        snap = SlotChannelSnapshot([1e-6], [[1e-6]], [np.array([1e-6])])
        assert total_ici(PowerVector([0.0], [[1e-3]]), snap, ETA) == 0.0

    def test_single_term_oracle(self):
        snap = SlotChannelSnapshot([1e-6], [[0.0]], [np.array([1e-6])])
        got = total_ici(PowerVector([4e-3], [[0.0]]), snap, ETA)
        assert got == pytest.approx(2.16e-9, rel=1e-12)

    def test_doubling_powers_doubles_leakage(self):
        rng = np.random.default_rng(8)
        outgoing = [rng.uniform(0, 2e-6, 3) for _ in range(2)]
        snap = SlotChannelSnapshot(
            rng.uniform(1e-6, 8e-6, 2), rng.uniform(0, 2e-6, (2, 2)), outgoing
        )
        x = rng.uniform(0, 4e-3, 2)
        base = total_ici(PowerVector(x, np.zeros((2, 2))), snap, ETA)
        double = total_ici(PowerVector(2 * x, np.zeros((2, 2))), snap, ETA)
        assert double == pytest.approx(2 * base, rel=1e-12)


class TestUtility:
    WEIGHTS = Weights(energy_weight=1.0, interference_weight=1e3)

    def test_all_zero_is_zero(self):
        powers = PowerVector([0.0, 0.0], np.empty((0, 2)))
        assert utility([0.0, 0.0], powers, 0.0, self.WEIGHTS) == 0.0

    def test_zero_weights_give_mean_rate_in_mbps(self):
        powers = PowerVector([2e-3, 2e-3], np.empty((0, 2)))
        got = utility([10e6, 20e6], powers, 1e-9, Weights(0.0, 0.0))
        assert got == pytest.approx(15.0, rel=1e-12)


def test_full_power_maximizes_rate_only_utility():
    # with zero weights the best joint action is everyone at max power
    rng = np.random.default_rng(13)
    actions = joint_actions(enumerate_actions(5, 4e-3), 2)
    serving = rng.uniform(1e-6, 8e-6, 2)
    gamma = rng.uniform(0, 2e-6, (3, 2))
    snap = SlotChannelSnapshot(serving, gamma, [np.empty(0)] * 3)
    x_nb = np.full((3, 2), 2e-3)
    wn = per_ue_bandwidth(LINK, 2)
    weights = Weights(0.0, 0.0)
    best, best_u = None, -np.inf
    for a, row in enumerate(actions):
        powers = PowerVector(row, x_nb)
        rates = [
            achievable_rate(wn, sinr(n, powers, snap, LINK, ETA)) for n in range(2)
        ]
        u = utility(rates, powers, total_ici(powers, snap, ETA), weights)
        if u > best_u:
            best, best_u = a, u
    assert best == len(actions) - 1
