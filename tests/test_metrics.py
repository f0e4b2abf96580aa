"""SINR, rate, leakage and utility arithmetic against frozen hand values."""

import numpy as np
import pytest

from oracles import PowerVector, SlotChannelSnapshot, achievable_rate, sinr, total_ici, utility
from vlcudn.agent import enumerate_actions
from vlcudn.metrics import LinkParams, UtilityWeights, per_ue_bandwidth

LINK = LinkParams(total_bandwidth=20e6, noise_psd=1e-21, effective_bandwidth_factor=0.5)
ETA = 0.54


def _no_interference_snapshot(h: float) -> SlotChannelSnapshot:
    return SlotChannelSnapshot([h], np.empty((0, 1)), [])


class TestPerUeBandwidth:
    def test_single_ue_gets_effective_band(self):
        assert per_ue_bandwidth(LINK, 1) == pytest.approx(10e6, rel=1e-12)

    def test_four_ues_share_equally(self):
        assert per_ue_bandwidth(LINK, 4) == pytest.approx(2.5e6, rel=1e-12)

    def test_unit_factor(self):
        link = LinkParams(20e6, 1e-21, 1.0)
        assert per_ue_bandwidth(link, 2) == pytest.approx(10e6, rel=1e-12)


class TestSinr:
    def test_zero_power_gives_zero(self):
        snap = _no_interference_snapshot(7.9577471545947668e-6)
        powers = PowerVector([0.0], np.empty((0, 1)))
        assert sinr(0, powers, snap, LINK, ETA) == 0.0

    def test_no_interference_oracle(self):
        snap = _no_interference_snapshot(7.9577471545947668e-6)
        powers = PowerVector([4e-3], np.empty((0, 1)))
        assert sinr(0, powers, snap, LINK, ETA) == pytest.approx(
            1718873.3853924696, rel=1e-9
        )

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

    def test_dimension_mismatch_rejected(self):
        snap = SlotChannelSnapshot([1e-6, 2e-6], np.empty((0, 2)), [])
        with pytest.raises(ValueError):
            sinr(0, PowerVector([1e-3], np.empty((0, 1))), snap, LINK, ETA)
        with pytest.raises(ValueError):
            sinr(5, PowerVector([1e-3, 1e-3], np.empty((0, 2))), snap, LINK, ETA)


class TestAchievableRate:
    def test_zero_sinr(self):
        assert achievable_rate(10e6, 0.0) == 0.0

    def test_unit_sinr_doubles_capacity_argument(self):
        assert achievable_rate(10e6, 1.0) == pytest.approx(10e6, rel=1e-12)

    def test_oracle_rate(self):
        assert achievable_rate(10e6, 1718873.3853924696) == pytest.approx(
            207130326.8645367, rel=1e-9
        )

    def test_rejects_negative_sinr(self):
        with pytest.raises(ValueError):
            achievable_rate(10e6, -0.1)


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
    WEIGHTS = UtilityWeights(energy_weight=1.0, interference_weight=1e3)

    def test_all_zero_is_zero(self):
        powers = PowerVector([0.0, 0.0], np.empty((0, 2)))
        assert utility([0.0, 0.0], powers, 0.0, self.WEIGHTS) == 0.0

    def test_zero_weights_give_mean_rate_in_mbps(self):
        powers = PowerVector([2e-3, 2e-3], np.empty((0, 2)))
        got = utility([10e6, 20e6], powers, 1e-9, UtilityWeights(0.0, 0.0))
        assert got == pytest.approx(15.0, rel=1e-12)

    def test_mixed_unit_oracle(self):
        # mean 15 Mbit/s, 4 mW spent, 1e-6 mW leaked with weight 1e3/mW
        powers = PowerVector([2e-3, 2e-3], np.empty((0, 2)))
        got = utility([10e6, 20e6], powers, 1e-9, self.WEIGHTS)
        assert got == pytest.approx(10.999, rel=1e-9)

    def test_rejects_mismatched_rates(self):
        powers = PowerVector([1e-3], np.empty((0, 1)))
        with pytest.raises(ValueError):
            utility([1e6, 2e6], powers, 0.0, self.WEIGHTS)

    def test_rejects_negative_ici(self):
        powers = PowerVector([1e-3], np.empty((0, 1)))
        with pytest.raises(ValueError):
            utility([1e6], powers, -1e-12, self.WEIGHTS)


def test_full_power_maximizes_rate_only_utility():
    # with zero weights the best joint action is everyone at max power
    rng = np.random.default_rng(13)
    actions = enumerate_actions(5, 4e-3, 2)
    serving = rng.uniform(1e-6, 8e-6, 2)
    gamma = rng.uniform(0, 2e-6, (3, 2))
    snap = SlotChannelSnapshot(serving, gamma, [np.empty(0)] * 3)
    x_nb = np.full((3, 2), 2e-3)
    wn = per_ue_bandwidth(LINK, 2)
    weights = UtilityWeights(0.0, 0.0)
    best, best_u = None, -np.inf
    for a in range(actions.n_actions):
        powers = PowerVector(actions.decode(a), x_nb)
        rates = [
            achievable_rate(wn, sinr(n, powers, snap, LINK, ETA)) for n in range(2)
        ]
        u = utility(rates, powers, total_ici(powers, snap, ETA), weights)
        if u > best_u:
            best, best_u = a, u
    assert best == actions.n_actions - 1


def test_snapshot_and_powers_validation():
    with pytest.raises(ValueError):
        SlotChannelSnapshot([[1e-6]], np.empty((0, 1)), [])  # 2-D serving
    with pytest.raises(ValueError):
        SlotChannelSnapshot([1e-6], np.empty((2, 3)), [np.empty(0)] * 2)  # N mismatch
    with pytest.raises(ValueError):
        SlotChannelSnapshot([1e-6], np.empty((2, 1)), [np.empty(0)])  # J mismatch
    with pytest.raises(ValueError):
        SlotChannelSnapshot([-1e-6], np.empty((0, 1)), [])  # negative gain
    with pytest.raises(ValueError):
        PowerVector([-1e-3], np.empty((0, 1)))
    with pytest.raises(ValueError):
        PowerVector([1e-3, 2e-3], [[1e-3]])  # wrong interferer width
    with pytest.raises(ValueError):
        UtilityWeights(-1.0, 0.0)
