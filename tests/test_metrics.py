"""SINR, rate, leakage and utility arithmetic against frozen hand values."""

import numpy as np
import pytest

from oracles import (
    Link, PowerVector, SlotChannelSnapshot, Weights, achievable_rate, joint_actions,
    per_ue_bandwidth, sinr, total_ici, utility,
)
from vlcudn.agent import enumerate_actions
from vlcudn.config import load_experiment

LINK = Link(total_bandwidth=20e6, noise_psd=1e-21, effective_bandwidth_factor=0.5)
ETA = 0.54


def _no_interference_snapshot(h: float) -> SlotChannelSnapshot:
    return SlotChannelSnapshot([h], np.empty((0, 1)), [])


class TestPerUeBandwidth:
    """ExperimentConfig.per_ue_bandwidth on the [link] keys (20 MHz, factor 0.5)."""

    def test_single_ue_gets_effective_band(self, make_config):
        cfg = load_experiment(make_config({"experiment.ue_density": 1}))
        assert cfg.per_ue_bandwidth() == pytest.approx(10e6, rel=1e-12)

    def test_four_ues_share_equally(self, make_config):
        cfg = load_experiment(make_config({"experiment.ue_density": 4}))
        assert cfg.per_ue_bandwidth() == pytest.approx(2.5e6, rel=1e-12)

    def test_unit_factor(self, make_config):
        cfg = load_experiment(make_config({"link.effective_bandwidth_factor": 1.0}))
        assert cfg.per_ue_bandwidth() == pytest.approx(10e6, rel=1e-12)
        assert cfg.per_ue_bandwidth() == per_ue_bandwidth(cfg, cfg.ue_density)


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

