"""Learner building blocks: quantizer, action set, table, selection, update."""

import numpy as np
import pytest

from oracles import joint_actions
from vlcudn.agent import (
    ActionSet,
    AgentConfig,
    Experience,
    QTable,
    StateKey,
    StateQuantizer,
    enumerate_actions,
    epsilon_at,
    quantize_state,
    select_action,
    update_q,
    warmup_policy,
)

QUANT = StateQuantizer(rate_bins=4, gain_bins=4, rate_max=2.0**25, gain_max=8e-6)


def _cfg(**overrides):
    base = dict(
        power_levels=5,
        max_power=4e-3,
        learning_rate=0.9,
        discount=0.3,
        epsilon_start=0.9,
        epsilon_end=0.1,
        epsilon_decay_slots=1000,
        warmup_slots=20,
        max_slots=3000,
    )
    base.update(overrides)
    return AgentConfig(**base)


class TestQuantizeState:
    def test_zeros_land_in_bin_zero(self):
        key = quantize_state([0.0, 0.0], [0.0, 0.0], 2, QUANT)
        assert key == StateKey((0, 0), (0, 0), 2)

    def test_interior_edge_goes_to_upper_bin(self):
        # 2^23 * (4 / 2^25) is exactly 1.0, so the edge value lands in bin 1
        key = quantize_state([2.0**23], [0.0], 1, QUANT)
        assert key.rate_bins == (1,)

    def test_just_below_edge_stays_in_lower_bin(self):
        key = quantize_state([2.0**23 * (1 - 1e-12)], [0.0], 1, QUANT)
        assert key.rate_bins == (0,)

    def test_values_at_or_above_max_clamp_to_top_bin(self):
        key = quantize_state([QUANT.rate_max, 10 * QUANT.rate_max], [0.0, 0.0], 2, QUANT)
        assert key.rate_bins == (3, 3)

    def test_gain_component(self):
        key = quantize_state([0.0], [5e-6], 1, QUANT)
        assert key.gain_bins == (2,)  # 5e-6 / (8e-6/4) = 2.5 -> floor 2

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            quantize_state([1.0], [1.0, 2.0], 2, QUANT)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            quantize_state([-1.0], [0.0], 1, QUANT)

    def test_quantizer_validation(self):
        with pytest.raises(ValueError):
            StateQuantizer(0, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            StateQuantizer(4, 4, 0.0, 1.0)


class TestStateKey:
    def test_str_roundtrip(self):
        key = StateKey((3, 0, 2), (1, 1, 0), 3)
        assert StateKey.from_str(key.to_str()) == key

    def test_str_format(self):
        assert StateKey((1, 2), (0, 3), 2).to_str() == "1,2|0,3|2"

    @pytest.mark.parametrize("text", ["", "1|2", "1,2|0|2", "a,b|0,0|2", "1|0|1|extra"])
    def test_malformed_strings_rejected(self, text):
        with pytest.raises(ValueError):
            StateKey.from_str(text)

    def test_tuple_lengths_must_match_density(self):
        with pytest.raises(ValueError):
            StateKey((0, 1), (0,), 2)
        with pytest.raises(ValueError):
            StateKey((0,), (0,), 0)


class TestEnumerateActions:
    def test_level_values(self):
        actions = enumerate_actions(5, 4e-3, 1)
        want = [0.0, 0.8e-3, 1.6e-3, 2.4e-3, 3.2e-3, 4e-3]
        assert actions.levels == pytest.approx(want, rel=1e-12)
        assert actions.levels[0] == 0.0

    def test_two_ue_lexicographic_order(self):
        actions = enumerate_actions(1, 2e-3, 2)
        assert actions.n_actions == 4
        rows = [actions.decode(a).tolist() for a in range(actions.n_actions)]
        assert rows == [[0.0, 0.0], [0.0, 2e-3], [2e-3, 0.0], [2e-3, 2e-3]]

    def test_three_ue_count_and_endpoints(self):
        actions = enumerate_actions(5, 4e-3, 3)
        assert actions.n_actions == 216
        assert actions.n_ues == 3
        assert (actions.decode(0) == 0.0).all()
        assert actions.decode(215) == pytest.approx([4e-3] * 3, rel=1e-12)

    def test_decode_follows_joint_scan_order(self):
        actions = enumerate_actions(5, 4e-3, 3)
        rows = joint_actions(actions.levels, 3)
        assert len(rows) == actions.n_actions
        for a, row in enumerate(rows):
            assert (actions.decode(a) == row).all()

    def test_decode_rejects_out_of_range_index(self):
        actions = enumerate_actions(5, 4e-3, 2)
        for index in (-1, actions.n_actions):
            with pytest.raises(ValueError):
                actions.decode(index)

    @pytest.mark.parametrize("kwargs", [
        dict(power_levels=0, max_power=1e-3, n_ues=1),
        dict(power_levels=5, max_power=0.0, n_ues=1),
        dict(power_levels=5, max_power=1e-3, n_ues=0),
    ])
    def test_argument_validation(self, kwargs):
        with pytest.raises(ValueError):
            enumerate_actions(**kwargs)


class TestQTable:
    S0 = StateKey((0,), (0,), 1)
    S1 = StateKey((1,), (0,), 1)

    def test_reads_do_not_insert(self):
        q = QTable(4)
        assert q.value(self.S0, 2) == 0.0
        assert q.max_value(self.S0) == 0.0
        assert (q.row(self.S0) == 0.0).all()
        assert len(q) == 0

    def test_set_and_read_back(self):
        q = QTable(4)
        q.set(self.S0, 2, -1.5)
        assert q.value(self.S0, 2) == -1.5
        assert q.max_value(self.S0) == 0.0  # other entries still zero
        assert len(q) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        q = QTable(4)
        with pytest.raises(ValueError):
            q.set(self.S0, 0, bad)

    def test_save_load_roundtrip_is_exact(self, tmp_path):
        q = QTable(6)
        entries = {
            (self.S0, 0): 3.141592653589793,
            (self.S0, 5): -2.5e-8,
            (self.S1, 3): 1.0 / 3.0,
        }
        for (state, action), value in entries.items():
            q.set(state, action, value)
        path = tmp_path / "q.tsv"
        q.save(path, QUANT, extra={"power_levels": 5, "max_power": 4e-3})
        loaded, meta = QTable.load(path)
        assert loaded.n_actions == 6
        for (state, action), value in entries.items():
            assert loaded.value(state, action) == value
        assert meta["rate_bins"] == 4
        assert meta["gain_bins"] == 4
        assert meta["rate_max"] == QUANT.rate_max
        assert meta["gain_max"] == QUANT.gain_max
        assert meta["power_levels"] == 5
        assert meta["max_power"] == 4e-3

    def test_save_skips_zero_entries(self, tmp_path):
        q = QTable(3)
        q.set(self.S0, 1, 2.0)
        q.set(self.S0, 2, 0.0)
        path = tmp_path / "q.tsv"
        q.save(path, QUANT)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1:] == ["0|0|1\t1\t2"]

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0|0|1\t1\t2.0\n")
        with pytest.raises(ValueError):
            QTable.load(path)

    def test_load_requires_action_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# rate_bins=4\n")
        with pytest.raises(ValueError):
            QTable.load(path)

    @pytest.mark.parametrize("action", [-1, 4])
    def test_load_rejects_out_of_range_action(self, tmp_path, action):
        path = tmp_path / "bad.tsv"
        path.write_text(f"# n_actions=4\n0|0|1\t{action}\t2.0\n")
        with pytest.raises(ValueError, match="outside"):
            QTable.load(path)

    def test_rejects_empty_table_size(self):
        with pytest.raises(ValueError):
            QTable(0)


class TestSelectAction:
    S = StateKey((0,), (0,), 1)

    def _table(self, row):
        q = QTable(len(row))
        for action, value in enumerate(row):
            if value:
                q.set(self.S, action, value)
        return q

    def test_greedy_when_epsilon_zero(self):
        q = self._table([0.0, 5.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        actions = enumerate_actions(3, 4e-3, 1)
        picks = {select_action(q, self.S, actions, 0.0, rng) for _ in range(50)}
        assert picks == {1}

    def test_fresh_state_is_uniform_any_epsilon(self):
        q = QTable(4)
        rng = np.random.default_rng(1)
        actions = enumerate_actions(3, 4e-3, 1)
        counts = np.zeros(4)
        for _ in range(8000):
            counts[select_action(q, self.S, actions, 0.9, rng)] += 1
        # every action is a maximizer, so the split should be near 1/4 each
        assert (counts > 0).all()
        assert np.abs(counts / 8000 - 0.25).max() < 0.03

    def test_explore_probability_split(self):
        q = self._table([0.0, 5.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        actions = enumerate_actions(3, 4e-3, 1)
        n = 30000
        counts = np.zeros(4)
        for _ in range(n):
            counts[select_action(q, self.S, actions, 0.4, rng)] += 1
        freq = counts / n
        assert freq[1] == pytest.approx(0.6, abs=0.015)
        for a in (0, 2, 3):
            assert freq[a] == pytest.approx(0.4 / 3, abs=0.01)

    def test_rejects_bad_epsilon_and_size(self):
        q = QTable(4)
        actions = enumerate_actions(3, 4e-3, 1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            select_action(q, self.S, actions, 1.5, rng)
        with pytest.raises(ValueError):
            select_action(QTable(5), self.S, actions, 0.1, rng)


class TestUpdateQ:
    S0 = StateKey((0,), (0,), 1)
    S1 = StateKey((1,), (0,), 1)

    def test_hand_worked_value(self):
        q = QTable(2)
        q.set(self.S0, 0, 1.0)
        q.set(self.S1, 1, 1.0)
        got = update_q(q, Experience(self.S0, 0, 4.0, self.S1), alpha=0.9, beta=0.5)
        # (1 - 0.9) * 1 + 0.9 * (4 + 0.5 * 1) = 4.15
        assert got == pytest.approx(4.15, rel=1e-12)
        assert q.value(self.S0, 0) == got

    def test_full_rate_no_discount_copies_reward(self):
        q = QTable(2)
        got = update_q(q, Experience(self.S0, 1, -2.5, self.S1), alpha=1.0, beta=0.0)
        assert got == -2.5

    def test_zero_everything_is_a_fixpoint(self):
        q = QTable(2)
        got = update_q(q, Experience(self.S0, 0, 0.0, self.S1), alpha=0.9, beta=0.5)
        assert got == 0.0
        assert q.value(self.S0, 0) == 0.0

    def test_only_target_entry_changes(self):
        q = QTable(3)
        q.set(self.S0, 2, 7.0)
        q.set(self.S1, 0, -1.0)
        before_s1 = q.row(self.S1).copy()
        update_q(q, Experience(self.S0, 0, 1.0, self.S1), alpha=0.5, beta=0.5)
        assert q.value(self.S0, 2) == 7.0
        assert (q.row(self.S1) == before_s1).all()

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.5, 0.5), (0.5, 1.0), (0.5, -0.1)])
    def test_parameter_domains(self, alpha, beta):
        q = QTable(2)
        with pytest.raises(ValueError):
            update_q(q, Experience(self.S0, 0, 1.0, self.S1), alpha, beta)


class TestSchedules:
    def test_epsilon_endpoints(self):
        cfg = _cfg()
        assert epsilon_at(0, cfg) == 0.9
        assert epsilon_at(1000, cfg) == 0.1
        assert epsilon_at(2999, cfg) == 0.1

    def test_epsilon_midpoint(self):
        assert epsilon_at(500, _cfg()) == pytest.approx(0.5, rel=1e-12)

    def test_epsilon_monotone_nonincreasing(self):
        cfg = _cfg()
        values = [epsilon_at(k, cfg) for k in range(0, 1200, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_decay_jumps_to_end(self):
        cfg = _cfg(epsilon_decay_slots=0)
        assert epsilon_at(0, cfg) == 0.1

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            epsilon_at(-1, _cfg())

    def test_warmup_boundary(self):
        cfg = _cfg(warmup_slots=20)
        actions = enumerate_actions(5, 4e-3, 1)
        rng = np.random.default_rng(3)
        for slot in range(20):
            pick = warmup_policy(slot, cfg, actions, rng)
            assert pick is not None and 0 <= pick < actions.n_actions
        assert warmup_policy(20, cfg, actions, rng) is None

    def test_warmup_disabled(self):
        cfg = _cfg(warmup_slots=0)
        actions = enumerate_actions(5, 4e-3, 1)
        assert warmup_policy(0, cfg, actions, np.random.default_rng(0)) is None


@pytest.mark.parametrize("overrides", [
    dict(power_levels=0),
    dict(max_power=0.0),
    dict(learning_rate=0.0),
    dict(learning_rate=1.1),
    dict(discount=1.0),
    dict(discount=-0.1),
    dict(epsilon_start=1.2),
    dict(epsilon_start=0.05),  # below epsilon_end
    dict(epsilon_end=-0.1),
    dict(epsilon_decay_slots=-1),
    dict(warmup_slots=3000),  # not below max_slots
    dict(warmup_slots=-1),
    dict(max_slots=0),
])
def test_agent_config_validation(overrides):
    with pytest.raises(ValueError):
        _cfg(**overrides)
