"""Learner building blocks: quantizer, action set, table, selection, update."""

import numpy as np
import pytest

import oracles
from oracles import joint_actions
from vlcudn.agent import (
    QTable,
    StateQuantizer,
    bin_values,
    enumerate_actions,
    epsilon_at,
    parse_state_key,
    quantize_state,
    select_action,
    state_key,
    update_q,
)
from vlcudn.config import ConfigError, load_experiment

QUANT = StateQuantizer(rate_bins=4, gain_bins=4, rate_max=2.0**25, gain_max=8e-6)


def _header(n_actions):
    """A full qtable.tsv header, 4 x 4 bins, for one UE and n_actions levels."""
    return (f"# rate_bins=4 gain_bins=4 rate_max=1 gain_max=1 n_actions={n_actions}"
            f" power_levels={n_actions - 1} max_power=1")


def _key(rates, gains):
    """The rendered key of quantize_state on QUANT."""
    return state_key(quantize_state(rates, gains, QUANT), QUANT, len(rates))


def _best(q, state):
    """The row's cached maximum, its count and sole maximizer (QTable._best)."""
    return q._best.get(state, q._unseen)


def _assert_cache(q, state):
    """The cached maximum of the state's row agrees with a scan of the row."""
    row = q.row(state)
    top, count, sole = _best(q, state)
    hits = np.flatnonzero(row == row.max())
    assert top == row.max()
    assert count == np.count_nonzero(row == row.max()) == hits.size
    assert sole == (hits[0] if hits.size == 1 else None)


class TestQuantizeState:
    def test_zeros_land_in_bin_zero(self):
        assert quantize_state([0.0, 0.0], [0.0, 0.0], QUANT) == 0
        assert _key([0.0, 0.0], [0.0, 0.0]) == "0,0|0,0|2"

    def test_interior_edge_goes_to_upper_bin(self):
        # 2^23 * (4 / 2^25) is exactly 1.0, so the edge value lands in bin 1
        assert _key([2.0**23], [0.0]) == "1|0|1"

    def test_just_below_edge_stays_in_lower_bin(self):
        assert _key([2.0**23 * (1 - 1e-12)], [0.0]) == "0|0|1"

    def test_values_at_or_above_max_clamp_to_top_bin(self):
        assert _key([QUANT.rate_max, 10 * QUANT.rate_max], [0.0, 0.0]) == "3,3|0,0|2"

    def test_gain_component(self):
        assert _key([0.0], [5e-6]) == "0|2|1"  # 5e-6 / (8e-6/4) = 2.5 -> floor 2

    def test_digits_are_rates_then_gains_first_ue_most_significant(self):
        rates = [2.0**23, 2.0**24]  # bins 1, 2
        gains = [6e-6, 0.0]  # bins 3, 0
        assert quantize_state(rates, gains, QUANT) == ((1 * 4 + 2) * 4 + 3) * 4 + 0

    def test_matches_the_oracle_on_edges(self):
        cases = [
            (QUANT, [2.0**23], [0.0]),
            (QUANT, [np.nextafter(2.0**23, 0.0)], [0.0]),
            (QUANT, [QUANT.rate_max, 3 * QUANT.rate_max], [QUANT.gain_max, 1.0]),
            (QUANT, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
            (QUANT, [-1.0, -0.5], [-1e-9, 0.0]),  # below the grid: bin 0, as the oracle clips
        ]
        big = []
        for n_bins in (3, 12, 1000):
            quant = StateQuantizer(n_bins, n_bins, 7.5e7, 8e-6)
            for density in range(1, 6):
                for scale in (0.0, 1.0, 2.0):  # zeros, the top edge, above it
                    cases.append((quant, [scale * quant.rate_max] * density,
                                  [scale * quant.gain_max] * density))
                steps = range(density)  # interior edges, rates on them, gains just below
                cases.append((quant, [k * quant.rate_max / n_bins for k in steps],
                              [np.nextafter(k * quant.gain_max / n_bins, 0.0) for k in steps]))
        for quant, rates, gains in cases:
            index = quantize_state(rates, gains, quant)
            assert type(index) is int
            assert state_key(index, quant, len(rates)) == oracles.state_key(rates, gains, quant)
            if quant.rate_bins == 1000:
                big.append(index)
        assert max(big) > 2**63

    def test_matches_the_oracle_on_random_draws(self):
        rng = np.random.default_rng(108)
        for _ in range(1500):
            quant = StateQuantizer(
                int(rng.choice([1, 3, 10, 12, 1000])), int(rng.choice([1, 3, 11, 1000])),
                rng.uniform(1e6, 1e8), rng.uniform(1e-6, 1e-5),
            )
            density = int(rng.integers(1, 6))
            rates = rng.uniform(0.0, 1.2 * quant.rate_max, density)
            gains = rng.uniform(0.0, 1.2 * quant.gain_max, density)
            index = quantize_state(rates, gains, quant)
            assert state_key(index, quant, density) == oracles.state_key(rates, gains, quant)


    def test_rows_give_each_rows_index(self):
        rng = np.random.default_rng(109)
        for quant in (QUANT, StateQuantizer(1000, 1000, 7.5e7, 8e-6)):
            rates = rng.uniform(0.0, 1.2 * quant.rate_max, (50, 4))
            gains = rng.uniform(0.0, 1.2 * quant.gain_max, (50, 4))
            rows = quantize_state(rates, gains, quant).tolist()
            assert rows == [quantize_state(r, g, quant) for r, g in zip(rates, gains)]
            assert all(type(index) is int for index in rows)
        assert max(rows) > 2**63


class TestBinValues:
    """bin_values on a (K, N, L+1) table, against the scalar rule."""

    @staticmethod
    def scalar(v: float, n_bins: int, upper: float) -> int:
        return min(max(int(v * (n_bins / upper)), 0), n_bins - 1)

    @pytest.mark.parametrize("n_bins,upper", [(4, 2.0**25), (3, 7.5e7), (12, 8e-6),
                                              (1000, 7.5e7), (1, 1.0)])
    def test_matches_the_scalar_rule(self, n_bins, upper):
        edges = [k * upper / n_bins for k in range(n_bins + 1)]  # the top edge included
        values = (edges + [np.nextafter(e, 0.0) for e in edges]
                  + [2 * upper, 0.0, -0.0, -1.0, -upper])
        table = np.resize(np.array(values), (-(-len(values) // 18), 3, 6))
        got = bin_values(table, n_bins, upper)
        assert got.shape == table.shape and got.dtype == np.int64
        want = [self.scalar(v, n_bins, upper) for v in table.ravel().tolist()]
        assert got.ravel().tolist() == want
        assert set(want) == set(range(n_bins))

    def test_exact_interior_edges_open_their_bin(self):
        # 2^23 * (4 / 2^25) is exactly 1.0: each edge starts the bin above it
        edges = np.array([[[0.0, 2.0**23, 2.0**24, 3 * 2.0**23, 2.0**25]]])
        assert bin_values(edges, 4, 2.0**25).tolist() == [[[0, 1, 2, 3, 3]]]
        below = np.nextafter(edges, 0.0)
        assert bin_values(below, 4, 2.0**25).tolist() == [[[0, 0, 1, 2, 3]]]

    @pytest.mark.parametrize("n_bins", [3, 1000])
    def test_huge_values_land_in_the_top_bin(self, n_bins):
        # the scalar rule cannot take inf, and tests/oracles.state_key casts
        # before it clips, so the top bin is asserted directly
        table = np.array([[[1e300, np.inf, np.finfo(float).max]], [[-1e300, -np.inf, -0.0]]])
        assert bin_values(table, n_bins, 7.5e7).tolist() == [[[n_bins - 1] * 3], [[0] * 3]]


class TestStateKey:
    def test_str_roundtrip(self):
        quant = StateQuantizer(12, 11, 1.0, 1.0)
        for index in (0, 5, 12**3 * 11**3 - 1, 123_456):
            rates, gains, density = parse_state_key(state_key(index, quant, 3))
            assert density == 3
            digits = rates + gains
            radices = (12,) * 3 + (11,) * 3
            assert all(0 <= d < r for d, r in zip(digits, radices))
            rebuilt = 0
            for digit, radix in zip(digits, radices):
                rebuilt = rebuilt * radix + digit
            assert rebuilt == index

    def test_str_format(self):
        assert state_key(((1 * 4 + 2) * 4 + 0) * 4 + 3, QUANT, 2) == "1,2|0,3|2"
        assert parse_state_key("1,2|0,3|2") == ((1, 2), (0, 3), 2)

    @pytest.mark.parametrize("text", ["", "1|2", "1,2|0|2", "a,b|0,0|2", "1|0|1|extra"])
    def test_malformed_strings_rejected(self, text):
        with pytest.raises(ValueError):
            parse_state_key(text)

    def test_tuple_lengths_must_match_density(self):
        for text in ("0,1|0|2", "0|0,1|2", "0|0|0"):
            with pytest.raises(ValueError, match="one rate and gain bin per UE"):
                parse_state_key(text)


def _decode(levels, n_ues: int, index: int) -> np.ndarray:
    """Per-UE powers of a joint action index, by the call run_episode and
    inspect-q use."""
    return levels[np.array(np.unravel_index(index, (levels.size,) * n_ues))]


class TestEnumerateActions:
    def test_level_values(self):
        levels = enumerate_actions(5, 4e-3)
        want = [0.0, 0.8e-3, 1.6e-3, 2.4e-3, 3.2e-3, 4e-3]
        assert levels == pytest.approx(want, rel=1e-12)
        assert levels[0] == 0.0

    def test_two_ue_lexicographic_order(self):
        levels = enumerate_actions(1, 2e-3)
        assert levels.size ** 2 == 4
        rows = [_decode(levels, 2, a).tolist() for a in range(4)]
        assert rows == [[0.0, 0.0], [0.0, 2e-3], [2e-3, 0.0], [2e-3, 2e-3]]

    def test_three_ue_count_and_endpoints(self):
        levels = enumerate_actions(5, 4e-3)
        assert levels.size ** 3 == 216
        assert (_decode(levels, 3, 0) == 0.0).all()
        assert _decode(levels, 3, 215) == pytest.approx([4e-3] * 3, rel=1e-12)

    def test_decode_follows_joint_scan_order(self):
        levels = enumerate_actions(5, 4e-3)
        rows = joint_actions(levels, 3)
        assert len(rows) == levels.size ** 3
        for a, row in enumerate(rows):
            assert (_decode(levels, 3, a) == row).all()


def _count_scans(q, state):
    """Swap state's stored row for a view that counts the max(), nonzero()
    and partition() calls made on it and on the arrays derived from it
    (np.partition calls partition() on its copy of the row); returns the
    count, a one-item list that the calls bump."""
    scans = [0]

    class CountingRow(np.ndarray):
        def max(self, *args, **kwargs):
            scans[0] += 1
            return np.asarray(self).max(*args, **kwargs)

        def nonzero(self):
            scans[0] += 1
            return np.asarray(self).nonzero()

        def partition(self, *args, **kwargs):
            scans[0] += 1
            return np.asarray(self).partition(*args, **kwargs)

    q._rows[state] = q._rows[state].view(CountingRow)
    return scans


class TestQTable:
    S0 = 0
    S1 = 4  # rate bin 1, gain bin 0 on QUANT

    def test_reads_do_not_insert(self):
        q = QTable(4)
        assert (q.row(self.S0) == 0.0).all()
        assert len(q) == 0

    def test_set_and_read_back(self):
        q = QTable(4)
        q.set(self.S0, 2, -1.5)
        assert q.row(self.S0).tolist() == [0.0, 0.0, -1.5, 0.0]  # other entries still zero
        assert len(q) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        q = QTable(4)
        with pytest.raises(ValueError):
            q.set(self.S0, 0, bad)
        assert len(q) == 0

    def test_cache_follows_each_kind_of_write(self):
        q = QTable(4)
        _assert_cache(q, self.S0)  # unseen: all four tie at zero
        steps = [
            (1, 2.0),  # [0, 2, 0, 0]: a sole maximizer
            (3, 2.0),  # [0, 2, 0, 2]: raised to a tie
            (1, 1.0),  # [0, 1, 0, 2]: one of two tied maxima lowered; 3 is sole
            (3, -0.0),  # [0, 1, 0, -0]: the sole maximizer lowered; rescan finds 1
            (1, 0.0),  # [0, 0, 0, -0]: again; 0.0 and -0.0 tie four ways
            (0, -0.0),  # [-0, 0, 0, -0]: -0.0 over 0.0 changes nothing
            (2, -1.0),  # [-0, 0, -1, -0]: one of four tied maxima lowered
            (1, -3.0),  # [-0, -3, -1, -0]: two left
            (0, -2.0),  # [-2, -3, -1, -0]: one left, 3
            (3, -2.0),  # [-2, -3, -1, -2]: all negative, sole maximizer 2
            (2, -2.0),  # [-2, -3, -2, -2]: the sole maximizer lowered into a tie
            (0, -2.5),  # [-2.5, -3, -2, -2]
            (3, -2.75),  # [-2.5, -3, -2, -2.75]: 2 is sole
        ]
        for action, value in steps:
            q.set(self.S0, action, value)
            _assert_cache(q, self.S0)
        assert _best(q, self.S0) == (-2.0, 1, 2)
        assert _best(q, self.S1) == (0.0, 4, None)

    @pytest.mark.parametrize("n_actions", [1, 2, 5, 216])
    def test_cache_matches_a_row_scan_after_random_sets(self, n_actions):
        rng = np.random.default_rng(n_actions)
        values = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]  # few values, so ties are common
        q = QTable(n_actions)
        for _ in range(3000):
            state = int(rng.integers(3))
            action = int(rng.integers(n_actions))
            if rng.random() < 0.8:
                value = values[rng.integers(len(values))]
            else:
                value = float(rng.normal(0.0, 2.0))
            q.set(state, action, value)
            _assert_cache(q, state)

    def _runner_up_row(self):
        """[0, 3, 1, 0]: 1 is the sole maximizer, and 2's write raised the
        runner-up bound to 1.0; the returned count starts there."""
        q = QTable(4)
        q.set(self.S0, 1, 3.0)
        q.set(self.S0, 2, 1.0)
        return q, _count_scans(q, self.S0)

    def test_sole_maximizer_falling_above_the_runner_up_scans_nothing(self):
        q, scans = self._runner_up_row()
        for value in (2.0, 1.5, 1.0 + 2.0**-40):
            q.set(self.S0, 1, value)
            assert _best(q, self.S0) == (value, 1, 1)
        q.set(self.S0, 1, 5.0)  # the sole maximizer rises: the bound stays 1.0
        q.set(self.S0, 1, 1.25)
        assert _best(q, self.S0) == (1.25, 1, 1)
        assert scans[0] == 0
        _assert_cache(q, self.S0)

    def test_sole_maximizer_falling_onto_the_runner_up_ties_with_it(self):
        q, scans = self._runner_up_row()
        q.set(self.S0, 1, 1.0)
        assert scans[0] > 0
        assert _best(q, self.S0) == (1.0, 2, None)
        _assert_cache(q, self.S0)

    def test_sole_maximizer_falling_below_the_runner_up_hands_it_the_top(self):
        q, scans = self._runner_up_row()
        q.set(self.S0, 1, 0.5)  # [0, 0.5, 1, 0]: the scan also finds the runner-up 0.5
        assert scans[0] > 0
        assert _best(q, self.S0) == (1.0, 1, 2)
        scans[0] = 0
        q.set(self.S0, 2, 0.75)
        assert (_best(q, self.S0), scans[0]) == ((0.75, 1, 2), 0)
        q.set(self.S0, 2, 0.5)
        assert _best(q, self.S0) == (0.5, 2, None)
        _assert_cache(q, self.S0)

    def test_a_new_maximizer_bounds_the_others_by_the_old_maximum(self):
        q, scans = self._runner_up_row()
        q.set(self.S0, 3, 4.0)  # [0, 3, 1, 4]: the bound becomes 3.0
        q.set(self.S0, 3, 3.5)
        assert (_best(q, self.S0), scans[0]) == ((3.5, 1, 3), 0)
        q.set(self.S0, 3, 3.0)
        assert _best(q, self.S0) == (3.0, 2, None)
        _assert_cache(q, self.S0)

    def test_stale_bound_costs_one_scan_that_renews_it(self):
        q, scans = self._runner_up_row()
        q.set(self.S0, 2, -1.0)  # [0, 3, -1, 0]: the runner-up fell; the bound stays 1.0
        assert (_best(q, self.S0), scans[0]) == ((3.0, 1, 1), 0)
        q.set(self.S0, 1, 0.5)  # between the true runner-up 0.0 and the stale bound
        assert scans[0] > 0
        assert _best(q, self.S0) == (0.5, 1, 1)
        scans[0] = 0
        q.set(self.S0, 1, 0.25)  # above the renewed, exact bound 0.0
        assert (_best(q, self.S0), scans[0]) == ((0.25, 1, 1), 0)
        q.set(self.S0, 1, -0.0)
        assert _best(q, self.S0) == (0.0, 3, None)
        _assert_cache(q, self.S0)

    def test_single_action_rows_never_scan(self):
        q = QTable(1)
        assert _best(q, self.S0) == (0.0, 1, 0)
        q.set(self.S0, 0, 2.0)
        scans = _count_scans(q, self.S0)
        for value in (-1.0, -5.0, 3.0, -0.0, 0.0, -7.5):
            q.set(self.S0, 0, value)
            assert _best(q, self.S0) == (value, 1, 0)
        assert scans[0] == 0
        q.set(self.S1, 0, -3.0)  # an unseen row's only action falls from zero
        assert _best(q, self.S1) == (-3.0, 1, 0)

    @pytest.mark.parametrize("n_actions", [1, 2, 5, 216])
    def test_cache_matches_a_row_scan_when_writes_cluster_at_the_top(self, n_actions):
        """Values on a coarse grid at or below the row's maximum, written
        mostly to the sole maximizer: it falls above, onto and below the
        runner-up, each many times."""
        rng = np.random.default_rng(100 + n_actions)
        q = QTable(n_actions)
        falls = {"above": 0, "onto": 0, "below": 0}
        for _ in range(4000):
            state = int(rng.integers(3))
            top, _, sole = _best(q, state)
            row = q.row(state).copy()
            if rng.random() < 0.1:  # some entry's value, often an exact tie
                action = int(rng.integers(n_actions))
                value = float(row[rng.integers(n_actions)])
            elif sole is not None and rng.random() < 0.6:
                action = sole
                value = top + 0.25 * float(rng.integers(-2, 2))
            else:
                action = int(rng.integers(n_actions))
                value = top + 0.25 * float(rng.integers(-10, 2))
            if action == sole and value < top and n_actions > 1:
                runner_up = np.delete(row, sole).max()
                falls["above" if value > runner_up else
                      "onto" if value == runner_up else "below"] += 1
            q.set(state, action, value)
            _assert_cache(q, state)
        if n_actions > 1:
            assert min(falls.values()) >= 40, falls

    def test_cache_of_rows_read_back_by_load(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text(f"{_header(4)}\n0|0|1\t1\t2.5\n0|0|1\t3\t2.5\n"
                        "1|0|1\t0\t-1\n2|0|1\t2\t4\n2|0|1\t0\t-0\n")
        loaded, _ = QTable.load(path)
        for state in (0, 4, 8, 12):  # "0|0|1" .. "3|0|1" on 4 x 4 bins
            _assert_cache(loaded, state)
        assert _best(loaded, 0) == (2.5, 2, None)
        assert _best(loaded, 4) == (0.0, 3, None)
        assert _best(loaded, 8) == (4.0, 1, 2)

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
        q.save(path, QUANT, 1, 5, 4e-3)
        loaded, meta = QTable.load(path)
        assert loaded.n_actions == 6
        assert set(loaded.states()) == {self.S0, self.S1}
        for (state, action), value in entries.items():
            assert loaded.row(state)[action] == value
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
        q.save(path, QUANT, 1, 2, 4e-3)
        lines = path.read_text().splitlines()
        assert lines[0] == ("# rate_bins=4 gain_bins=4 rate_max=33554432"
                            " gain_max=7.9999999999999996e-06 n_actions=3"
                            " power_levels=2 max_power=0.0040000000000000001")
        assert lines[1:] == ["0|0|1\t1\t2"]

    def test_save_orders_rows_by_key_string(self, tmp_path):
        quant = StateQuantizer(12, 11, 1.0, 1.0)
        q = QTable(2)
        for index in (2 * 11, 10 * 11 + 7, 10 * 11):  # "2|0|1", "10|7|1", "10|0|1"
            q.set(index, 0, 1.0)
        path = tmp_path / "q.tsv"
        q.save(path, quant, 1, 1, 1.0)
        keys = [line.split("\t")[0] for line in path.read_text().splitlines()[1:]]
        assert keys == ["10|0|1", "10|7|1", "2|0|1"]

    @pytest.mark.parametrize("quant, n_ues", [
        (StateQuantizer(12, 11, 1.0, 1.0), 3),  # unequal radices, two-digit bins
        (StateQuantizer(1000, 1000, 1.0, 1.0), 4),  # indices past 2**63
    ])
    def test_save_load_roundtrip_keeps_state_indices(self, tmp_path, quant, n_ues):
        rng = np.random.default_rng(n_ues)
        q = QTable(2**n_ues)  # one power level: two per UE
        for _ in range(40):
            rates = rng.integers(quant.rate_bins, size=n_ues) * (quant.rate_max / quant.rate_bins)
            gains = rng.integers(quant.gain_bins, size=n_ues) * (quant.gain_max / quant.gain_bins)
            q.set(quantize_state(rates, gains, quant), int(rng.integers(2**n_ues)),
                  float(rng.normal()))
        for index in (0, quant.rate_bins ** n_ues * quant.gain_bins ** n_ues - 1):
            q.set(index, 1, -1.5)  # the grid's first and last state
        path = tmp_path / "q.tsv"
        q.save(path, quant, n_ues, 1, 1.0)
        loaded, meta = QTable.load(path)
        assert meta["n_ues"] == n_ues
        assert set(loaded.states()) == set(q.states())
        for state in q.states():
            assert loaded.row(state).tolist() == q.row(state).tolist()

    def test_load_keys_rows_by_canonical_state_key(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text(f"{_header(2)}\n01|0|1\t0\t1.5\n1|00|1\t1\t2.5\n")
        loaded, meta = QTable.load(path)
        assert list(loaded.states()) == [self.S1]
        assert state_key(self.S1, QUANT, meta["n_ues"]) == "1|0|1"
        assert loaded.row(self.S1).tolist() == [1.5, 2.5]

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0|0|1\t1\t2.0\n")
        with pytest.raises(ValueError):
            QTable.load(path)

    @staticmethod
    def _load_without(tmp_path, field):
        """Load a full one-row table whose header lacks field."""
        tokens = [t for t in _header(4).split() if not t.startswith(field + "=")]
        assert len(tokens) == 7
        path = tmp_path / "bad.tsv"
        path.write_text(" ".join(tokens) + "\n0|0|1\t1\t2.0\n")
        with pytest.raises(ValueError, match=f"header lacks {field}$"):
            QTable.load(path)

    def test_load_requires_action_count(self, tmp_path):
        self._load_without(tmp_path, "n_actions")

    @pytest.mark.parametrize("field", ["rate_bins", "gain_bins", "rate_max", "gain_max",
                                       "power_levels", "max_power"])
    def test_load_requires_the_grid_and_power_fields(self, tmp_path, field):
        self._load_without(tmp_path, field)

    @pytest.mark.parametrize("action", [-1, 4])
    def test_load_rejects_out_of_range_action(self, tmp_path, action):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{_header(4)}\n0|0|1\t{action}\t2.0\n")
        with pytest.raises(ValueError, match="outside"):
            QTable.load(path)


class TestSelectAction:
    S = 0

    def _table(self, row):
        q = QTable(len(row))
        for action, value in enumerate(row):
            if value:
                q.set(self.S, action, value)
        return q

    def test_greedy_when_epsilon_zero(self):
        q = self._table([0.0, 5.0, 0.0, 0.0])
        rng = np.random.default_rng(0)
        picks = {select_action(q, self.S, rng.random() < 0.0, rng.random()) for _ in range(50)}
        assert picks == {1}

    def test_fresh_state_is_uniform_any_epsilon(self):
        q = QTable(4)
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(8000):
            counts[select_action(q, self.S, rng.random() < 0.9, rng.random())] += 1
        # every action is a maximizer, so the split should be near 1/4 each
        assert (counts > 0).all()
        assert np.abs(counts / 8000 - 0.25).max() < 0.03

    ROWS = {
        "unseen": None,
        "unique": [0.0, 2.0, -1.0, 0.5, 0.0],
        "unique-first": [3.0, 2.0, -1.0, 0.5, 0.0],
        "unique-last": [0.0, 2.0, -1.0, 0.5, 2.5],
        "tie-positive": [1.0, 3.0, 3.0, -2.0, 3.0],
        "tie-zero": [0.0, -1.0, -0.0, -0.5, -2.0],
        "tie-negative": [-1.0, -3.0, -1.0, -2.0, -1.5],
        "all-negative": [-1.0, -3.0, -0.25, -2.0, -1.5],
        "all-equal": [2.0, 2.0, 2.0, 2.0, 2.0],
    }

    def _rows(self):
        """(name, table) of each row of ROWS, in a 5-action table."""
        for name, values in self.ROWS.items():
            q = QTable(5)
            for action, value in enumerate(values or ()):
                q.set(self.S, action, value)
            yield name, q

    @pytest.mark.parametrize("epsilon", [0.0, 0.4, 1.0])
    def test_draws_as_the_row_scanning_oracle(self, epsilon):
        """The same pick as the row scan for every coin and u: the cached
        paths number each pool as the scan does."""
        for seed, (name, q) in enumerate(self._rows()):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                explore, u = rng.random() < epsilon, rng.random()
                pick = select_action(q, self.S, explore, u)
                assert pick == oracles.select_action(q.row(self.S), explore, u), name
                assert type(pick) is int

    def test_pool_ends_at_the_extreme_draws(self):
        """u = 0 picks the first action of every pool, the largest double
        below 1 its last, greedy and exploring, for each kind of row."""
        last = float(np.nextafter(1.0, 0.0))
        for name, q in self._rows():
            row = q.row(self.S)
            for explore in (False, True):
                pool = np.flatnonzero(row == row.max())
                if explore and pool.size < row.size:
                    pool = np.flatnonzero(row != row.max())
                got = (select_action(q, self.S, explore, 0.0),
                       select_action(q, self.S, explore, last))
                assert got == (pool[0], pool[-1]), (name, explore)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 216, 7776, 10**9 + 7, 2**31 - 1, 2**52 + 1,
                                   2**53 - 1, 2**53])
    def test_largest_draw_stays_in_the_pool(self, m):
        """int(u * m) is m - 1 for the largest u below 1, up to m = 2**53."""
        assert int(float(np.nextafter(1.0, 0.0)) * m) == m - 1


class TestUpdateQ:
    S0 = 0
    S1 = 4

    def test_hand_worked_value(self):
        q = QTable(2)
        q.set(self.S0, 0, 1.0)
        q.set(self.S1, 1, 1.0)
        got = update_q(q, self.S0, 0, 4.0, self.S1, alpha=0.9, beta=0.5)
        # (1 - 0.9) * 1 + 0.9 * (4 + 0.5 * 1) = 4.15
        assert got == pytest.approx(4.15, rel=1e-12)
        assert q.row(self.S0)[0] == got

    def test_full_rate_no_discount_copies_reward(self):
        q = QTable(2)
        got = update_q(q, self.S0, 1, -2.5, self.S1, alpha=1.0, beta=0.0)
        assert got == -2.5

    def test_zero_everything_is_a_fixpoint(self):
        q = QTable(2)
        got = update_q(q, self.S0, 0, 0.0, self.S1, alpha=0.9, beta=0.5)
        assert got == 0.0
        assert q.row(self.S0)[0] == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_utility(self, bad):
        q = QTable(2)
        with pytest.raises(ValueError, match="finite"):
            update_q(q, self.S0, 0, bad, self.S1, alpha=0.5, beta=0.5)
        assert len(q) == 0

    def test_keeps_the_cache(self):
        """Every write through update_q, rises, ties and a falling sole
        maximizer included, leaves the cached maximum a scan of the row."""
        q = QTable(3)
        for action, utility in [(0, 2.0), (1, 4.0), (1, -6.0), (2, 1.0), (0, -8.0), (2, -1.0)]:
            update_q(q, self.S0, action, utility, self.S1, alpha=0.5, beta=0.5)
            _assert_cache(q, self.S0)

    def test_only_target_entry_changes(self):
        q = QTable(3)
        q.set(self.S0, 2, 7.0)
        q.set(self.S1, 0, -1.0)
        before_s1 = q.row(self.S1).copy()
        update_q(q, self.S0, 0, 1.0, self.S1, alpha=0.5, beta=0.5)
        assert q.row(self.S0)[2] == 7.0
        assert (q.row(self.S1) == before_s1).all()


class TestSchedules:
    DECAY = (0.9, 0.1, 1000)  # epsilon start, end and decay slots

    def test_epsilon_endpoints(self):
        assert epsilon_at([0, 1000, 2999], *self.DECAY) == [0.9, 0.1, 0.1]

    def test_epsilon_midpoint(self):
        assert epsilon_at([500], *self.DECAY) == [pytest.approx(0.5, rel=1e-12)]

    def test_epsilon_monotone_nonincreasing(self):
        values = epsilon_at(range(0, 1200, 7), *self.DECAY)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_decay_jumps_to_end(self):
        assert epsilon_at([0], 0.9, 0.1, 0) == [0.1]


# Each input in file units, through the config file; the ids are the
# suite's stable names for these cases.  A single-key case names its
# range; the other two break a rule between two keys.
@pytest.mark.parametrize("key,value,message", [
    ("power_levels", 0, "[agent] power_levels must be in [1, inf), got 0"),
    ("max_power_mw", 0.0, "[agent] max_power_mw must be in (0, inf), got 0.0"),
    ("learning_rate", 0.0, "[agent] learning_rate must be in (0, 1], got 0.0"),
    ("learning_rate", 1.1, "[agent] learning_rate must be in (0, 1], got 1.1"),
    ("discount", 1.0, "[agent] discount must be in [0, 1), got 1.0"),
    ("discount", -0.1, "[agent] discount must be in [0, 1), got -0.1"),
    ("epsilon_start", 1.2, "[agent] epsilon_start must be in [0, 1], got 1.2"),
    ("epsilon_start", 0.05, "[agent] epsilon_start = 0.05 must not be below epsilon_end = 0.1"),
    ("epsilon_end", -0.1, "[agent] epsilon_end must be in [0, 1], got -0.1"),
    ("epsilon_decay_slots", -1, "[agent] epsilon_decay_slots must be in [0, inf), got -1"),
    ("warmup_slots", 300, "[agent] warmup_slots = 300 must be below max_slots = 300"),
    ("warmup_slots", -1, "[agent] warmup_slots must be in [0, inf), got -1"),
    ("max_slots", 0, "[agent] max_slots must be in [1, inf), got 0"),
], ids=[f"overrides{i}" for i in range(13)])
def test_agent_config_validation(make_config, key, value, message):
    with pytest.raises(ConfigError) as err:
        load_experiment(make_config({f"agent.{key}": value}))
    assert str(err.value) == message
