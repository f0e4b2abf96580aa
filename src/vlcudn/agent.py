"""Tabular Q-learning pieces: state index, power grid, selection, update.

The learner picks one joint power vector per slot.  Its state is the
uniform bin of each UE's previous-slot rate and of each UE's current
serving gain, held as one integer: a mixed-radix number whose digits are
the N rate bins, then the N gain bins, first UE most significant.  The
index is a plain Python int, so it stays exact past 2**63 at large bin
counts.  bin_values is the one place a value is binned: quantize_state
builds the index of one slot, or of every row of a (K, N) pair, on it,
and the learner bins a whole episode's rate table with it at once.  The
Q-table is a sparse map from state index to row with implicit zeros,
so the huge nominal state space costs nothing until states are visited.

qtable.tsv spells a state as "r1,..,rN|g1,..,gN|N" (state_key) and lists
the rows in string order of that key, which differs from index order once
a bin count reaches 10; QTable.load turns each key back into its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateQuantizer:
    """Uniform binning grids for the continuous state components.

    Rates live on [0, rate_max), gains on [0, gain_max), each cut into
    equal half-open bins; values at or above the top edge clamp into the
    last bin.  rate_max is the per-UE Shannon rate at the configured SINR
    ceiling; gain_max is the gain of a receiver directly under the AP.
    """

    rate_bins: int
    gain_bins: int
    rate_max: float
    gain_max: float


def bin_values(values, n_bins: int, upper: float) -> np.ndarray:
    """The int64 bin of each value on a grid of n_bins equal half-open bins
    over [0, upper): the scaled value clipped into [0, n_bins - 1], then
    truncated.  Clipping first puts anything below 0 in bin 0 and anything
    at or above upper, inf included, in the top bin; the bins are exact for
    n_bins up to 2**53, the most a config accepts."""
    return np.clip(np.multiply(values, n_bins / upper), 0, n_bins - 1).astype(np.int64)


def quantize_state(rates, gains, quant: StateQuantizer):
    """State index of one slot's per-UE rates and gains (module docstring).

    (K, N) rates and gains give the index of each of the K rows, as an
    object array of Python ints.
    """
    index = 0
    for values, n_bins, upper in (
        (rates, quant.rate_bins, quant.rate_max),
        (gains, quant.gain_bins, quant.gain_max),
    ):
        for digit in bin_values(values, n_bins, upper).astype(object).T:
            index = index * n_bins + digit
    return index


def state_key(index: int, quant: StateQuantizer, density: int) -> str:
    """The qtable.tsv key "r1,..,rN|g1,..,gN|N" of a state index."""
    digits = []
    for n_bins in (quant.gain_bins,) * density + (quant.rate_bins,) * density:
        index, digit = divmod(index, n_bins)
        digits.append(digit)
    digits.reverse()
    rates, gains = (",".join(map(str, part)) for part in (digits[:density], digits[density:]))
    return f"{rates}|{gains}|{density}"


def parse_state_key(text: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Rate bins, gain bins and UE count of a qtable.tsv state key."""
    try:
        rates, gains, density = text.split("|")
        rates = tuple(int(b) for b in rates.split(","))
        gains = tuple(int(b) for b in gains.split(","))
        density = int(density)
    except ValueError as exc:
        raise ValueError(f"malformed state key {text!r}") from exc
    if density < 1 or len(rates) != density or len(gains) != density:
        raise ValueError(f"malformed state key {text!r}: needs one rate and gain bin per UE")
    return rates, gains, density


def enumerate_actions(power_levels: int, max_power: float) -> np.ndarray:
    """The (L+1,) per-UE power grid 0, X/L, ..., X = max_power, in watts.

    A joint action of N UEs is a flat index into the (L+1)^N level
    combinations in lexicographic order of per-UE level indices, first UE
    most significant: np.unravel_index(index, (L+1,) * N) gives its levels.
    Index 0 is all-zero, the last index is all-max.  The arguments arrive
    checked, from a config or a QTable.load header.
    """
    return np.arange(power_levels + 1) * (max_power / power_levels)


class QTable:
    """Sparse state index -> action-value-row map with implicit zero rows.

    Beside each row sits, in _best, its maximum, the count of actions
    that reach it and, when that count is 1, the maximizer's index (else
    None), so the learner reads them without scanning the row; an unseen
    row is all zeros (_unseen).  The maximum equals row(state).max(),
    though a 0.0 may stand for a -0.0 there or the other way round.  A
    row with one maximizer also keeps a runner-up bound: a value no other
    action exceeds, the old maximum when another action rises past it,
    raised by each write to a non-maximal action.  So a maximizer that is
    the only one stays so, with no scan, while a write lowers it to a
    value strictly above the bound; a write scans a row only when a tie
    is broken down to one maximizer, or when the only maximizer falls to
    or below the bound, and that scan then finds the exact runner-up.
    _write is the only writer of rows and of that cache; set and update_q
    call it with the entry's old value, and the arrays row() returns must
    not be written to.  select_action and update_q, in this module, read
    the rows and the cache directly.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self._rows: dict[int, np.ndarray] = {}
        self._best: dict[int, tuple[float, int, int | None]] = {}
        self._runner_up: dict[int, float] = {}
        self._unseen = (0.0, n_actions, 0 if n_actions == 1 else None)

    def __len__(self) -> int:
        return len(self._rows)

    def states(self):
        return self._rows.keys()

    def row(self, state) -> np.ndarray:
        """Value row for a state; a zero row (not inserted) if unseen."""
        existing = self._rows.get(state)
        if existing is not None:
            return existing
        return np.zeros(self.n_actions)

    def set(self, state, action: int, value: float) -> None:
        row = self._rows.get(state)
        self._write(state, row, action, 0.0 if row is None else row.item(action), float(value))

    def _write(self, state, row, action: int, old: float, value: float) -> None:
        """Write value at (state, action) of row, the state's row or None if
        it has none yet, whose entry there was old, and keep the cache."""
        if not math.isfinite(value):
            raise ValueError("q-values must be finite")
        if row is None:
            row = self._rows[state] = np.zeros(self.n_actions)
        row[action] = value
        top, count, sole = self._best.get(state, self._unseen)
        if value > top:
            if action != sole:  # every other action is at most the old maximum
                self._runner_up[state] = top
            self._best[state] = (value, 1, int(action))
        elif value == top:
            if old != top:
                self._best[state] = (top, count + 1, None)
        elif old == top:  # a maximizer fell
            if count == 1 and value > self._runner_up.get(state, -math.inf):
                self._best[state] = (value, 1, sole)  # still above every other action
            elif count > 2:
                self._best[state] = (top, count - 1, None)
            else:
                if count == 1:  # it fell to or below the bound: rescan the row
                    top = row.max().item()
                hits = (row == top).nonzero()[0]
                if hits.size == 1:
                    sole = int(hits[0])
                    held = row.item(sole)
                    row[sole] = -math.inf
                    self._runner_up[state] = row.max().item()
                    row[sole] = held
                    self._best[state] = (top, 1, sole)
                else:
                    self._best[state] = (top, hits.size, None)
        elif value > self._runner_up.get(state, -math.inf):
            self._runner_up[state] = value

    def save(self, path, quant: StateQuantizer, density: int, power_levels: int,
             max_power: float) -> None:
        """Write tab-separated state-key/action/value lines, in key order.

        The header row records the binning grid behind the keys, the action
        count and the power grid behind the actions: seven fields, all needed.
        """
        header = (
            "# rate_bins=%d gain_bins=%d rate_max=%.17g gain_max=%.17g n_actions=%d"
            " power_levels=%d max_power=%.17g"
            % (quant.rate_bins, quant.gain_bins, quant.rate_max, quant.gain_max,
               self.n_actions, power_levels, max_power)
        )
        keys = {state_key(state, quant, density): state for state in self._rows}
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for key in sorted(keys):
                row = self._rows[keys[key]]
                for action in np.flatnonzero(row != 0.0):
                    fh.write("%s\t%d\t%.17g\n" % (key, action, row[action]))

    @classmethod
    def load(cls, path) -> tuple["QTable", dict]:
        """A saved table, and the header's pairs plus n_ues, the keys' UE
        count N (None when the table has no rows).  Each state key becomes
        its state index on the header's rate_bins and gain_bins.

        Every check on a q-table file is made here: all seven header fields,
        integers n_actions, rate_bins and gain_bins >= 1, finite rate_max and
        gain_max > 0, actions below n_actions, one UE count N over all keys,
        bins inside the header's grid, and a power grid with integer
        L = power_levels >= 1, a finite max_power > 0 and (L + 1)**N == n_actions.
        """
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise ValueError("missing header row")
            meta = {}
            for token in header[1:].split():
                key, _, raw = token.partition("=")
                try:
                    meta[key] = int(raw)
                except ValueError:
                    meta[key] = float(raw)
            missing = [field for field in ("rate_bins", "gain_bins", "rate_max", "gain_max",
                                           "n_actions", "power_levels", "max_power")
                       if field not in meta]
            if missing:
                raise ValueError(f"header lacks {', '.join(missing)}")
            for field in ("n_actions", "rate_bins", "gain_bins"):
                if not isinstance(meta[field], int) or meta[field] < 1:
                    raise ValueError(f"{field} must be an integer >= 1, got {meta[field]!r}")
            for field in ("rate_max", "gain_max"):
                if not 0 < meta[field] < math.inf:
                    raise ValueError(f"{field} must be finite and > 0, got {meta[field]!r}")
            n_actions = meta["n_actions"]
            rate_bins, gain_bins = meta["rate_bins"], meta["gain_bins"]
            table = cls(n_actions=n_actions)
            ue_counts = set()
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                key, action, value = line.split("\t")
                action = int(action)
                if not 0 <= action < n_actions:
                    raise ValueError(f"action {action} outside [0, {n_actions})")
                rates, gains, n = parse_state_key(key)
                index = 0  # quantize_state's digits: N rate bins, then N gain bins
                for b, n_bins in zip(rates + gains, (rate_bins,) * n + (gain_bins,) * n):
                    if not 0 <= b < n_bins:
                        raise ValueError(f"state key {key!r} has a bin outside the header's grid")
                    index = index * n_bins + b
                ue_counts.add(n)
                table.set(index, action, float(value))
        if len(ue_counts) > 1:
            raise ValueError(f"state keys mix UE counts {sorted(ue_counts)}")
        n_levels, max_power = meta["power_levels"], meta["max_power"]
        # 2**N <= (L+1)**N: the bit-length test keeps a huge N from a huge power
        if not (isinstance(n_levels, int) and 1 <= n_levels < n_actions
                and 0 < max_power < math.inf
                and all(n <= n_actions.bit_length() and (n_levels + 1) ** n == n_actions
                        for n in ue_counts)):
            raise ValueError(f"power grid power_levels={n_levels} max_power={max_power}"
                             f" does not fit n_actions={n_actions}")
        meta["n_ues"] = next(iter(ue_counts), None)
        return table, meta


def select_action(q: QTable, state: int, explore: bool, u: float) -> int:
    """Epsilon-greedy pick over the joint action set: given the slot's coin
    (explore) and a uniform double u in [0, 1), the int(u * m)-th of the m
    maximizers of Q(state, .), or when exploring of the m non-maximizers,
    so each carries probability epsilon / (n_actions - 1) when the
    maximizer is unique.  If every action is a maximizer the two coincide.

    The row's cached maximum (QTable._best) spares the row scan unless
    some but not all actions tie: when all tie (an unseen state) the pool
    is every action; a sole maximizer is the greedy pick, and the j-th of
    the others is j + (j >= sole).  int(u * m) is below m for m up to
    2**53, and each outcome's probability is 1/m to within a relative
    m * 2**-53.  action_cap leaves m uncapped there: memory bounds it, as a
    run allocates a dense row of n_actions floats at its first update, and
    an 8 GiB row holds 2**30 actions, a bias of about 1e-7.
    """
    top, count, sole = q._best.get(state, q._unseen)
    n_actions = q.n_actions
    if count == n_actions:
        return int(u * n_actions)
    if count == 1:
        if not explore:
            return sole
        j = int(u * (n_actions - 1))
        return j + (j >= sole)
    row = q._rows[state]  # a partial tie: the row has been written
    pool = (row != top if explore else row == top).nonzero()[0]
    return int(pool[int(u * pool.size)])


def update_q(q: QTable, state: int, action: int, utility: float, next_state: int,
             alpha: float, beta: float) -> float:
    """Apply one Bellman step to the (state, action) entry; returns it.

    Q(s, x) <- (1 - alpha) Q(s, x) + alpha (u + beta max_x' Q(s', x'))

    The row is looked up once, and its old entry handed to the write that
    QTable.set also makes, which rejects a non-finite value before it
    creates the row.
    """
    row = q._rows.get(state)
    old = 0.0 if row is None else row.item(action)
    value = (1.0 - alpha) * old + alpha * (utility + beta * q._best.get(next_state, q._unseen)[0])
    q._write(state, row, action, old, value)
    return value


def epsilon_at(slots, start: float, end: float, decay_slots: int) -> list[float]:
    """The exploration rate of each slot in slots, decayed linearly from
    start to end over decay_slots, constant once decay completes."""
    return [end if slot >= decay_slots else start + (end - start) * (slot / decay_slots)
            for slot in slots]

