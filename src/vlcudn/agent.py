"""Tabular Q-learning pieces: state index, power grid, Q-rows and their table.

The learner picks one joint power vector per slot.  Its state is the
uniform bin of each UE's previous-slot rate and of each UE's current
serving gain, held as one integer: a mixed-radix number whose digits are
the N rate bins, then the N gain bins, first UE most significant.  The
index is a plain Python int, so it stays exact past 2**63 at large bin
counts.  bin_values is the one place a value is binned: quantize_state
builds the index of one slot, or of every row of a (K, N) pair, on it,
and the learner bins a whole episode's rate table with it at once.  The
Q-table is a sparse map from state index to QRow with implicit zeros,
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
    object array of Python ints; (K, 0) rates give the gain part alone.
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


# The seven qtable.tsv header fields, in the order QTable.save writes them,
# each with its printf format.
_HEADER_FIELDS = (("rate_bins", "%d"), ("gain_bins", "%d"), ("rate_max", "%.17g"),
                  ("gain_max", "%.17g"), ("n_actions", "%d"), ("power_levels", "%d"),
                  ("max_power", "%.17g"))


class QRow:
    """One state's action values, their maximum top, the count of actions
    that reach it and, if that count is 1, the maximizer sole (else None);
    top equals values.max(), though a 0.0 may stand for a -0.0 there or the
    other way round.  A sole maximizer also has a runner-up bound (-inf when
    new) that no other action exceeds: the old maximum when another action
    rises past it, raised by each write to a non-maximal action.  So write
    scans the row only when a tie breaks down to one maximizer or the only
    maximizer falls to or below the bound, and that scan finds the exact
    runner-up.  write is the only writer of values and of the cache."""

    __slots__ = ("top", "count", "sole", "bound", "values")

    def __init__(self, n_actions: int):
        self.values = np.zeros(n_actions)
        self.top, self.count, self.sole = 0.0, n_actions, 0 if n_actions == 1 else None
        self.bound = -math.inf

    def select(self, explore: bool, u: float) -> int:
        """Epsilon-greedy pick: given the slot's coin (explore) and a uniform
        double u in [0, 1), the int(u * m)-th of the m maximizers, or when
        exploring of the m others (all actions if every one ties, as in a new
        row).  Only a partial tie scans the row, for the others: the j-th
        maximizer is j plus the count of others below it, and with a sole
        maximizer the j-th other is j + (j >= sole).  int(u * m) is below m,
        and each outcome's probability 1/m to within a relative m * 2**-53,
        for m up to 2**53; action_cap leaves m uncapped there, but a dense
        row of 2**30 actions, a bias of about 1e-7, already takes 8 GiB.
        """
        count, values = self.count, self.values
        if count == values.size:
            return int(u * count)
        if count == 1:
            if not explore:
                return self.sole
            j = int(u * (values.size - 1))
            return j + (j >= self.sole)
        others = (values != self.top).nonzero()[0]
        if explore:
            return int(others[int(u * others.size)])
        j = int(u * count)  # others[i] - i counts the maximizers below others[i]
        return j + int(np.searchsorted(others - np.arange(others.size), j, side="right"))

    def update(self, action: int, utility: float, next_top: float, alpha: float,
               beta: float) -> None:
        """Apply one Bellman step to the entry of action:

        Q(s, x) <- (1 - alpha) Q(s, x) + alpha (u + beta max_x' Q(s', x'))

        next_top is the top of the next state's row, read before this write.
        """
        old = self.values.item(action)
        value = (1.0 - alpha) * old + alpha * (utility + beta * next_top)
        self.write(action, old, value)

    def write(self, action: int, old: float, value: float) -> None:
        """Write value at action, whose entry was old, and keep the cache."""
        if not math.isfinite(value):
            raise ValueError("q-values must be finite")
        self.values[action] = value
        top = self.top
        if value > top:
            if action != self.sole:  # every other action is at most the old maximum
                self.bound = top
            self.top, self.count, self.sole = value, 1, int(action)
        elif value == top:
            if old != top:
                self.count, self.sole = self.count + 1, None
        elif old == top:  # a maximizer fell
            count = self.count
            if count == 1 and value > self.bound:
                self.top = value  # still above every other action
            elif count > 2:
                self.count = count - 1
            else:  # the sole maximizer fell to or below the bound, or a tie of two broke
                values = self.values
                second, top = np.partition(values, -2)[-2:].tolist()
                if second < top:
                    self.bound = second
                    self.top, self.count, self.sole = top, 1, int(values.argmax())
                else:
                    self.top, self.count, self.sole = top, np.count_nonzero(values == top), None
        elif value > self.bound:
            self.bound = value


class QTable:
    """Sparse state index -> QRow map.  The learner makes a state's row, all
    zeros, at the state's first lookup, and the row stays; set, load's path,
    adds a row only once its first write has passed the finiteness check,
    so a write that raises leaves the table as it was.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self.rows: dict[int, QRow] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, state) -> np.ndarray:
        """Read-only value row for a state; a zero row (not inserted) if it has none."""
        existing = self.rows.get(state)
        if existing is None:
            return np.zeros(self.n_actions)
        view = existing.values.view()
        view.flags.writeable = False
        return view

    def set(self, state, action: int, value: float) -> None:
        row = self.rows.get(state) or QRow(self.n_actions)
        row.write(action, row.values.item(action), float(value))
        self.rows[state] = row

    def save(self, path, quant: StateQuantizer, density: int, power_levels: int,
             max_power: float) -> None:
        """Write tab-separated state-key/action/value lines, in key order.

        The header row records the binning grid behind the keys, the action
        count and the power grid behind the actions: seven fields, all needed.
        """
        header = "# " + " ".join(f"{name}={fmt}" for name, fmt in _HEADER_FIELDS) % (
            quant.rate_bins, quant.gain_bins, quant.rate_max, quant.gain_max,
            self.n_actions, power_levels, max_power)
        keys = {state_key(state, quant, density): state for state in self.rows}
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for key in sorted(keys):
                row = self.rows[keys[key]].values
                for action in np.flatnonzero(row != 0.0):
                    fh.write("%s\t%d\t%.17g\n" % (key, action, row[action]))

    @classmethod
    def load(cls, path) -> tuple["QTable", dict]:
        """A saved table, and the header's pairs plus n_ues, the keys' UE
        count N (None when the table has no rows).  Each state key becomes
        its state index on the header's rate_bins and gain_bins.

        Every check on a q-table file is made here: all seven header fields,
        each a name=number token named once, integers n_actions, rate_bins and
        gain_bins >= 1, finite rate_max and gain_max > 0, data lines of a key,
        an integer action below n_actions and a finite number, no (state, action)
        twice, one UE count N over all keys, bins inside the header's grid,
        and a power grid with integer L = power_levels >= 1, a finite
        max_power > 0 and (L + 1)**N == n_actions.
        """
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise ValueError("missing header row")
            meta = {}
            for token in header[1:].split():
                key, _, raw = token.partition("=")
                if key in meta:
                    raise ValueError(f"header names {key} twice")
                try:
                    meta[key] = int(raw)
                except ValueError:
                    try:
                        meta[key] = float(raw)
                    except ValueError:
                        raise ValueError(f"header token {token!r} is not name=number") from None
            missing = [name for name, _ in _HEADER_FIELDS if name not in meta]
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
            ue_counts, written = set(), set()
            for number, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    key, action, value = line.split("\t")
                    action, value = int(action), float(value)
                except ValueError:
                    raise ValueError(f"line {number} is not key, action and value,"
                                     f" tab-separated: {line!r}") from None
                if not 0 <= action < n_actions:
                    raise ValueError(f"line {number} has action {action} outside [0, {n_actions})")
                if not math.isfinite(value):
                    raise ValueError(f"line {number} has a non-finite value {value!r}")
                rates, gains, n = parse_state_key(key)
                index = 0  # quantize_state's digits: N rate bins, then N gain bins
                for b, n_bins in zip(rates + gains, (rate_bins,) * n + (gain_bins,) * n):
                    if not 0 <= b < n_bins:
                        raise ValueError(f"line {number} has state key {key!r} with a bin"
                                         " outside the header's grid")
                    index = index * n_bins + b
                if (n, index, action) in written:
                    raise ValueError(f"line {number} repeats state key {key!r} action {action}")
                written.add((n, index, action))
                ue_counts.add(n)
                table.set(index, action, value)
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


def epsilon_at(slots, start: float, end: float, decay_slots: int) -> np.ndarray:
    """The exploration rate of each slot in slots: start + (end - start) *
    (slot / decay_slots) before slot decay_slots, end from it on."""
    slots = np.asarray(slots)
    return np.where(slots < decay_slots, start + (end - start) * (slots / max(decay_slots, 1)),
                    end)
