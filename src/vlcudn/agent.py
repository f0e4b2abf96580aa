"""Tabular Q-learning pieces: state index, power grid, selection, update.

The learner picks one joint power vector per slot.  Its state is the
uniform bin of each UE's previous-slot rate and of each UE's current
serving gain, held as one integer: a mixed-radix number whose digits are
the N rate bins, then the N gain bins, first UE most significant.  The
index is a plain Python int, so it stays exact past 2**63 at large bin
counts.  The Q-table is a sparse map with implicit zeros, so the huge
nominal state space costs nothing until states are actually visited.

qtable.tsv spells a state as "r1,..,rN|g1,..,gN|N" (state_key) and lists
the rows in string order of that key, which differs from index order once
a bin count reaches 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentConfig:
    """The learner's parameters, checked by the ExperimentConfig holding them."""

    power_levels: int  # L; the action grid has L+1 values including zero
    max_power: float  # watts
    learning_rate: float
    discount: float
    epsilon_start: float
    epsilon_end: float
    epsilon_decay_slots: int
    warmup_slots: int
    max_slots: int


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


def quantize_state(rates, gains, quant: StateQuantizer) -> int:
    """State index of one slot's per-UE rates and gains (module docstring)."""
    index = 0
    for values, n_bins, upper in (
        (rates, quant.rate_bins, quant.rate_max),
        (gains, quant.gain_bins, quant.gain_max),
    ):
        scale = n_bins / upper
        top = n_bins - 1
        for v in values:
            # int() truncates: floor for v >= 0, and any v < 0 still clamps to 0
            index = index * n_bins + min(max(int(v * scale), 0), top)
    return index


def _key_text(rates, gains, density: int) -> str:
    return f"{','.join(map(str, rates))}|{','.join(map(str, gains))}|{density}"


def state_key(index: int, quant: StateQuantizer, density: int) -> str:
    """The qtable.tsv key "r1,..,rN|g1,..,gN|N" of a state index."""
    digits = []
    for n_bins in (quant.gain_bins,) * density + (quant.rate_bins,) * density:
        index, digit = divmod(index, n_bins)
        digits.append(digit)
    digits.reverse()
    return _key_text(digits[:density], digits[density:], density)


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
    """Sparse state -> action-value-row map with implicit zero rows.

    The learner keys rows by state index.  A table read back by load is
    keyed by the file's state keys, the text that inspect-q prints.
    """

    def __init__(self, n_actions: int):
        self.n_actions = n_actions
        self._rows: dict[int | str, np.ndarray] = {}

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
        if not math.isfinite(value):
            raise ValueError("q-values must be finite")
        existing = self._rows.get(state)
        if existing is None:
            existing = np.zeros(self.n_actions)
            self._rows[state] = existing
        existing[action] = value

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
        """A saved table keyed by its state keys, and the header's pairs.

        Every check on a q-table file is made here: all seven header fields,
        integers n_actions, rate_bins and gain_bins >= 1, actions below
        n_actions, one UE count N over all keys, bins inside the header's
        grid, and a power grid with integer L = power_levels >= 1, a finite
        max_power > 0 and (L + 1)**N == n_actions.
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
            n_actions, grid = meta["n_actions"], (meta["rate_bins"], meta["gain_bins"])
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
                rates, gains, density = parse_state_key(key)
                for bins, n_bins in zip((rates, gains), grid):
                    if not all(0 <= b < n_bins for b in bins):
                        raise ValueError(f"state key {key!r} has a bin outside the header's grid")
                ue_counts.add(density)
                table.set(_key_text(rates, gains, density), action, float(value))
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
        return table, meta


def select_action(q: QTable, state: int, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy pick over the joint action set.

    With probability 1 - epsilon: a uniform draw among the maximizers of
    Q(state, .).  Otherwise: a uniform draw among the non-maximizers, so
    each carries probability epsilon / (n_actions - 1) when the maximizer
    is unique.  If every action is a maximizer the two branches coincide.
    """
    row = q.row(state)
    top = row.max()
    pool = np.flatnonzero(row == top)
    if rng.random() < epsilon:
        others = np.flatnonzero(row != top)
        if others.size:
            pool = others
    return int(pool[rng.integers(pool.size)])


def update_q(q: QTable, state: int, action: int, utility: float, next_state: int,
             alpha: float, beta: float) -> float:
    """Apply one Bellman step to the (state, action) entry; returns it.

    Q(s, x) <- (1 - alpha) Q(s, x) + alpha (u + beta max_x' Q(s', x'))
    """
    old = float(q.row(state)[action])
    value = (1.0 - alpha) * old + alpha * (utility + beta * float(q.row(next_state).max()))
    q.set(state, action, value)
    return value


def epsilon_at(slot: int, start: float, end: float, decay_slots: int) -> float:
    """Exploration rate decayed linearly from start to end over decay_slots,
    constant once decay completes."""
    if slot >= decay_slots:
        return end
    return start + (end - start) * (slot / decay_slots)


def warmup_policy(slot: int, warmup_slots: int, n_actions: int,
                  rng: np.random.Generator) -> int | None:
    """Uniform random action during the warmup slots, None afterwards."""
    if slot < warmup_slots:
        return int(rng.integers(n_actions))
    return None
