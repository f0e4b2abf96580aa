"""Tabular Q-learning pieces: state keys, action set, selection, update.

The learner picks one joint power vector per slot.  States are built by
uniform binning of the previous slot's per-UE rates and the current
per-UE serving gains, plus the UE count.  The Q-table is a sparse map
with implicit zeros, so the huge nominal state space costs nothing until
states are actually visited.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentConfig:
    power_levels: int  # L; the action grid has L+1 values including zero
    max_power: float  # watts
    learning_rate: float
    discount: float
    epsilon_start: float
    epsilon_end: float
    epsilon_decay_slots: int
    warmup_slots: int
    max_slots: int

    def __post_init__(self):
        if self.power_levels < 1:
            raise ValueError("power_levels must be at least 1")
        if self.max_power <= 0.0:
            raise ValueError("max_power must be positive")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_start < self.epsilon_end:
            raise ValueError("epsilon_start must be >= epsilon_end")
        if self.epsilon_decay_slots < 0:
            raise ValueError("epsilon_decay_slots must be non-negative")
        if self.max_slots < 1:
            raise ValueError("max_slots must be at least 1")
        if not 0 <= self.warmup_slots < self.max_slots:
            raise ValueError("warmup_slots must be in [0, max_slots)")


@dataclass(frozen=True)
class StateKey:
    rate_bins: tuple[int, ...]
    gain_bins: tuple[int, ...]
    density: int

    def __post_init__(self):
        if self.density < 1:
            raise ValueError("density must be at least 1")
        if len(self.rate_bins) != self.density or len(self.gain_bins) != self.density:
            raise ValueError("bin tuples must have one entry per UE")

    def to_str(self) -> str:
        rates = ",".join(str(b) for b in self.rate_bins)
        gains = ",".join(str(b) for b in self.gain_bins)
        return f"{rates}|{gains}|{self.density}"

    @classmethod
    def from_str(cls, text: str) -> "StateKey":
        try:
            rates, gains, density = text.split("|")
            return cls(
                rate_bins=tuple(int(b) for b in rates.split(",")),
                gain_bins=tuple(int(b) for b in gains.split(",")),
                density=int(density),
            )
        except ValueError as exc:
            raise ValueError(f"malformed state key {text!r}") from exc


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

    def __post_init__(self):
        if self.rate_bins < 1 or self.gain_bins < 1:
            raise ValueError("bin counts must be at least 1")
        if self.rate_max <= 0.0 or self.gain_max <= 0.0:
            raise ValueError("grid upper edges must be positive")


def _bin_indices(values: np.ndarray, upper: float, n_bins: int) -> tuple[int, ...]:
    idx = np.floor(values * (n_bins / upper)).astype(np.int64)
    return tuple(int(i) for i in np.clip(idx, 0, n_bins - 1))


def quantize_state(rates, gains, density: int, quant: StateQuantizer) -> StateKey:
    """Deterministic StateKey for one slot's observations."""
    rates = np.asarray(rates, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if rates.shape != (density,) or gains.shape != (density,):
        raise ValueError("rates and gains must have one entry per UE")
    if (rates < 0.0).any() or (gains < 0.0).any():
        raise ValueError("rates and gains must be non-negative")
    return StateKey(
        rate_bins=_bin_indices(rates, quant.rate_max, quant.rate_bins),
        gain_bins=_bin_indices(gains, quant.gain_max, quant.gain_bins),
        density=density,
    )


@dataclass(frozen=True, eq=False)
class ActionSet:
    """All joint power vectors over the quantized per-UE grid.

    levels holds the L+1 per-UE power values 0, X/L, ..., X.  Joint
    actions are in lexicographic order of per-UE level indices with the
    first UE most significant: index 0 is all-zero, the last index is
    all-max.
    """

    levels: np.ndarray  # (L+1,) watts
    level_indices: np.ndarray  # (n_actions, n_ues)
    powers: np.ndarray  # (n_actions, n_ues) watts

    @property
    def n_actions(self) -> int:
        return self.powers.shape[0]

    @property
    def n_ues(self) -> int:
        return self.powers.shape[1]

    def index_of(self, level_indices) -> int:
        """Flat index of the joint action with these per-UE level indices."""
        radix = self.levels.shape[0]
        if len(level_indices) != self.n_ues:
            raise ValueError("need one level index per UE")
        flat = 0
        for level in level_indices:
            if not 0 <= level < radix:
                raise ValueError(f"level index {level} out of range")
            flat = flat * radix + int(level)
        return flat


def enumerate_actions(
    power_levels: int,
    max_power: float,
    n_ues: int,
    cap: int = 1_000_000,
) -> ActionSet:
    if power_levels < 1:
        raise ValueError("power_levels must be at least 1")
    if max_power <= 0.0:
        raise ValueError("max_power must be positive")
    if n_ues < 1:
        raise ValueError("n_ues must be at least 1")
    count = (power_levels + 1) ** n_ues
    if count > cap:
        raise ValueError(
            f"joint action space has {count} entries, exceeding the cap of {cap}"
        )
    indices = np.array(
        list(itertools.product(range(power_levels + 1), repeat=n_ues)), dtype=np.int64
    )
    levels = np.arange(power_levels + 1) * (max_power / power_levels)
    return ActionSet(levels=levels, level_indices=indices, powers=levels[indices])


class QTable:
    """Sparse state -> action-value-row map with implicit zero rows."""

    def __init__(self, n_actions: int):
        if n_actions < 1:
            raise ValueError("n_actions must be at least 1")
        self.n_actions = n_actions
        self._rows: dict[StateKey, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def states(self):
        return self._rows.keys()

    def row(self, state: StateKey) -> np.ndarray:
        """Value row for a state; a zero row (not inserted) if unseen."""
        existing = self._rows.get(state)
        if existing is not None:
            return existing
        return np.zeros(self.n_actions)

    def value(self, state: StateKey, action: int) -> float:
        return float(self.row(state)[action])

    def max_value(self, state: StateKey) -> float:
        return float(self.row(state).max())

    def set(self, state: StateKey, action: int, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("q-values must be finite")
        existing = self._rows.get(state)
        if existing is None:
            existing = np.zeros(self.n_actions)
            self._rows[state] = existing
        existing[action] = value

    def save(self, path, quant: StateQuantizer, extra: dict | None = None) -> None:
        """Write the table as tab-separated state/action/value lines.

        The header row records the binning grid and action count needed
        to interpret the keys; extra appends further key=value pairs
        (for example the power grid behind the action indices).
        """
        header = (
            "# rate_bins=%d gain_bins=%d rate_max=%.17g gain_max=%.17g n_actions=%d"
            % (quant.rate_bins, quant.gain_bins, quant.rate_max, quant.gain_max, self.n_actions)
        )
        for key, value in (extra or {}).items():
            part = "%.17g" % value if isinstance(value, float) else str(value)
            header += f" {key}={part}"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for state in sorted(self._rows, key=StateKey.to_str):
                row = self._rows[state]
                key = state.to_str()
                for action in np.flatnonzero(row != 0.0):
                    fh.write("%s\t%d\t%.17g\n" % (key, action, row[action]))

    @classmethod
    def load(cls, path) -> tuple["QTable", dict]:
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
            if "n_actions" not in meta:
                raise ValueError("header does not record n_actions")
            table = cls(n_actions=meta["n_actions"])
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                key, action, value = line.split("\t")
                action = int(action)
                if not 0 <= action < table.n_actions:
                    raise ValueError(f"action {action} outside [0, {table.n_actions})")
                table.set(StateKey.from_str(key), action, float(value))
        return table, meta


@dataclass(frozen=True)
class Experience:
    state: StateKey
    action: int
    utility: float
    next_state: StateKey


def select_action(
    q: QTable,
    state: StateKey,
    actions: ActionSet,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy pick over the joint action set.

    With probability 1 - epsilon: a uniform draw among the maximizers of
    Q(state, .).  Otherwise: a uniform draw among the non-maximizers, so
    each carries probability epsilon / (n_actions - 1) when the maximizer
    is unique.  If every action is a maximizer the two branches coincide.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if actions.n_actions != q.n_actions:
        raise ValueError("action set size does not match the q-table")
    row = q.row(state)
    best = np.flatnonzero(row == row.max())
    pool = best
    if rng.random() < epsilon:
        others = np.flatnonzero(row != row.max())
        if others.size:
            pool = others
    return int(pool[rng.integers(pool.size)])


def update_q(q: QTable, exp: Experience, alpha: float, beta: float) -> float:
    """Apply one Bellman step to the (state, action) entry; returns it.

    Q(s, x) <- (1 - alpha) Q(s, x) + alpha (u + beta max_x' Q(s', x'))
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    old = q.value(exp.state, exp.action)
    value = (1.0 - alpha) * old + alpha * (exp.utility + beta * q.max_value(exp.next_state))
    q.set(exp.state, exp.action, value)
    return value


def epsilon_at(slot: int, config: AgentConfig) -> float:
    """Linearly decayed exploration rate, constant once decay completes."""
    if slot < 0:
        raise ValueError("slot must be non-negative")
    if slot >= config.epsilon_decay_slots:
        return config.epsilon_end
    frac = slot / config.epsilon_decay_slots
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


def warmup_policy(
    slot: int,
    config: AgentConfig,
    actions: ActionSet,
    rng: np.random.Generator,
) -> int | None:
    """Uniform random action during the warmup slots, None afterwards."""
    if slot < config.warmup_slots:
        return int(rng.integers(actions.n_actions))
    return None
