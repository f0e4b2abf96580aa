"""Experiment configuration: strict INI parsing into one resolved object.

The file format is plain INI with fixed sections.  Every known key must
be present and no other keys are accepted, so a config file is always a
complete, unambiguous record of an experiment.  Quantities carry their
unit in the key name (mW, Hz, meters); they are converted to SI here and
nowhere else.  Each value is checked once, on construction: the nested
records check their own fields and ExperimentConfig the rest, so every
ExperimentConfig (dataclasses.replace too) is valid and the simulator
takes its values as given.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import operator
import typing
from dataclasses import dataclass

from .agent import AgentConfig
from .channel import ChannelParams
from .metrics import LinkParams, UtilityWeights
from .topology import REUSE_MODES

POLICIES = ("rpic", "fixed_max", "fixed_half", "random", "greedy_myopic")


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration input."""


def canonical_policy(name: str) -> str:
    """Normalize a policy name (case and separators ignored)."""
    folded = name.strip().lower().replace("-", "").replace("_", "")
    for policy in POLICIES:
        if folded == policy.replace("_", ""):
            return policy
    raise ConfigError(f"unknown policy {name!r}, expected one of {', '.join(POLICIES)}")


# One row per INI key: section, key, kind, SI factor (None: the file unit
# is SI), and the ExperimentConfig attribute the key fills (None: the
# attribute has the key's name; a dotted one is a field of the nested
# parameter object named before the dot).  Kinds are int, float, bool and
# str, plus "match|int" (the word "match" reads as None) and
# canonical_policy (any policy alias it accepts).
_KEYS = (
    ("topology", "rows", int, None, None),
    ("topology", "cols", int, None, None),
    ("topology", "spacing_m", float, None, "spacing"),
    ("topology", "ap_height_m", float, None, "ap_height"),
    ("topology", "reuse_mode", str, None, None),
    ("channel", "detector_area_cm2", float, 1e-4, "channel.detector_area"),
    ("channel", "semi_angle_deg", float, None, "channel.semi_angle_half_intensity"),
    ("channel", "fov_deg", float, None, "channel.fov_angle"),
    ("channel", "responsivity_a_per_w", float, None, "channel.responsivity"),
    ("link", "total_bandwidth_hz", float, None, "link.total_bandwidth"),
    ("link", "noise_psd_a2_per_hz", float, None, "link.noise_psd"),
    ("link", "effective_bandwidth_factor", float, None, "link.effective_bandwidth_factor"),
    ("link", "squared_electrical_power", bool, None, None),
    ("mobility", "v_min_mps", float, None, "v_min"),
    ("mobility", "v_max_mps", float, None, "v_max"),
    ("mobility", "slot_duration_s", float, None, "slot_duration"),
    ("mobility", "ue_height_m", float, None, "ue_height"),
    ("interference", "neighbor_power_mw", float, 1e-3, "neighbor_power"),
    ("interference", "neighbor_ues", "match|int", None, None),
    ("agent", "power_levels", int, None, "agent.power_levels"),
    ("agent", "max_power_mw", float, 1e-3, "agent.max_power"),
    ("agent", "learning_rate", float, None, "agent.learning_rate"),
    ("agent", "discount", float, None, "agent.discount"),
    ("agent", "epsilon_start", float, None, "agent.epsilon_start"),
    ("agent", "epsilon_end", float, None, "agent.epsilon_end"),
    ("agent", "epsilon_decay_slots", int, None, "agent.epsilon_decay_slots"),
    ("agent", "warmup_slots", int, None, "agent.warmup_slots"),
    ("agent", "max_slots", int, None, "agent.max_slots"),
    ("agent", "rate_bins", int, None, None),
    ("agent", "gain_bins", int, None, None),
    ("agent", "sinr_cap", float, None, None),
    ("agent", "action_cap", int, None, None),
    ("agent", "replay", bool, None, None),
    ("agent", "replay_batch", int, None, None),
    ("utility", "energy_weight_per_mw", float, None, "weights.energy_weight"),
    ("utility", "interference_weight_per_mw", float, None, "weights.interference_weight"),
    ("experiment", "policy", canonical_policy, None, None),
    ("experiment", "ue_density", int, None, None),
    ("experiment", "runs", int, None, None),
    ("experiment", "seed", int, None, None),
)

_SECTIONS = {section: {k for s, k, *_ in _KEYS if s == section} for section, *_ in _KEYS}

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters, SI units throughout."""

    rows: int
    cols: int
    spacing: float
    ap_height: float
    reuse_mode: str
    channel: ChannelParams
    link: LinkParams
    squared_electrical_power: bool
    v_min: float
    v_max: float
    slot_duration: float
    ue_height: float
    neighbor_power: float  # watts per neighbor AP
    neighbor_ues: int | None  # None means: match ue_density
    agent: AgentConfig
    rate_bins: int
    gain_bins: int
    sinr_cap: float
    action_cap: int
    replay: bool
    replay_batch: int
    weights: UtilityWeights
    policy: str
    ue_density: int
    runs: int
    seed: int

    def __post_init__(self):
        if self.reuse_mode not in REUSE_MODES:
            raise ConfigError(
                f"reuse_mode must be one of {', '.join(REUSE_MODES)}, got {self.reuse_mode!r}"
            )
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {', '.join(POLICIES)}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("grid needs at least one row and one column")
        if self.spacing <= 0.0:
            raise ConfigError("spacing_m must be positive")
        if self.ap_height <= 0.0:
            raise ConfigError("ap_height_m must be positive")
        if not 0.0 <= self.ue_height < self.ap_height:
            raise ConfigError("ue_height_m must be in [0, ap_height_m)")
        if not 0.0 <= self.v_min <= self.v_max:
            raise ConfigError("need 0 <= v_min_mps <= v_max_mps")
        if self.slot_duration <= 0.0:
            raise ConfigError("slot_duration_s must be positive")
        if self.neighbor_power < 0.0:
            raise ConfigError("neighbor_power_mw must be non-negative")
        if self.neighbor_ues is not None and self.neighbor_ues < 0:
            raise ConfigError("neighbor_ues must be 'match' or a non-negative integer")
        if self.rate_bins < 1 or self.gain_bins < 1:
            raise ConfigError("rate_bins and gain_bins must be at least 1")
        # log2(1 + sinr_cap) is the rate grid's top edge, so it must not round to 0
        if self.sinr_cap <= 0.0 or 1.0 + self.sinr_cap == 1.0:
            raise ConfigError(f"need sinr_cap > 0 and 1 + sinr_cap > 1, got {self.sinr_cap}")
        if self.action_cap < 1:
            raise ConfigError("action_cap must be at least 1")
        if self.replay_batch < 1:
            raise ConfigError("replay_batch must be at least 1")
        if self.ue_density < 1:
            raise ConfigError("ue_density must be at least 1")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        levels, n = self.agent.power_levels + 1, self.ue_density
        # levels >= 2, so past the cap's bit length the space exceeds it; the
        # short circuit keeps a huge N from building a huge integer.
        if n > self.action_cap.bit_length() or levels**n > self.action_cap:
            raise ConfigError(
                f"joint action space (L+1)^N = {levels}^{n}"
                f" exceeds action_cap = {self.action_cap}; lower ue_density or power_levels"
            )

    def n_neighbor_ues(self) -> int:
        return self.ue_density if self.neighbor_ues is None else self.neighbor_ues

    def resolved(self) -> dict:
        """Nested dict mirroring the file layout, in the file's units."""
        tree: dict[str, dict] = {}
        for section, key, kind, factor, attr in _KEYS:
            value = operator.attrgetter(attr or key)(self)
            if factor is not None:
                # 1 / 1e-4 and 1 / 1e-3 equal 1e4 and 1e3 exactly; dividing
                # by the factor would change the last bit of some values,
                # and so the fingerprint.
                value *= 1 / factor
            elif kind == "match|int" and value is None:
                value = "match"
            tree.setdefault(section, {})[key] = value
        return tree

    def fingerprint(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


def _parse(section: str, key: str, kind, raw: str):
    """One raw INI value as its kind, with uniform error reporting."""
    word = raw.strip().lower()
    if kind is str:
        return word
    if kind is canonical_policy:
        return canonical_policy(raw)
    if kind is bool:
        if word not in _BOOLEANS:
            raise ConfigError(f"[{section}] {key}: expected a boolean, got {word!r}")
        return _BOOLEANS[word]
    if kind == "match|int":
        if word == "match":
            return None
        kind = int
    try:
        return kind(raw)
    except ValueError:
        expected = "a number" if kind is float else "an integer"
        raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None


def _read_sections(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not accepted")

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    unknown_sections = sorted(set(sections) - set(_SECTIONS))
    if unknown_sections:
        raise ConfigError(f"unknown sections: {', '.join(unknown_sections)}")
    missing_sections = sorted(set(_SECTIONS) - set(sections))
    if missing_sections:
        raise ConfigError(f"missing sections: {', '.join(missing_sections)}")
    for name, keys in _SECTIONS.items():
        unknown = sorted(set(sections[name]) - keys)
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {', '.join(unknown)}")
        missing = sorted(keys - set(sections[name]))
        if missing:
            raise ConfigError(f"missing keys in [{name}]: {', '.join(missing)}")
    return sections


def load_experiment(
    path,
    policy: str | None = None,
    density: int | None = None,
    runs: int | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """Load a config file with optional CLI overrides, checked once as a whole."""
    sections = _read_sections(path)
    # Parsed values grouped by owner: "" holds ExperimentConfig's own
    # fields, every other owner names a nested parameter object.
    groups: dict[str, dict] = {}
    for section, key, kind, factor, attr in _KEYS:
        value = _parse(section, key, kind, sections[section][key])
        if factor is not None:
            value *= factor
        owner, _, name = (attr or key).rpartition(".")
        groups.setdefault(owner, {})[name] = value
    fields = groups.pop("")
    owner_types = typing.get_type_hints(ExperimentConfig)
    try:
        for owner, params in groups.items():
            fields[owner] = owner_types[owner](**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if policy is not None:
        policy = canonical_policy(policy)
    overrides = dict(policy=policy, ue_density=density, runs=runs, seed=seed)
    fields.update((name, value) for name, value in overrides.items() if value is not None)
    return ExperimentConfig(**fields)
