"""Experiment configuration: strict INI parsing into one resolved object.

The file format is plain INI with fixed sections.  Every known key must
be present and no other keys are accepted, so a config file is always a
complete, unambiguous record of an experiment.  Quantities carry their
unit in the key name (mW, Hz, meters); they are converted to SI here and
nowhere else.  Each key's valid range is declared in its _KEYS row, and
ExperimentConfig checks every row and the rules that tie keys together
on construction, so every ExperimentConfig (dataclasses.replace too) is
valid and the simulator takes its values as given.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import operator
from dataclasses import dataclass

from .agent import AgentConfig, StateQuantizer
from .kernels import lambertian_order
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
# is SI), the ExperimentConfig attribute the key fills (None: the
# attribute has the key's name; "agent." names a field of AgentConfig),
# and the valid values in file units: an interval whose bounds are each
# open or closed, or a tuple of the allowed values.  Kinds are int,
# float, bool and str, plus "match|int" (the word "match" reads as None
# and is always valid) and canonical_policy (any policy alias it accepts).
_KEYS = (
    ("topology", "rows", int, None, None, "[1, inf)"),
    ("topology", "cols", int, None, None, "[1, inf)"),
    ("topology", "spacing_m", float, None, "spacing", "(0, inf)"),
    ("topology", "ap_height_m", float, None, "ap_height", "(0, inf)"),
    ("topology", "reuse_mode", str, None, None, REUSE_MODES),
    ("channel", "detector_area_cm2", float, 1e-4, "detector_area", "(0, inf)"),
    ("channel", "semi_angle_deg", float, None, "semi_angle_half_intensity", "(0, 90)"),
    ("channel", "fov_deg", float, None, "fov_angle", "(0, 90]"),
    ("channel", "responsivity_a_per_w", float, None, "responsivity", "(0, inf)"),
    ("link", "total_bandwidth_hz", float, None, "total_bandwidth", "(0, inf)"),
    ("link", "noise_psd_a2_per_hz", float, None, "noise_psd", "(0, inf)"),
    ("link", "effective_bandwidth_factor", float, None, None, "(0, 1]"),
    ("link", "squared_electrical_power", bool, None, None, (False, True)),
    ("mobility", "v_min_mps", float, None, "v_min", "[0, inf)"),
    ("mobility", "v_max_mps", float, None, "v_max", "[0, inf)"),
    ("mobility", "slot_duration_s", float, None, "slot_duration", "(0, inf)"),
    ("mobility", "ue_height_m", float, None, "ue_height", "[0, inf)"),
    ("interference", "neighbor_power_mw", float, 1e-3, "neighbor_power", "[0, inf)"),
    ("interference", "neighbor_ues", "match|int", None, None, "[0, inf)"),
    ("agent", "power_levels", int, None, "agent.power_levels", "[1, inf)"),
    ("agent", "max_power_mw", float, 1e-3, "agent.max_power", "(0, inf)"),
    ("agent", "learning_rate", float, None, "agent.learning_rate", "(0, 1]"),
    ("agent", "discount", float, None, "agent.discount", "[0, 1)"),
    ("agent", "epsilon_start", float, None, "agent.epsilon_start", "[0, 1]"),
    ("agent", "epsilon_end", float, None, "agent.epsilon_end", "[0, 1]"),
    ("agent", "epsilon_decay_slots", int, None, "agent.epsilon_decay_slots", "[0, inf)"),
    ("agent", "warmup_slots", int, None, "agent.warmup_slots", "[0, inf)"),
    ("agent", "max_slots", int, None, "agent.max_slots", "[1, inf)"),
    ("agent", "rate_bins", int, None, None, "[1, inf)"),
    ("agent", "gain_bins", int, None, None, "[1, inf)"),
    ("agent", "sinr_cap", float, None, None, "(0, inf)"),
    ("agent", "action_cap", int, None, None, "[1, inf)"),
    ("agent", "replay", bool, None, None, (False, True)),
    ("agent", "replay_batch", int, None, None, "[1, inf)"),
    ("utility", "energy_weight_per_mw", float, None, "energy_weight", "[0, inf)"),
    ("utility", "interference_weight_per_mw", float, None, "interference_weight", "[0, inf)"),
    ("experiment", "policy", canonical_policy, None, None, POLICIES),
    ("experiment", "ue_density", int, None, None, "[1, inf)"),
    ("experiment", "runs", int, None, None, "[1, inf)"),
    ("experiment", "seed", int, None, None, "[0, inf)"),
)

_SECTIONS = {section: {k for s, k, *_ in _KEYS if s == section} for section, *_ in _KEYS}


def _inside(value, domain) -> bool:
    """Whether a file-unit value lies in a _KEYS domain; NaN lies in none."""
    if isinstance(domain, tuple):
        return value in domain
    low, high = (float(bound) for bound in domain[1:-1].split(","))
    return ((low <= value if domain[0] == "[" else low < value)
            and (value <= high if domain[-1] == "]" else value < high))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters, SI units throughout."""

    rows: int
    cols: int
    spacing: float
    ap_height: float
    reuse_mode: str
    detector_area: float  # m^2
    semi_angle_half_intensity: float  # LED half-intensity semi-angle, degrees
    fov_angle: float  # photodiode field-of-view half-angle, degrees
    responsivity: float  # A/W
    total_bandwidth: float  # Hz
    noise_psd: float  # A^2/Hz
    effective_bandwidth_factor: float
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
    energy_weight: float  # utility per mW spent
    interference_weight: float  # utility per mW leaked
    policy: str
    ue_density: int
    runs: int
    seed: int

    def __post_init__(self):
        for (section, key, kind, *_, domain), value in self._file_values():
            if kind == "match|int" and value == "match" or _inside(value, domain):
                continue
            if isinstance(domain, tuple):
                domain = "one of " + ", ".join(map(str, domain))
            else:
                domain = "in " + domain
            raise ConfigError(f"[{section}] {key} must be {domain}, got {value!r}")
        agent = self.agent
        try:  # cell edges reach max(rows, cols) * spacing; the central-AP search squares it
            extent = max(self.rows, self.cols) * self.spacing
        except OverflowError:
            extent = math.inf
        for ok, message in (
            (extent * extent < math.inf,
             f"[topology] spacing_m = {self.spacing!r} times rows = {self.rows!r} or"
             f" cols = {self.cols!r}, and its square, must be finite"),
            (self.ue_height < self.ap_height,
             f"[mobility] ue_height_m = {self.ue_height!r} must be below"
             f" [topology] ap_height_m = {self.ap_height!r}"),
            (self.v_min <= self.v_max,
             f"[mobility] v_min_mps = {self.v_min!r} must not exceed v_max_mps = {self.v_max!r}"),
            (agent.epsilon_start >= agent.epsilon_end,
             f"[agent] epsilon_start = {agent.epsilon_start!r} must not be below"
             f" epsilon_end = {agent.epsilon_end!r}"),
            (agent.warmup_slots < agent.max_slots,
             f"[agent] warmup_slots = {agent.warmup_slots!r} must be below"
             f" max_slots = {agent.max_slots!r}"),
            # log2(1 + sinr_cap) is the rate grid's top edge, so it must not round to 0
            (1.0 + self.sinr_cap > 1.0,
             f"[agent] sinr_cap = {self.sinr_cap!r} must leave 1 + sinr_cap > 1"),
        ):
            if not ok:
                raise ConfigError(message)
        try:  # the drop to the receiver may square to 0 or overflow
            gain_max = self.gain_max()
        except ArithmeticError:
            gain_max = math.nan
        if not 0.0 < gain_max < math.inf:
            raise ConfigError(f"the gain under the AP, the gain grid's top edge, is {gain_max!r};"
                              " it must be finite and positive: check the heights and semi_angle")
        levels, n = agent.power_levels + 1, self.ue_density
        # levels >= 2, so past the cap's bit length the space exceeds it; the
        # short circuit keeps a huge N from building a huge integer.
        if n > self.action_cap.bit_length() or levels**n > self.action_cap:
            raise ConfigError(
                f"joint action space (L+1)^N = {levels}^{n}"
                f" exceeds action_cap = {self.action_cap}; lower ue_density or power_levels"
            )

    @property
    def fov_rad(self) -> float:
        return math.radians(self.fov_angle)

    def per_ue_bandwidth(self) -> float:
        """Bandwidth share W_n of each of the ue_density equal users, in Hz."""
        return self.effective_bandwidth_factor * self.total_bandwidth / self.ue_density

    def gain_max(self) -> float:
        """The gain directly under the AP, the top edge of the state's gain
        grid, in closed form: through lambertian_gains its last bit moves."""
        dz = self.ap_height - self.ue_height
        m_order = lambertian_order(self.semi_angle_half_intensity)
        return (m_order + 1.0) * self.detector_area / (2.0 * math.pi * dz ** 2)

    def state_grid(self) -> StateQuantizer:
        """The learner's state grid: rates up to the per-UE Shannon rate at
        sinr_cap, gains up to gain_max()."""
        rate_max = self.per_ue_bandwidth() * math.log2(1.0 + self.sinr_cap)
        return StateQuantizer(self.rate_bins, self.gain_bins, rate_max, self.gain_max())

    def n_neighbor_ues(self) -> int:
        return self.ue_density if self.neighbor_ues is None else self.neighbor_ues

    def _file_values(self):
        """Each _KEYS row with its value in the file's units."""
        for row in _KEYS:
            _, key, kind, factor, attr, _ = row
            value = operator.attrgetter(attr or key)(self)
            if factor is not None:
                # 1 / 1e-4 and 1 / 1e-3 equal 1e4 and 1e3 exactly; dividing
                # by the factor would change the last bit of some values,
                # and so the fingerprint.
                value *= 1 / factor
            elif kind == "match|int" and value is None:
                value = "match"
            yield row, value

    def resolved(self) -> dict:
        """Nested dict mirroring the file layout, in the file's units."""
        tree: dict[str, dict] = {}
        for (section, key, *_), value in self._file_values():
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
        try:
            return canonical_policy(raw)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    if kind is bool:
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ConfigError(f"[{section}] {key}: expected a boolean, got {word!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    if kind == "match|int":
        if word == "match":
            return None
        kind = int
    try:
        value = kind(raw)
    except ValueError:
        expected = "a number" if kind is float else "an integer"
        raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None
    return value


def _read_sections(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        loaded = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
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
    fields, agent = {}, {}
    for section, key, kind, factor, attr, _ in _KEYS:
        value = _parse(section, key, kind, sections[section][key])
        if factor is not None:
            value *= factor
        owner, _, name = (attr or key).rpartition(".")
        (agent if owner else fields)[name] = value
    fields["agent"] = AgentConfig(**agent)

    if policy is not None:
        policy = canonical_policy(policy)
    overrides = dict(policy=policy, ue_density=density, runs=runs, seed=seed)
    fields.update((name, value) for name, value in overrides.items() if value is not None)
    return ExperimentConfig(**fields)
