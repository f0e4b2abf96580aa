"""Experiment configuration: strict INI parsing into one resolved object.

The file format is plain INI with fixed sections.  Every known key must
be present and no other keys are accepted, so a config file is always a
complete, unambiguous record of an experiment.  Quantities carry their
unit in the key name (mW, Hz, meters); they are converted to SI here and
nowhere else.  Each key is declared once, on the ExperimentConfig field
it fills, with its section, SI factor and valid range; _KEYS lists them
in declaration order, which is the file's.
ExperimentConfig checks every key and the rules that tie keys together
on construction, so every ExperimentConfig (dataclasses.replace too) is
valid and the simulator takes its values as given.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .agent import StateQuantizer
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


def _key(section: str, key: str, domain, factor: float | None = None, kind=None):
    """The field that INI key [section] key fills.  domain holds its valid
    values in file units: an interval whose bounds are each open or closed,
    or a tuple of the allowed values.  A file value times factor is the
    field's SI value (None: the file unit is SI).  The field's annotation
    gives the parser, unless kind names one."""
    return dataclasses.field(
        metadata=dict(section=section, key=key, domain=domain, factor=factor, kind=kind))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters, SI units throughout."""

    rows: int = _key("topology", "rows", "[1, inf)")
    cols: int = _key("topology", "cols", "[1, inf)")
    spacing: float = _key("topology", "spacing_m", "(0, inf)")
    ap_height: float = _key("topology", "ap_height_m", "(0, inf)")
    reuse_mode: str = _key("topology", "reuse_mode", REUSE_MODES)
    detector_area: float = _key("channel", "detector_area_cm2", "(0, inf)", 1e-4)  # m^2
    semi_angle_half_intensity: float = _key("channel", "semi_angle_deg", "(0, 90)")  # LED, degrees
    fov_angle: float = _key("channel", "fov_deg", "(0, 90]")  # photodiode FOV half-angle, degrees
    responsivity: float = _key("channel", "responsivity_a_per_w", "(0, inf)")  # A/W
    total_bandwidth: float = _key("link", "total_bandwidth_hz", "(0, inf)")  # Hz
    noise_psd: float = _key("link", "noise_psd_a2_per_hz", "(0, inf)")  # A^2/Hz
    effective_bandwidth_factor: float = _key("link", "effective_bandwidth_factor", "(0, 1]")
    squared_electrical_power: bool = _key("link", "squared_electrical_power", (False, True))
    v_min: float = _key("mobility", "v_min_mps", "[0, inf)")
    v_max: float = _key("mobility", "v_max_mps", "[0, inf)")
    slot_duration: float = _key("mobility", "slot_duration_s", "(0, inf)")
    ue_height: float = _key("mobility", "ue_height_m", "[0, inf)")
    # watts per neighbor AP; neighbor_ues None means: match ue_density
    neighbor_power: float = _key("interference", "neighbor_power_mw", "[0, inf)", 1e-3)
    neighbor_ues: int | None = _key("interference", "neighbor_ues", "[0, inf)")
    power_levels: int = _key("agent", "power_levels", "[1, inf)")  # L; L+1 levels with zero
    max_power: float = _key("agent", "max_power_mw", "(0, inf)", 1e-3)  # watts
    learning_rate: float = _key("agent", "learning_rate", "(0, 1]")
    discount: float = _key("agent", "discount", "[0, 1)")
    epsilon_start: float = _key("agent", "epsilon_start", "[0, 1]")
    epsilon_end: float = _key("agent", "epsilon_end", "[0, 1]")
    epsilon_decay_slots: int = _key("agent", "epsilon_decay_slots", "[0, inf)")
    warmup_slots: int = _key("agent", "warmup_slots", "[0, inf)")
    max_slots: int = _key("agent", "max_slots", "[1, inf)")
    # 2**53 bins at most: agent.bin_values keeps them exact up to there
    rate_bins: int = _key("agent", "rate_bins", "[1, 9007199254740992]")
    gain_bins: int = _key("agent", "gain_bins", "[1, 9007199254740992]")
    sinr_cap: float = _key("agent", "sinr_cap", "(0, inf)")
    action_cap: int = _key("agent", "action_cap", "[1, inf)")
    replay: bool = _key("agent", "replay", (False, True))
    replay_batch: int = _key("agent", "replay_batch", "[1, inf)")
    # utility per mW spent and per mW leaked
    energy_weight: float = _key("utility", "energy_weight_per_mw", "[0, inf)")
    interference_weight: float = _key("utility", "interference_weight_per_mw", "[0, inf)")
    policy: str = _key("experiment", "policy", POLICIES, kind=canonical_policy)
    ue_density: int = _key("experiment", "ue_density", "[1, inf)")
    runs: int = _key("experiment", "runs", "[1, inf)")
    seed: int = _key("experiment", "seed", "[0, inf)")

    def __post_init__(self):
        for (section, key, kind, *_, domain), value in self._file_values():
            if kind == "match|int" and value == "match" or _inside(value, domain):
                continue
            if isinstance(domain, tuple):
                domain = "one of " + ", ".join(map(str, domain))
            else:
                domain = "in " + domain
            raise ConfigError(f"[{section}] {key} must be {domain}, got {value!r}")
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
            (self.epsilon_start >= self.epsilon_end,
             f"[agent] epsilon_start = {self.epsilon_start!r} must not be below"
             f" epsilon_end = {self.epsilon_end!r}"),
            (self.warmup_slots < self.max_slots,
             f"[agent] warmup_slots = {self.warmup_slots!r} must be below"
             f" max_slots = {self.max_slots!r}"),
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
        levels, n = self.power_levels + 1, self.ue_density
        # levels >= 2, so past the cap's bit length the space exceeds it; the
        # short circuit keeps a huge N from building a huge integer.
        if n > self.action_cap.bit_length() or levels**n > self.action_cap:
            raise ConfigError(
                f"joint action space (L+1)^N = {levels}^{n}"
                f" exceeds action_cap = {self.action_cap}; lower ue_density or power_levels"
            )

    @property
    def agent(self) -> ExperimentConfig:
        """This config itself.  Kept because perfbench/run.py's check_outputs
        reads cfg.agent.max_slots and cfg.agent.power_levels; remove it
        together with those reads.  No package or test code uses it."""
        return self

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
            _, _, kind, factor, name, _ = row
            value = getattr(self, name)
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


_KINDS = {"int": int, "float": float, "bool": bool, "str": str, "int | None": "match|int"}


def _rows():
    """One row per INI key of ExperimentConfig's fields, in declaration
    order: section, key, kind, SI factor, field name, domain.  The kind
    "match|int" reads the word "match" as None, always valid."""
    for f in dataclasses.fields(ExperimentConfig):
        m = f.metadata
        yield (m["section"], m["key"], m["kind"] or _KINDS[f.type], m["factor"], f.name,
               m["domain"])


_KEYS = tuple(_rows())
_SECTIONS = {section: {k for s, k, *_ in _KEYS if s == section} for section, *_ in _KEYS}


def _inside(value, domain) -> bool:
    """Whether a file-unit value lies in a _KEYS domain; NaN lies in none."""
    if isinstance(domain, tuple):
        return value in domain
    low, high = (float(bound) for bound in domain[1:-1].split(","))
    return ((low <= value if domain[0] == "[" else low < value)
            and (value <= high if domain[-1] == "]" else value < high))


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
    fields = {}
    for section, key, kind, factor, name, _ in _KEYS:
        value = _parse(section, key, kind, sections[section][key])
        if factor is not None:
            value *= factor
        fields[name] = value

    if policy is not None:
        policy = canonical_policy(policy)
    overrides = dict(policy=policy, ue_density=density, runs=runs, seed=seed)
    fields.update((name, value) for name, value in overrides.items() if value is not None)
    return ExperimentConfig(**fields)
