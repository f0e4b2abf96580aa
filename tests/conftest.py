"""Shared fixtures: paths and a config-file factory for tests."""

import copy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO_ROOT / "configs" / "reference.ini"

# Desk-scale defaults for tests: full physics, short episodes, few runs.
BASE = {
    "topology": {
        "rows": 5,
        "cols": 5,
        "spacing_m": 2.0,
        "ap_height_m": 3.0,
        "reuse_mode": "four_block",
    },
    "channel": {
        "detector_area_cm2": 1.0,
        "semi_angle_deg": 60.0,
        "fov_deg": 70.0,
        "responsivity_a_per_w": 0.54,
    },
    "link": {
        "total_bandwidth_hz": "20e6",
        "noise_psd_a2_per_hz": "1e-21",
        "effective_bandwidth_factor": 0.5,
        "squared_electrical_power": "false",
    },
    "mobility": {
        "v_min_mps": 0.1,
        "v_max_mps": 1.0,
        "slot_duration_s": 0.1,
        "ue_height_m": 1.0,
    },
    "interference": {
        "neighbor_power_mw": 0.003,
        "neighbor_ues": "match",
    },
    "agent": {
        "power_levels": 5,
        "max_power_mw": 4.0,
        "learning_rate": 0.9,
        "discount": 0.3,
        "epsilon_start": 0.9,
        "epsilon_end": 0.1,
        "epsilon_decay_slots": 100,
        "warmup_slots": 20,
        "max_slots": 300,
        "rate_bins": 3,
        "gain_bins": 3,
        "sinr_cap": "1e7",
        "action_cap": 1000000,
        "replay": "false",
        "replay_batch": 16,
    },
    "utility": {
        "energy_weight_per_mw": 4.0,
        "interference_weight_per_mw": "1e6",
    },
    "experiment": {
        "policy": "rpic",
        "ue_density": 2,
        "runs": 2,
        "seed": 1,
    },
}


def render_config(overrides: dict | None = None) -> str:
    """INI text from the desk-scale defaults plus 'section.key' overrides."""
    tree = copy.deepcopy(BASE)
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        tree[section][key] = value
    lines = []
    for section, entries in tree.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


@pytest.fixture
def make_config(tmp_path):
    """Factory writing a complete config file with selective overrides."""

    def _make(overrides: dict | None = None, name: str = "test.ini") -> Path:
        path = tmp_path / name
        path.write_text(render_config(overrides))
        return path

    return _make


@pytest.fixture(scope="session")
def reference_config_path() -> Path:
    return REFERENCE_CONFIG


@pytest.fixture
def fresh_git_describe():
    """Empty the per-process cache of harness._git_describe before and after
    the test, so the test's own subprocess.run answers it."""
    from vlcudn.harness import _git_describe

    _git_describe.cache_clear()
    yield
    _git_describe.cache_clear()
