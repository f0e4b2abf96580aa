"""Strict INI loading: schema enforcement, unit conversion, overrides, and
the per-UE bandwidth the [link] keys give."""

import configparser
import dataclasses
import re

import pytest

from oracles import Pos3, channel_gain, channel_params_from_cm2, per_ue_bandwidth
from vlcudn.config import (
    _KEYS,
    POLICIES,
    ConfigError,
    canonical_policy,
    load_experiment,
)

from conftest import BASE, render_config


DOMAINS = {
    "topology": {"rows": "[1, inf)", "cols": "[1, inf)", "spacing_m": "(0, inf)",
                 "ap_height_m": "(0, inf)", "reuse_mode": ("two_block", "four_block")},
    "channel": {"detector_area_cm2": "(0, inf)", "semi_angle_deg": "(0, 90)",
                "fov_deg": "(0, 90]", "responsivity_a_per_w": "(0, inf)"},
    "link": {"total_bandwidth_hz": "(0, inf)", "noise_psd_a2_per_hz": "(0, inf)",
             "effective_bandwidth_factor": "(0, 1]", "squared_electrical_power": (False, True)},
    "mobility": {"v_min_mps": "[0, inf)", "v_max_mps": "[0, inf)", "slot_duration_s": "(0, inf)",
                 "ue_height_m": "[0, inf)"},
    "interference": {"neighbor_power_mw": "[0, inf)", "neighbor_ues": "[0, inf)"},
    "agent": {"power_levels": "[1, inf)", "max_power_mw": "(0, inf)", "learning_rate": "(0, 1]",
              "discount": "[0, 1)", "epsilon_start": "[0, 1]", "epsilon_end": "[0, 1]",
              "epsilon_decay_slots": "[0, inf)", "warmup_slots": "[0, inf)",
              "max_slots": "[1, inf)", "rate_bins": "[1, 9007199254740992]",
              "gain_bins": "[1, 9007199254740992]",
              "sinr_cap": "(0, inf)", "action_cap": "[1, inf)", "replay": (False, True),
              "replay_batch": "[1, inf)"},
    "utility": {"energy_weight_per_mw": "[0, inf)", "interference_weight_per_mw": "[0, inf)"},
    "experiment": {"policy": POLICIES, "ue_density": "[1, inf)", "runs": "[1, inf)",
                   "seed": "[0, inf)"},
}


class TestReferenceConfig:
    def test_loads_and_converts_units(self, reference_config_path):
        cfg = load_experiment(reference_config_path)
        assert cfg.rows == 5 and cfg.cols == 5
        assert cfg.spacing == 2.0
        assert cfg.ap_height == 3.0
        assert cfg.reuse_mode == "four_block"
        assert cfg.detector_area == pytest.approx(1e-4, rel=1e-12)
        assert cfg.semi_angle_half_intensity == 60.0
        assert cfg.fov_angle == 70.0
        assert cfg.responsivity == 0.54
        assert cfg.total_bandwidth == 20e6
        assert cfg.noise_psd == 1e-21
        assert cfg.effective_bandwidth_factor == 0.5
        assert cfg.squared_electrical_power is False
        assert cfg.neighbor_power == pytest.approx(3e-6, rel=1e-12)  # 0.003 mW
        assert cfg.neighbor_ues is None
        assert cfg.agent.max_power == pytest.approx(4e-3, rel=1e-12)
        assert cfg.agent.max_slots == 3000
        assert cfg.rate_bins == 3 and cfg.gain_bins == 3
        assert cfg.sinr_cap == 1e7
        assert cfg.replay is False
        assert cfg.policy == "rpic"
        assert cfg.ue_density == 3
        assert cfg.runs == 100
        assert cfg.seed == 1

    def test_neighbor_match_follows_density(self, reference_config_path):
        cfg = load_experiment(reference_config_path)
        assert cfg.n_neighbor_ues() == cfg.ue_density
        cfg5 = load_experiment(reference_config_path, density=5)
        assert cfg5.n_neighbor_ues() == 5


class TestOverrides:
    def test_cli_overrides_applied(self, make_config):
        path = make_config()
        cfg = load_experiment(path, policy="fixed_max", density=4, runs=7, seed=99)
        assert cfg.policy == "fixed_max"
        assert cfg.ue_density == 4
        assert cfg.runs == 7
        assert cfg.seed == 99

    def test_overrides_are_validated(self, make_config):
        path = make_config()
        with pytest.raises(ConfigError):
            load_experiment(path, density=0)
        with pytest.raises(ConfigError):
            load_experiment(path, runs=0)
        with pytest.raises(ConfigError):
            load_experiment(path, policy="loudest")

    def test_overrides_apply_before_the_check(self, make_config):
        path = make_config({"experiment.ue_density": 9})  # over action_cap alone
        assert load_experiment(path, density=2).ue_density == 2

    @pytest.mark.parametrize("change", [
        dict(ue_density=0), dict(runs=0), dict(policy="loudest"),
    ])
    def test_replace_is_checked(self, make_config, change):
        cfg = load_experiment(make_config())
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, **change)

    @pytest.mark.parametrize("density", [9, 100_000])
    def test_action_space_over_cap_rejected(self, make_config, density):
        with pytest.raises(ConfigError, match="action_cap"):
            load_experiment(make_config(), density=density)

    def test_explicit_neighbor_count(self, make_config):
        path = make_config({"interference.neighbor_ues": 0})
        cfg = load_experiment(path)
        assert cfg.neighbor_ues == 0
        assert cfg.n_neighbor_ues() == 0


class TestSchemaEnforcement:
    def test_duplicate_section_rejected(self, tmp_path):
        text = render_config() + "\n[agent]\n"
        path = tmp_path / "dup.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            load_experiment(path)

    def test_extra_key_rejected(self, tmp_path):
        path = tmp_path / "extra.ini"
        path.write_text(render_config().replace("[agent]", "[agent]\nturbo = yes"))
        with pytest.raises(ConfigError, match="unknown keys.*turbo"):
            load_experiment(path)

    def test_missing_key_rejected(self, tmp_path):
        text = "\n".join(
            line for line in render_config().splitlines() if not line.startswith("seed")
        )
        path = tmp_path / "missing.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="missing keys.*seed"):
            load_experiment(path)

    def test_missing_section_rejected(self, tmp_path):
        text = render_config()
        start = text.index("[utility]")
        end = text.index("[experiment]")
        path = tmp_path / "nosect.ini"
        path.write_text(text[:start] + text[end:])
        with pytest.raises(ConfigError, match="missing sections.*utility"):
            load_experiment(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "extra_sect.ini"
        path.write_text(render_config() + "\n[debug]\nverbose = 1\n")
        with pytest.raises(ConfigError, match="unknown sections.*debug"):
            load_experiment(path)

    def test_default_section_rejected(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nrows = 5\n" + render_config())
        with pytest.raises(ConfigError, match="DEFAULT"):
            load_experiment(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_experiment(tmp_path / "nope.ini")

    def test_inline_comments_are_stripped(self, make_config):
        path = make_config({"experiment.runs": "4  # keep it quick"})
        assert load_experiment(path).runs == 4


class TestTypeErrors:
    @pytest.mark.parametrize("dotted,value,fragment", [
        ("topology.rows", "five", "expected an integer"),
        ("mobility.v_max_mps", "fast", "expected a number"),
        ("link.squared_electrical_power", "maybe", "expected a boolean"),
        ("agent.replay", "2", "expected a boolean"),
    ])
    def test_bad_scalar_types(self, make_config, dotted, value, fragment):
        path = make_config({dotted: value})
        with pytest.raises(ConfigError, match=fragment):
            load_experiment(path)

    def test_bad_neighbor_ues_token(self, make_config):
        path = make_config({"interference.neighbor_ues": "plenty"})
        with pytest.raises(ConfigError, match="neighbor_ues"):
            load_experiment(path)


class TestCrossValidation:
    @pytest.mark.parametrize("dotted,value", [
        ("topology.reuse_mode", "full"),
        ("topology.rows", 0),
        ("topology.cols", 0),
        ("topology.spacing_m", 0.0),
        ("topology.ap_height_m", -3.0),
        ("mobility.ue_height_m", 3.0),  # not below AP height
        ("mobility.v_min_mps", 2.0),  # above v_max
        ("mobility.v_min_mps", -0.1),
        ("mobility.slot_duration_s", 0.0),
        ("interference.neighbor_power_mw", -1.0),
        ("interference.neighbor_ues", -2),
        ("agent.rate_bins", 0),
        ("agent.gain_bins", 0),
        ("agent.rate_bins", 2**53 + 1),  # past the bins agent.bin_values keeps exact
        ("agent.gain_bins", 2**53 + 1),
        ("agent.sinr_cap", 0.0),
        ("agent.sinr_cap", "1e-300"),  # 1 + sinr_cap == 1: a zero-width rate grid
        ("agent.sinr_cap", "nan"),  # NaN fails no bound comparison
        ("topology.spacing_m", "inf"),
        ("topology.spacing_m", "5e307"),  # 5 x 5e307 overflows: the grid's extent
        ("topology.spacing_m", "1e160"),  # (5 x 1e160)**2 overflows: the central-AP search
        ("utility.energy_weight_per_mw", "nan"),
        ("agent.action_cap", 0),
        ("agent.replay_batch", 0),
        ("channel.fov_deg", 95.0),
        ("channel.semi_angle_deg", 90.0),
        ("agent.learning_rate", 0.0),
        ("agent.warmup_slots", 300),  # equals max_slots
        ("utility.energy_weight_per_mw", -1.0),
        ("experiment.policy", "loudest"),
        ("experiment.ue_density", 0),
        ("experiment.runs", 0),
        ("experiment.seed", -1),
        ("link.total_bandwidth_hz", 0.0),
        ("link.noise_psd_a2_per_hz", -1e-21),
        ("link.effective_bandwidth_factor", 1.5),
        ("utility.interference_weight_per_mw", -1.0),
    ])
    def test_rejected_values(self, make_config, dotted, value):
        path = make_config({dotted: value})
        section, key = dotted.split(".")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
            load_experiment(path)

    @pytest.mark.parametrize("dotted,value,message", [
        ("channel.fov_deg", 95, "[channel] fov_deg must be in (0, 90], got 95.0"),
        ("channel.detector_area_cm2", -1,
         "[channel] detector_area_cm2 must be in (0, inf), got -1.0"),
        ("agent.max_power_mw", -4, "[agent] max_power_mw must be in (0, inf), got -4.0"),
        ("utility.energy_weight_per_mw", -1,
         "[utility] energy_weight_per_mw must be in [0, inf), got -1.0"),
    ])
    def test_domain_error_names_the_key_and_the_file_value(self, make_config, dotted, value,
                                                          message):
        with pytest.raises(ConfigError) as err:
            load_experiment(make_config({dotted: value}))
        assert str(err.value) == message

    def test_keys_follow_the_reference_file_order(self, reference_config_path):
        # a config with several bad values names the first key in this order
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(reference_config_path, encoding="utf-8")
        in_file = [(section, key) for section in parser.sections() for key in parser[section]]
        assert [(section, key) for section, key, *_ in _KEYS] == in_file

    def test_every_domain_is_well_formed(self):
        interval = re.compile(r"[\[(]-?(inf|\d+(\.\d+)?), -?(inf|\d+(\.\d+)?)[\])]")
        for *_, domain in _KEYS:
            assert (isinstance(domain, tuple) and domain) or interval.fullmatch(domain), domain

    def test_domains_are_the_documented_ones(self):
        # A bound flipped between open and closed moves no output byte, only
        # which files load, and the bound test below reads the flipped
        # domain too; so the domains are written out again here.
        assert {section: {key: domain for s, key, *_, domain in _KEYS if s == section}
                for section, *_ in _KEYS} == DOMAINS

    @pytest.mark.parametrize("section,key,kind,domain,end,bound", [
        pytest.param(section, key, kind, domain, end, bound, id=f"{section}.{key}={bound}")
        for section, key, kind, _, _, domain in _KEYS if isinstance(domain, str)
        for end, bound in zip((domain[0], domain[-1]), domain[1:-1].split(", "))
        if bound != "inf"
    ])
    def test_each_finite_bound_is_open_or_closed_as_declared(self, make_config, section, key,
                                                             kind, domain, end, bound):
        path = make_config({f"{section}.{key}": bound})
        prefix = f"[{section}] {key} must be in "
        if end in "[]":  # a rule that ties keys together may still reject it
            try:
                load_experiment(path)
            except ConfigError as exc:
                assert not str(exc).startswith(prefix)
        else:
            with pytest.raises(ConfigError) as err:
                load_experiment(path)
            value = (float if kind is float else int)(bound)
            assert str(err.value) == f"{prefix}{domain}, got {value!r}"

    def test_vanishing_sinr_cap_is_named(self, make_config):
        with pytest.raises(ConfigError, match="sinr_cap"):
            load_experiment(make_config({"agent.sinr_cap": "1e-17"}))

    @pytest.mark.parametrize("dotted,value", [
        ("agent.sinr_cap", "nan"),
        ("topology.spacing_m", "inf"),
        ("utility.energy_weight_per_mw", "-inf"),
    ])
    def test_non_finite_float_is_named(self, make_config, dotted, value):
        section, key = dotted.split(".")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must be in ")
                           + f".*, got {value}$"):
            load_experiment(make_config({dotted: value}))

    @pytest.mark.parametrize("dotted,value", [
        ("topology.ap_height_m", "1e-200"),  # the drop to the floor squares to 0
        ("topology.ap_height_m", "1e200"),  # its square overflows
        ("channel.semi_angle_deg", "1e-9"),  # its cosine rounds to 1: no Lambertian order
    ])
    def test_gain_grid_top_edge_must_be_finite_and_positive(self, make_config, dotted, value):
        path = make_config({dotted: value, "mobility.ue_height_m": 0.0})
        with pytest.raises(ConfigError, match="gain grid's top edge"):
            load_experiment(path)


class TestPolicyNames:
    @pytest.mark.parametrize("alias,want", [
        ("rpic", "rpic"),
        ("RPIC", "rpic"),
        ("Fixed-Max", "fixed_max"),
        ("fixed_half", "fixed_half"),
        ("fixedhalf", "fixed_half"),
        ("  random ", "random"),
        ("GREEDY-MYOPIC", "greedy_myopic"),
    ])
    def test_aliases(self, alias, want):
        assert canonical_policy(alias) == want

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            canonical_policy("loudest")

    def test_policy_tuple_is_complete(self):
        assert set(POLICIES) == {
            "rpic", "fixed_max", "fixed_half", "random", "greedy_myopic"
        }


class TestFingerprint:
    def test_stable_across_loads(self, make_config):
        path = make_config()
        a = load_experiment(path)
        b = load_experiment(path)
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_any_parameter(self, make_config):
        base = load_experiment(make_config())
        changed = load_experiment(make_config({"agent.discount": 0.4}, name="b.ini"))
        assert base.fingerprint() != changed.fingerprint()

    def test_override_changes_fingerprint(self, make_config):
        path = make_config()
        assert (
            load_experiment(path).fingerprint()
            != load_experiment(path, seed=2).fingerprint()
        )

    def test_resolved_reports_file_units(self, make_config):
        cfg = load_experiment(make_config())
        tree = cfg.resolved()
        assert tree["channel"]["detector_area_cm2"] == pytest.approx(1.0, rel=1e-12)
        assert tree["interference"]["neighbor_power_mw"] == pytest.approx(0.003, rel=1e-12)
        assert tree["agent"]["max_power_mw"] == pytest.approx(4.0, rel=1e-12)
        assert tree["interference"]["neighbor_ues"] == "match"
        assert tree["experiment"]["policy"] == "rpic"
        assert {section: set(keys) for section, keys in tree.items()} == {
            section: set(keys) for section, keys in BASE.items()
        }

    def test_reference_fingerprint_is_pinned(self, reference_config_path):
        # config_sha256 in every result directory of the reference experiment
        assert load_experiment(reference_config_path).fingerprint() == (
            "6c6f72971b74e6399e7084b4185d6246964182a712e05a6b9fce2d42d7acf4f8"
        )


class TestChannelParams:
    """The [channel] keys of a config file, as the simulator reads them."""

    def test_order_property_matches_function(self, make_config):
        # the gain grid's top edge is the gain under the AP, with the
        # Lambertian order of the configured semi-angle
        cfg = load_experiment(make_config({"channel.semi_angle_deg": 45.0}))
        under_ap = channel_gain(Pos3(0.0, 0.0, cfg.ap_height), Pos3(0.0, 0.0, cfg.ue_height),
                                channel_params_from_cm2(1.0, 45.0, 70.0, 0.54))
        assert cfg.gain_max() == pytest.approx(under_ap, rel=1e-12)

    # Each input in file units; the ids are the suite's stable names for these cases.
    @pytest.mark.parametrize("key,value", [
        pytest.param("detector_area_cm2", 0.0, id="kwargs0"),
        pytest.param("detector_area_cm2", -1.0, id="kwargs1"),
        pytest.param("semi_angle_deg", 0.0, id="kwargs2"),
        pytest.param("semi_angle_deg", 90.0, id="kwargs3"),
        pytest.param("fov_deg", 0.0, id="kwargs4"),
        pytest.param("fov_deg", 91.0, id="kwargs5"),
        pytest.param("responsivity_a_per_w", 0.0, id="kwargs6"),
    ])
    def test_rejects_bad_parameters(self, make_config, key, value):
        with pytest.raises(ConfigError, match=rf"^\[channel\] {key} must be in "):
            load_experiment(make_config({f"channel.{key}": value}))

    def test_position_rejects_negative_height(self, make_config):
        with pytest.raises(ConfigError, match=r"^\[mobility\] ue_height_m must be in "):
            load_experiment(make_config({"mobility.ue_height_m": -0.1}))


class TestPerUeBandwidth:
    """ExperimentConfig.per_ue_bandwidth on the [link] keys (20 MHz, factor 0.5)."""

    def test_single_ue_gets_effective_band(self, make_config):
        cfg = load_experiment(make_config({"experiment.ue_density": 1}))
        assert cfg.per_ue_bandwidth() == pytest.approx(10e6, rel=1e-12)

    def test_four_ues_share_equally(self, make_config):
        cfg = load_experiment(make_config({"experiment.ue_density": 4}))
        assert cfg.per_ue_bandwidth() == pytest.approx(2.5e6, rel=1e-12)

    def test_unit_factor(self, make_config):
        cfg = load_experiment(make_config({"link.effective_bandwidth_factor": 1.0}))
        assert cfg.per_ue_bandwidth() == pytest.approx(10e6, rel=1e-12)
        assert cfg.per_ue_bandwidth() == per_ue_bandwidth(cfg, cfg.ue_density)
