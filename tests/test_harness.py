"""Episode loop, run averaging, baselines, writers, and abort handling."""

import dataclasses
import json
import subprocess

import numpy as np
import pytest

from vlcudn import harness
from vlcudn.agent import quantize_state
from vlcudn.config import ConfigError, load_experiment
from vlcudn.harness import (
    CSV_HEADER,
    SimulationAbort,
    converged_means,
    run_episode,
    run_experiment,
    save_experiment,
    sweep_density,
    write_metadata,
    write_series_csv,
)
from vlcudn.metrics import UtilityWeights

SHORT = {
    "agent.max_slots": 80,
    "agent.warmup_slots": 10,
    "agent.epsilon_decay_slots": 30,
}


class TestEpisode:
    def test_static_ues_give_constant_fixed_max_metrics(self, make_config):
        path = make_config({**SHORT, "mobility.v_min_mps": 0.0,
                            "mobility.v_max_mps": 0.0,
                            "experiment.policy": "fixed_max"})
        episode = run_episode(load_experiment(path), seed=3)
        for arr in (episode.utility, episode.mean_rate_bps, episode.energy_w, episode.ici_w):
            assert (arr == arr[0]).all()
        assert episode.qtable is None

    def test_huge_energy_price_drives_greedy_to_silence(self, make_config):
        path = make_config({**SHORT, "experiment.policy": "greedy_myopic",
                            "utility.energy_weight_per_mw": "1e9"})
        episode = run_episode(load_experiment(path), seed=3)
        assert (episode.energy_w == 0.0).all()
        assert (episode.mean_rate_bps == 0.0).all()
        assert (episode.utility == 0.0).all()

    def test_learning_improves_over_episode(self, make_config):
        episode = run_episode(load_experiment(make_config()), seed=1)
        early = episode.utility[:50].mean()
        late = episode.utility[-100:].mean()
        assert late > early

    def test_action_space_cap_enforced(self, make_config):
        path = make_config({"agent.action_cap": 30})
        with pytest.raises(ConfigError, match="action_cap"):
            run_episode(load_experiment(path), seed=1)

    def test_non_finite_utility_aborts(self, make_config):
        cfg = load_experiment(make_config({**SHORT, "experiment.policy": "fixed_max"}))
        cfg = dataclasses.replace(cfg, weights=UtilityWeights(float("inf"), 0.0))
        with pytest.raises(SimulationAbort, match="non-finite"):
            run_episode(cfg, seed=1)

    def test_no_foreign_ues_means_no_leakage_but_interference_remains(self, make_config):
        quiet = load_experiment(make_config({**SHORT, "experiment.policy": "fixed_max",
                                             "interference.neighbor_ues": 0}))
        episode = run_episode(quiet, seed=4)
        assert (episode.ici_w == 0.0).all()
        # neighbor downlinks still degrade the local rates
        silent = dataclasses.replace(quiet, neighbor_power=0.0)
        undisturbed = run_episode(silent, seed=4)
        assert (episode.mean_rate_bps < undisturbed.mean_rate_bps).all()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    from conftest import render_config

    path = tmp_path_factory.mktemp("trace") / "t.ini"
    path.write_text(render_config(SHORT))
    cfg = load_experiment(path)
    return cfg, run_episode(cfg, seed=7, record_trace=True)


class TestSlotContract:
    def test_first_slot_sees_zero_rates(self, traced):
        _, episode = traced
        assert (episode.trace[0]["prev_rates"] == 0.0).all()

    def test_state_uses_previous_rates_and_current_gains(self, traced):
        cfg, episode = traced
        for entry in episode.trace[:30]:
            want = quantize_state(
                entry["prev_rates"], entry["serving_gains"], cfg.ue_density, episode.quant
            )
            assert entry["state"] == want

    def test_rates_chain_across_slots(self, traced):
        _, episode = traced
        for prev, cur in zip(episode.trace, episode.trace[1:]):
            assert (cur["prev_rates"] == prev["rates"]).all()

    def test_recorded_metrics_match_trace(self, traced):
        _, episode = traced
        for k, entry in enumerate(episode.trace):
            assert entry["slot"] == k
            assert episode.utility[k] == entry["utility"]
            assert episode.energy_w[k] == pytest.approx(entry["powers"].sum(), rel=1e-12)
            assert episode.mean_rate_bps[k] == pytest.approx(entry["rates"].mean(), rel=1e-12)

    def test_utility_recomposes_from_metric_columns(self, make_config):
        cfg = load_experiment(make_config({**SHORT, "experiment.policy": "random"}))
        episode = run_episode(cfg, seed=9)
        recomposed = (
            episode.mean_rate_bps * 1e-6
            - cfg.weights.energy_weight * episode.energy_w * 1e3
            - cfg.weights.interference_weight * episode.ici_w * 1e3
        )
        assert episode.utility == pytest.approx(recomposed, rel=1e-12)


class TestPolicies:
    def test_myopic_argmax_dominates_every_policy_slotwise(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        greedy = run_episode(dataclasses.replace(cfg, policy="greedy_myopic"), seed=11)
        for policy in ("fixed_max", "fixed_half", "random", "rpic"):
            other = run_episode(dataclasses.replace(cfg, policy=policy), seed=11)
            slack = 1e-9 * np.maximum(1.0, np.abs(greedy.utility))
            assert (greedy.utility >= other.utility - slack).all(), policy

    def test_fixed_policies_hold_power_constant(self, make_config):
        # an even level count puts max_power/2 exactly on the grid
        path = make_config({**SHORT, "experiment.policy": "fixed_max",
                            "agent.power_levels": 4})
        cfg = load_experiment(path)
        episode = run_episode(cfg, seed=2)
        assert episode.energy_w == pytest.approx(
            [cfg.ue_density * cfg.agent.max_power] * cfg.agent.max_slots, rel=1e-12
        )
        half = run_episode(dataclasses.replace(cfg, policy="fixed_half"), seed=2)
        assert half.energy_w == pytest.approx(
            [cfg.ue_density * cfg.agent.max_power / 2] * cfg.agent.max_slots, rel=1e-12
        )


class TestExperiment:
    def test_single_run_equals_episode(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=1)
        series = run_experiment(cfg)
        episode = run_episode(cfg, seed=cfg.seed)
        assert np.array_equal(series.utility, episode.utility)
        assert np.array_equal(series.ici_w, episode.ici_w)

    def test_average_is_ordered_mean_of_seeded_runs(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=3, seed=5)
        series = run_experiment(cfg)
        manual = np.mean(
            np.stack([run_episode(cfg, s).utility for s in (5, 6, 7)]), axis=0
        )
        assert np.array_equal(series.utility, manual)

    def test_repeat_call_is_identical(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert np.array_equal(a.utility, b.utility)
        assert np.array_equal(a.mean_rate_bps, b.mean_rate_bps)

    def test_seed_changes_output(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        a = run_experiment(cfg)
        b = run_experiment(dataclasses.replace(cfg, seed=123))
        assert not np.array_equal(a.utility, b.utility)

    def test_parallel_equals_serial(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=2)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        for field in ("utility", "mean_rate_bps", "energy_w", "ici_w"):
            assert np.array_equal(getattr(serial, field), getattr(parallel, field)), field

    def test_keep_runs(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=2)
        series = run_experiment(cfg, keep_runs=True)
        assert len(series.per_run) == 2
        assert run_experiment(cfg).per_run is None

    def test_sweep_covers_each_density(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=1)
        results = sweep_density(cfg, [1, 2])
        assert len(results) == 2
        assert all(len(s.utility) == cfg.agent.max_slots for s in results)
        # denser cells split the band, so the single-UE run is faster per UE
        assert results[0].mean_rate_bps.mean() > results[1].mean_rate_bps.mean()

    def test_sweep_validates_densities(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        with pytest.raises(ConfigError):
            sweep_density(cfg, [])
        with pytest.raises(ConfigError):
            sweep_density(cfg, [2, 0])

    def test_sweep_checks_every_density_before_running(self, make_config, monkeypatch):
        cfg = load_experiment(make_config(SHORT), runs=1)
        calls = []
        real = harness.run_episode

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_episode", counting)
        with pytest.raises(ConfigError, match="action_cap"):
            sweep_density(cfg, [1, 9])
        assert calls == []


class TestWriters:
    @pytest.fixture()
    def small_series(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=2)
        return cfg, run_experiment(cfg, keep_runs=True)

    def test_csv_layout(self, tmp_path, small_series):
        cfg, series = small_series
        path = tmp_path / "metrics.csv"
        write_series_csv(path, series)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER == "slot,utility,mean_rate_bps,energy_w,ici_w"
        assert len(lines) == 1 + cfg.agent.max_slots
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        assert parsed.shape == (cfg.agent.max_slots, 5)
        assert parsed[:, 0].tolist() == list(range(cfg.agent.max_slots))
        assert parsed[:, 1] == pytest.approx(series.utility, rel=1e-10)

    def test_csv_bytes_are_reproducible(self, tmp_path, small_series):
        _, series = small_series
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(a, series)
        write_series_csv(b, series)
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_contents(self, tmp_path, small_series):
        cfg, series = small_series
        path = tmp_path / "metrics.meta.json"
        write_metadata(path, cfg, series)
        meta = json.loads(path.read_text())
        assert meta["config_sha256"] == cfg.fingerprint()
        assert meta["policy"] == "rpic"
        assert meta["runs"] == 2
        assert set(meta) == {
            "config", "config_sha256", "policy", "ue_density", "runs", "seed",
            "package_version", "git_describe", "frame_definition", "converged_last_500",
        }
        assert meta["frame_definition"] == "1 frame = 1 slot"
        assert set(meta["converged_last_500"]) == {
            "utility", "mean_rate_bps", "energy_w", "ici_w"
        }
        assert meta["config"]["experiment"]["seed"] == cfg.seed

    def test_metadata_survives_git_timeout(self, tmp_path, small_series, monkeypatch):
        def hung_git(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(harness.subprocess, "run", hung_git)
        cfg, series = small_series
        path = tmp_path / "metrics.meta.json"
        write_metadata(path, cfg, series)
        assert json.loads(path.read_text())["git_describe"] is None

    def test_save_experiment_layout(self, tmp_path, small_series):
        cfg, series = small_series
        out = tmp_path / "out"
        written = save_experiment(out, cfg, series)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "metrics.csv", "metrics.meta.json", "qtable.tsv", "run0000.csv", "run0001.csv"
        ]
        assert sorted(written) == sorted(str(out / n) for n in names)

    def test_save_experiment_without_learner_or_runs(self, tmp_path, make_config):
        cfg = load_experiment(
            make_config({**SHORT, "experiment.policy": "random"}), runs=1
        )
        series = run_experiment(cfg)
        out = tmp_path / "out"
        save_experiment(out, cfg, series)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["metrics.csv", "metrics.meta.json"]

    def test_converged_means_window(self, small_series):
        _, series = small_series
        full = converged_means(series, window=10_000)
        assert full["utility"] == pytest.approx(series.utility.mean(), rel=1e-12)
        tail = converged_means(series, window=10)
        assert tail["energy_w"] == pytest.approx(series.energy_w[-10:].mean(), rel=1e-12)
