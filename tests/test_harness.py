"""Episode loop, run averaging, baselines, writers, and abort handling."""

import ast
import dataclasses
import hashlib
import inspect
import json
import re
import subprocess

import numpy as np
import pytest

from conftest import REPO_ROOT
from oracles import greedy_joint_argmax
from vlcudn import agent, harness, kernels
from vlcudn.agent import enumerate_actions, quantize_state
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
    """One rpic episode and its per-slot trace, recorded from the calls the
    loop makes each slot: quantize_state (the state from the previous rates
    and the gains), warmup_policy or select_action (the chosen action) and
    action_utilities (the scored rates and utility)."""
    from conftest import render_config

    path = tmp_path_factory.mktemp("trace") / "t.ini"
    path.write_text(render_config(SHORT))
    cfg = load_experiment(path)
    quantized, warmups, picks, scored = [], [], [], []

    def recording(fn, calls):
        def wrapper(*args):
            result = fn(*args)
            calls.append((args, result))
            return result
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "quantize_state", recording(harness.quantize_state, quantized))
        mp.setattr(harness, "warmup_policy", recording(harness.warmup_policy, warmups))
        mp.setattr(harness, "select_action", recording(harness.select_action, picks))
        mp.setattr(kernels, "action_utilities", recording(kernels.action_utilities, scored))
        episode = run_episode(cfg, seed=7)
    n_slots = cfg.agent.max_slots
    assert len(quantized) == len(warmups) == len(scored) == n_slots
    # select_action runs exactly in the slots where warmup_policy returned None
    picked = iter(action for _, action in picks)
    chosen = [action if action is not None else next(picked) for _, action in warmups]
    assert next(picked, None) is None
    actions = warmups[0][0][2]
    trace = [
        {"slot": k, "prev_rates": q_args[0], "quantized_gains": q_args[1], "state": state,
         "serving_gains": s_args[1], "action": action, "powers": actions.decode(action),
         "rates": rates[0], "utility": float(u[0])}
        for k, ((q_args, state), action, (s_args, (u, rates, _, _)))
        in enumerate(zip(quantized, chosen, scored))
    ]
    return cfg, episode, trace


class TestPerfbenchReads:
    """perfbench/run.py reads the agent's span stats under "agent.<function>"
    keys, and the tracer counts each traced call; a rename or an extra call
    per slot would change its per-layer numbers without failing the run."""

    def test_agent_span_keys_name_public_agent_functions(self):
        source = (REPO_ROOT / "perfbench" / "run.py").read_text()
        bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        metric_names = {entry["name"] for entry in bench["per_layer"]}
        span_keys = {
            node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"agent\.\w+", node.value) and node.value not in metric_names
        }
        assert span_keys
        for key in span_keys:
            name = key.partition(".")[2]
            fn = getattr(agent, name, None)
            assert not name.startswith("_") and inspect.isfunction(fn), key
            assert fn.__module__ == "vlcudn.agent", key

    def test_run_episode_quantizes_once_per_slot(self, make_config, monkeypatch):
        cfg = load_experiment(make_config({**SHORT, "agent.replay": "true"}))
        calls = []

        def counting(*args):
            calls.append(args)
            return quantize_state(*args)

        monkeypatch.setattr(harness, "quantize_state", counting)
        run_episode(cfg, seed=2)
        assert len(calls) == cfg.agent.max_slots


class TestSlotContract:
    def test_first_slot_sees_zero_rates(self, traced):
        _, _, trace = traced
        assert (trace[0]["prev_rates"] == 0.0).all()

    def test_state_uses_previous_rates_and_current_gains(self, traced):
        cfg, episode, trace = traced
        for entry in trace[:30]:
            assert (entry["quantized_gains"] == entry["serving_gains"]).all()
            want = quantize_state(entry["prev_rates"], entry["serving_gains"], episode.quant)
            assert type(entry["state"]) is int and entry["state"] == want

    def test_rates_chain_across_slots(self, traced):
        _, _, trace = traced
        for prev, cur in zip(trace, trace[1:]):
            assert (cur["prev_rates"] == prev["rates"]).all()

    def test_recorded_metrics_match_trace(self, traced):
        _, episode, trace = traced
        for k, entry in enumerate(trace):
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

    @pytest.mark.parametrize("squared", ["false", "true"])
    @pytest.mark.parametrize("weights", [("0.1", "1e4"), ("1", "1e5"), ("0", "0"), ("1e-4", "0")])
    @pytest.mark.parametrize("density", [2, 3, 4])
    def test_greedy_matches_joint_argmax(self, make_config, monkeypatch, density, weights,
                                         squared):
        cfg = load_experiment(make_config({
            **SHORT, "experiment.policy": "greedy_myopic", "experiment.ue_density": density,
            "utility.energy_weight_per_mw": weights[0],
            "utility.interference_weight_per_mw": weights[1],
            "link.squared_electrical_power": squared,
        }))
        calls = []
        real = kernels.action_utilities

        def recording(powers, *slot_inputs):
            calls.append((powers, slot_inputs))
            return real(powers, *slot_inputs)

        monkeypatch.setattr(kernels, "action_utilities", recording)
        episode = run_episode(cfg, seed=5)
        # per slot: the per-UE scoring call, then the chosen row
        chosen = calls[1::2]
        assert len(calls) == 2 * len(chosen) == 2 * cfg.agent.max_slots
        levels = enumerate_actions(cfg.agent.power_levels, cfg.agent.max_power, density).levels
        for k, (powers, slot_inputs) in enumerate(chosen):
            want = greedy_joint_argmax(levels, density, *slot_inputs)
            assert (powers == [want]).all(), k
            assert episode.energy_w[k] == powers.sum()
        # Linear mode keeps some power at every weight here.  Squared mode at
        # these optics picks all-zero unless leakage is free and power
        # nearly so; the zero-weight cases make its comparison non-trivial.
        some_power = squared == "false" or weights[1] == "0"
        assert (episode.energy_w.max() > 0.0) == some_power

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

    def test_pool_is_no_larger_than_the_run_count(self, make_config, monkeypatch):
        sizes = []

        class RecordingPool:  # runs the map in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        cfg = load_experiment(make_config(SHORT), runs=2)
        run_experiment(cfg, workers=8)
        run_experiment(dataclasses.replace(cfg, runs=1), workers=8)
        assert sizes == [2]

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
        with pytest.raises(ConfigError, match="distinct"):
            sweep_density(cfg, [2, 1, 2])
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


# The greedy rows set weights that leave greedy_myopic some power: at the
# desk-scale weights it picks all-zero at rho=5 and in squared mode, and an
# all-zero metrics.csv does not depend on the random streams.
GREEDY_SOME_POWER = {"utility.energy_weight_per_mw": "0.1",
                     "utility.interference_weight_per_mw": "1e4"}
SQUARED = {"link.squared_electrical_power": "true"}
GOLDEN = {
    "rpic": ("rpic", 3, {},
             "2884b695f19ae33ff8d370465bbddaffcc053b6b121e4f6f5ac8284b5ae0c653",
             "b4a077e5d63ab20a2498e195b5bd10a78c5bd4f5224ec0d934a94ddc0ac573d8"),
    "fixed_max": ("fixed_max", 3, {},
                  "bb0e0ec0c67a90288b35fc80f5bfb7fbd2c4c12020ab0a5fd74ade69beca796c", None),
    "fixed_half": ("fixed_half", 3, {},
                   "d6860dee7cb0227d8f5851dbd3ac94f322de1f87bff3db744b9ba713fc3ca614", None),
    "random": ("random", 3, {},
               "745717526573e534174add45780c69c53cbd2bf3ec9ecb285f0e6d94829faf47", None),
    "greedy": ("greedy_myopic", 3, {},
               "310008a6c736e9b46b5401b5d392c09d13698c84c0ff1eba79c6dfb5a99bb2dc", None),
    "greedy-rho5": ("greedy_myopic", 5, GREEDY_SOME_POWER,
                    "17c994e143d405cdb23bbbd939d4dd22635d903bd858ba81530b18c9caf798ec", None),
    "rpic-replay": ("rpic", 3, {"agent.replay": "true"},
                    "fdd3c1ed4917e0581fdba8edfe91f26462fa48b7df8157f837d6b662daf1deaa",
                    "949fb057552aff1a4fa7203ac77d57e8dc75993e1ba62c224eb476884a8c60cf"),
    # 12 and 11 bins: key-string order differs from state-index order
    "rpic-bins12": ("rpic", 3, {"agent.rate_bins": 12, "agent.gain_bins": 11},
                    "1c1846dd5760d10b37bac78088a45b87034f3b431b4d41edac2ce43cd8ba8dd2",
                    "5073b52817c8c86542ef077689ad2d38123ed99d7657d6fe6f2c8fded3964702"),
    "rpic-squared": ("rpic", 3, SQUARED,
                     "4ed61f64d3834375e7770013726e65d8d6496f37c3f1460fceb482108cbe1da6",
                     "971e2d0ff78b33505abfe8d8738ba4acd8a3f1c6d00cc914ee772c4ab7cc9f07"),
    "greedy-squared": ("greedy_myopic", 3, {**SQUARED, "utility.energy_weight_per_mw": "1e-4",
                                            "utility.interference_weight_per_mw": "0"},
                       "32dfaf2a67a291ad4d958bf80a4044ab8127805132c5e640abbf450752ccbe4d",
                       None),
}


@pytest.mark.parametrize("policy, density, overrides, csv_sha256, qtable_sha256",
                         list(GOLDEN.values()), ids=list(GOLDEN))
def test_golden_bytes(make_config, tmp_path, policy, density, overrides, csv_sha256,
                      qtable_sha256):
    """sha256 of metrics.csv (and qtable.tsv for rpic) for desk-scale runs.

    A refactor or speed-up keeps these bytes.  Only a deliberate change to
    the random-stream layout may update the digests, once, and says so in
    CHANGES.md (ROADMAP, "Correctness and robustness").  The digests were
    taken with numpy 2.4.6 on x86-64; a numpy or libm whose float results
    differ in the last bit changes them too.
    """
    cfg = load_experiment(make_config({
        "experiment.policy": policy, "experiment.ue_density": density, **overrides,
    }))
    save_experiment(tmp_path, cfg, run_experiment(cfg))

    def digest(name):
        path = tmp_path / name
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None

    assert (digest("metrics.csv"), digest("qtable.tsv")) == (csv_sha256, qtable_sha256)
