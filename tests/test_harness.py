"""Episode loop, run averaging, baselines, writers, and abort handling."""

import ast
import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT
from oracles import (
    PowerVector, SlotChannelSnapshot, achievable_rate, greedy_joint_argmax, joint_actions,
    per_ue_bandwidth, sinr, total_ici,
)
from oracles import utility as oracle_utility
from vlcudn import agent, harness, kernels
from vlcudn.agent import epsilon_at, parse_state_key, quantize_state, state_key
from vlcudn.config import POLICIES, ConfigError, load_experiment
from vlcudn.topology import episode_cells
from vlcudn.harness import (
    CSV_HEADER,
    Series,
    SimulationAbort,
    converged_means,
    density_configs,
    run_episode,
    run_experiment,
    save_experiment,
    write_metadata,
    write_series_csv,
)

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

    # The weights below are finite; the energy term overflows: 1e308 per mW
    # times the milliwatts of any non-zero action.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_utility_aborts(self, make_config):
        cfg = load_experiment(make_config({**SHORT, "experiment.policy": "fixed_max",
                                           "utility.energy_weight_per_mw": "1e308"}))
        with pytest.raises(SimulationAbort, match="non-finite"):
            run_episode(cfg, seed=1)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_utility_stops_the_learner(self, make_config, monkeypatch):
        cfg = load_experiment(make_config({**SHORT, "utility.energy_weight_per_mw": "1e308",
                                           "agent.max_power_mw": "1e3"}))
        writes = []
        monkeypatch.setattr(harness, "update_q", lambda *args: writes.append(args))
        with pytest.raises(SimulationAbort, match="non-finite utility at slot 0 "):
            run_episode(cfg, seed=1)
        assert writes == []

    def test_cross_gains_are_summed_per_slot_in_row_order(self, make_config, monkeypatch):
        """Each slot's cross-gain toward the foreign UEs is numpy's row sum
        of a C-contiguous (slots, foreign UEs) array of gains.  From 8 terms
        on, numpy's pairwise summation sets the bits, so the sum's layout is
        part of the output."""
        cfg = load_experiment(make_config({**SHORT, "experiment.policy": "fixed_max",
                                           "interference.neighbor_ues": 9}))
        walks = []
        monkeypatch.setattr(harness, "simulate_paths", recording(harness.simulate_paths, walks))
        _, calls = record_episode(cfg, 5, monkeypatch)
        (_, paths), = walks
        ((_, _, _, outgoing, *_), _), = calls["score"]
        (cx, cy), *neighbors = episode_cells(cfg)
        optics = (cfg.ap_height - cfg.ue_height, cfg.semi_angle_half_intensity,
                  cfg.detector_area, cfg.fov_angle)
        want = np.zeros(cfg.agent.max_slots)
        for g in range(len(neighbors)):
            foreign = np.ascontiguousarray(paths[:, cfg.ue_density + 9 * g:][:, :9])
            want += kernels.lambertian_gains(foreign[..., 0] - cx, foreign[..., 1] - cy,
                                             *optics).sum(axis=1)
        assert neighbors and np.array_equal(outgoing, want)

    def test_no_foreign_ues_means_no_leakage_but_interference_remains(self, make_config):
        quiet = load_experiment(make_config({**SHORT, "experiment.policy": "fixed_max",
                                             "interference.neighbor_ues": 0}))
        episode = run_episode(quiet, seed=4)
        assert (episode.ici_w == 0.0).all()
        # neighbor downlinks still degrade the local rates
        silent = dataclasses.replace(quiet, neighbor_power=0.0)
        undisturbed = run_episode(silent, seed=4)
        assert (episode.mean_rate_bps < undisturbed.mean_rate_bps).all()


def recording(fn, calls):
    def wrapper(*args):
        result = fn(*args)
        calls.append((args, result))
        return result
    return wrapper


def record_episode(cfg, seed, mp):
    """Run one episode with its kernel calls and its batched record pass
    (harness._score) recorded; returns the episode and the recorded calls."""
    calls = {"level_rates": [], "utility": [], "score": []}
    mp.setattr(kernels, "level_rates", recording(kernels.level_rates, calls["level_rates"]))
    mp.setattr(kernels, "utility", recording(kernels.utility, calls["utility"]))
    mp.setattr(harness, "_score", recording(harness._score, calls["score"]))
    return run_episode(cfg, seed), calls


TRACED = {
    "reference-bins": SHORT,
    # 16 actions; rate and gain keys on a 1000-bin grid pass 2**63 together
    "bins1000-rho4": {**SHORT, "agent.rate_bins": 1000, "agent.gain_bins": 1000,
                      "experiment.ue_density": 4, "agent.power_levels": 1},
    "replay": {**SHORT, "agent.replay": "true"},
}


@pytest.fixture(scope="module", params=list(TRACED))
def traced(request, tmp_path_factory):
    """One rpic episode and its per-slot trace, recorded from the calls the
    episode makes: the one level_rates call (the gains and the rate table),
    per slot warmup_policy or select_action (the chosen action), utility
    (the utility the learner sees) and, from the second slot on, update_q
    (the first update's state is slot 0's, update k-1's next_state is slot
    k's), and the batched _score pass (the chosen level indices of every
    slot)."""
    from conftest import render_config

    path = tmp_path_factory.mktemp("trace") / "t.ini"
    path.write_text(render_config(TRACED[request.param]))
    cfg = load_experiment(path)
    warmups, picks, updates = [], [], []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "warmup_policy", recording(harness.warmup_policy, warmups))
        mp.setattr(harness, "select_action", recording(harness.select_action, picks))
        mp.setattr(harness, "update_q", recording(harness.update_q, updates))
        episode, calls = record_episode(cfg, 7, mp)
    n_slots, n = cfg.agent.max_slots, cfg.ue_density
    assert len(warmups) == n_slots
    # select_action runs exactly in the slots where warmup_policy returned None
    picked = iter(picks)
    chosen, selected_in, epsilon_in = [], {}, {}
    for k, (_, action) in enumerate(warmups):
        if action is None:
            (_, selected_in[k], epsilon_in[k], _), action = next(picked)
        chosen.append(action)
    assert next(picked, None) is None
    # each slot after the first makes one update, then replay_batch replayed ones
    stride = 1 + cfg.replay_batch if cfg.replay else 1
    assert len(updates) == (n_slots - 1) * stride
    steps = [tuple(args[1:5]) for args, _ in updates[::stride]]  # (s, x, u, s')
    states = [steps[0][0]] + [step[3] for step in steps]
    # one rate table and one record pass per episode; one utility per slot,
    # on Python floats, before the record pass scores all slots at once
    ((levels, serving, *_), table), = calls["level_rates"]
    ((_, _, choice, *_), _), = calls["score"]
    *per_slot, (batched, _) = calls["utility"]
    assert len(per_slot) == n_slots and type(batched[0]) is np.ndarray
    joint = joint_actions(levels, n)  # the powers of each action index, independently
    trace = [
        {"slot": k, "state": states[k], "selected_in": selected_in.get(k),
         "epsilon": epsilon_in.get(k),
         "step": steps[k - 1] if k else None, "serving_gains": serving[k],
         "action": action, "powers": joint[action], "levels": choice[k],
         "rates": table[k, np.arange(n), choice[k]], "utility": u_args, "u": u}
        for k, (action, (u_args, (u, _))) in enumerate(zip(chosen, per_slot))
    ]
    return cfg, episode, trace, levels


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

    def test_tracer_runs_over_the_package(self, make_config, tmp_path):
        """perfbench/child.py installs the tracer over every public vlcudn
        function before a --trace 1 run; its work counters unpack the
        arguments of the functions they are keyed to."""
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
        tracer_mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_mod)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "vlcudn" or name.startswith("vlcudn.")]
        saved = [(m, dict(vars(m))) for m in modules]
        tracer = tracer_mod.Tracer(str(tmp_path))
        cfg = load_experiment(make_config(SHORT))
        try:
            tracer_mod.install(tracer)
            for policy in ("rpic", "greedy_myopic"):
                harness.run_episode(dataclasses.replace(cfg, policy=policy), 3)
        finally:
            for module, names in saved:
                for name, value in names.items():
                    setattr(module, name, value)
        stats = tracer.stats
        assert stats["harness.run_episode"][0] == 2
        assert stats["kernels.level_rates"][0] == 2
        assert stats["agent.quantize_state"][0] == 1  # the rpic episode's gain keys
        assert tracer.counts["kernels.lambertian_gains.links"] > 0
        # each episode walks N local UEs and N_foreign UEs in each of the J
        # neighbour cells for every slot
        n_neighbors = len(episode_cells(cfg)) - 1
        per_episode = cfg.agent.max_slots * (cfg.ue_density
                                             + n_neighbors * cfg.n_neighbor_ues())
        assert n_neighbors > 0
        assert tracer.counts["mobility.ue_slots"] == 2 * per_episode

    def test_run_episode_quantizes_once_per_episode(self, make_config, monkeypatch):
        """The learner bins every slot's gains in one call, with zero rates."""
        cfg = load_experiment(make_config({**SHORT, "agent.replay": "true"}))
        calls = []

        def counting(*args):
            calls.append(args)
            return quantize_state(*args)

        monkeypatch.setattr(harness, "quantize_state", counting)
        run_episode(cfg, seed=2)
        (rates, gains, grid), = calls
        assert gains.shape == rates.shape == (cfg.agent.max_slots, cfg.ue_density)
        assert not rates.any() and grid == cfg.state_grid()


class TestSlotContract:
    def test_first_slot_sees_zero_rates(self, traced):
        cfg, _, trace, _ = traced
        n, grid, first = cfg.ue_density, cfg.state_grid(), trace[0]
        assert parse_state_key(state_key(first["state"], grid, n))[0] == (0,) * n
        assert first["state"] == quantize_state([0.0] * n, first["serving_gains"], grid)

    def test_every_state_is_previous_rates_and_current_gains(self, traced):
        cfg, _, trace, _ = traced
        prev_rates = np.zeros(cfg.ue_density)
        for entry in trace:
            want = quantize_state(prev_rates, entry["serving_gains"], cfg.state_grid())
            assert type(entry["state"]) is int and entry["state"] == want, entry["slot"]
            assert entry["selected_in"] in (None, entry["state"])
            prev_rates = entry["rates"]
        big = max(entry["state"] for entry in trace) > 2**63
        assert big == (cfg.rate_bins == 1000)

    def test_each_pick_gets_the_epsilon_of_its_slot(self, traced):
        cfg, _, trace, _ = traced
        agent_cfg = cfg.agent
        want = epsilon_at(range(len(trace)), agent_cfg.epsilon_start, agent_cfg.epsilon_end,
                          agent_cfg.epsilon_decay_slots)
        picked = [entry for entry in trace if entry["selected_in"] is not None]
        assert len(picked) == len(trace) - agent_cfg.warmup_slots
        for entry in picked:
            assert entry["epsilon"] == want[entry["slot"]], entry["slot"]

    def test_rates_chain_across_slots(self, traced):
        """Slot k's update writes slot k-1's state, action and utility, and
        takes slot k's state, formed from slot k-1's rates, as the next one."""
        _, _, trace, _ = traced
        for prev, cur in zip(trace, trace[1:]):
            assert cur["step"] == (prev["state"], prev["action"], prev["u"], cur["state"])

    def test_recorded_metrics_match_trace(self, traced):
        cfg, episode, trace, levels = traced
        for k, entry in enumerate(trace):
            assert entry["slot"] == k
            # the recorded levels are the learner's action, and the recorded
            # utility is the one it learned from, from the same rates
            assert np.array_equal(levels[entry["levels"]], entry["powers"])
            rate_sum, n_ues, total_w, *_ = entry["utility"]
            assert n_ues == cfg.ue_density
            assert rate_sum == pytest.approx(entry["rates"].sum(), rel=1e-12)
            assert total_w == pytest.approx(entry["powers"].sum(), rel=1e-12)
            assert episode.utility[k] == entry["u"]
            assert episode.energy_w[k] == pytest.approx(entry["powers"].sum(), rel=1e-12)
            assert episode.mean_rate_bps[k] == pytest.approx(entry["rates"].mean(), rel=1e-12)

    @pytest.mark.parametrize("density", [3, 8])
    def test_learner_sees_the_recorded_utility(self, make_config, monkeypatch, density):
        """With learning rate 1 and discount 0 every Q-value written is the
        utility of the slot it was written for, so the learner's sums and
        the recorded ones must agree bit for bit, at 8 UEs too, where numpy's
        own add-reduce would switch to pairwise summation.  At 8 UEs about one
        slot in a hundred tells the two orders apart in the last bit."""
        cfg = load_experiment(make_config({
            **SHORT, "agent.max_slots": 300, "experiment.ue_density": density,
            "agent.power_levels": 1, "agent.learning_rate": 1, "agent.discount": 0,
        }))
        assert cfg.action_cap >= 2 ** 8
        writes = []
        monkeypatch.setattr(harness, "update_q", recording(harness.update_q, writes))
        episode, calls = record_episode(cfg, 4, monkeypatch)
        assert len(writes) == cfg.agent.max_slots - 1
        last_write = {}
        for k, ((_, state, action, u, *_), value) in enumerate(writes):
            assert u == value == episode.utility[k], k
            last_write[state, action] = k
        qtable = episode.qtable
        for (state, action), k in last_write.items():
            assert qtable.row(state)[action] == episode.utility[k]

        ((levels, serving, incoming, *_), _), = calls["level_rates"]
        ((_, _, choice, outgoing, *_), _), = calls["score"]
        eta = cfg.responsivity
        x_nb = np.full((1, density), 1.0 / eta)  # one pseudo-neighbor: eta * x_nb * g ~ g
        for k in range(cfg.agent.max_slots):
            snapshot = SlotChannelSnapshot(serving[k], incoming[k][None], [[outgoing[k]]])
            powers = PowerVector(levels[choice[k]], x_nb)
            rates = [achievable_rate(per_ue_bandwidth(cfg, density),
                                     sinr(n, powers, snapshot, cfg, eta))
                     for n in range(density)]
            want = oracle_utility(rates, powers, total_ici(powers, snapshot, eta), cfg)
            assert episode.utility[k] == pytest.approx(want, rel=1e-12), k

    def test_utility_recomposes_from_metric_columns(self, make_config):
        cfg = load_experiment(make_config({**SHORT, "experiment.policy": "random"}))
        episode = run_episode(cfg, seed=9)
        recomposed = (
            episode.mean_rate_bps * 1e-6
            - cfg.energy_weight * episode.energy_w * 1e3
            - cfg.interference_weight * episode.ici_w * 1e3
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
        episode, calls = record_episode(cfg, 5, monkeypatch)
        # one rate table, one per-UE scoring of it and one record pass
        ((levels, *_), table), = calls["level_rates"]
        ((_, _, choice, outgoing, prices, _), _), = calls["score"]
        assert len(calls["utility"]) == 2
        assert choice.shape == (cfg.agent.max_slots, density)
        for k in range(cfg.agent.max_slots):
            want = greedy_joint_argmax(levels, table[k], outgoing[k], *prices)
            assert (choice[k] == want).all(), k
            assert episode.energy_w[k] == levels[choice[k]].sum()
        # Linear mode keeps some power at every weight here.  Squared mode at
        # these optics picks all-zero unless leakage is free and power
        # nearly so; the zero-weight cases make its comparison non-trivial.
        some_power = squared == "false" or weights[1] == "0"
        assert (episode.energy_w.max() > 0.0) == some_power

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_rate_table_and_no_per_slot_numpy_kernel(self, make_config, monkeypatch, policy):
        cfg = load_experiment(make_config({**SHORT, "experiment.policy": policy}))
        _, calls = record_episode(cfg, 2, monkeypatch)
        assert len(calls["level_rates"]) == len(calls["score"]) == 1
        on_floats = [args for args, _ in calls["utility"] if type(args[0]) is float]
        on_arrays = [args for args, _ in calls["utility"] if type(args[0]) is np.ndarray]
        assert len(on_floats) == (cfg.agent.max_slots if policy == "rpic" else 0)
        assert len(on_arrays) == (2 if policy == "greedy_myopic" else 1)
        assert len(on_floats) + len(on_arrays) == len(calls["utility"])

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
        series = run_experiment([cfg])[0]
        episode = run_episode(cfg, seed=cfg.seed)
        assert np.array_equal(series.utility, episode.utility)
        assert np.array_equal(series.ici_w, episode.ici_w)

    def test_average_is_ordered_mean_of_seeded_runs(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=3, seed=5)
        series = run_experiment([cfg])[0]
        manual = np.mean(
            np.stack([run_episode(cfg, s).utility for s in (5, 6, 7)]), axis=0
        )
        assert np.array_equal(series.utility, manual)

    def test_repeat_call_is_identical(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        a, b = run_experiment([cfg])[0], run_experiment([cfg])[0]
        assert np.array_equal(a.utility, b.utility)
        assert np.array_equal(a.mean_rate_bps, b.mean_rate_bps)

    def test_seed_changes_output(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        a = run_experiment([cfg])[0]
        b = run_experiment([dataclasses.replace(cfg, seed=123)])[0]
        assert not np.array_equal(a.utility, b.utility)

    def test_parallel_equals_serial(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=2)
        serial = run_experiment([cfg], workers=1)[0]
        parallel = run_experiment([cfg], workers=2)[0]
        for field in ("utility", "mean_rate_bps", "energy_w", "ici_w"):
            assert np.array_equal(getattr(serial, field), getattr(parallel, field)), field

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        """The size of each pool run_experiment opens; the pools run their
        maps in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, **_):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_is_no_larger_than_the_run_count(self, make_config, pool_sizes):
        cfg = load_experiment(make_config(SHORT), runs=2)
        run_experiment([cfg], workers=8)
        run_experiment([dataclasses.replace(cfg, runs=1)], workers=8)
        assert pool_sizes == [2]
        # several configs share one pool, as large as their three runs allow
        configs = [cfg, dataclasses.replace(cfg, runs=1, seed=9)]
        run_experiment(configs, workers=8)
        run_experiment(configs, workers=2)
        assert pool_sizes == [2, 3, 2]

    def test_sweep_opens_one_pool(self, make_config, pool_sizes, tmp_path):
        from click.testing import CliRunner

        from vlcudn.cli import main

        result = CliRunner().invoke(main, [
            "sweep", "--config", str(make_config(SHORT)), "--densities", "1,2,3",
            "--runs", "2", "--workers", "4", "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 0, result.output
        assert pool_sizes == [4]

    def test_keep_runs(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=2)
        series = run_experiment([cfg], keep_runs=True)[0]
        assert len(series.per_run) == 2
        assert run_experiment([cfg])[0].per_run is None

    def test_only_the_first_run_returns_its_qtable(self, make_config, tmp_path):
        cfg = load_experiment(make_config(SHORT), runs=3)
        serial = run_experiment([cfg], keep_runs=True)[0]
        pooled = run_experiment([cfg], workers=2, keep_runs=True)[0]
        for series in (serial, pooled):
            assert [run.qtable is None for run in series.per_run] == [False, True, True]
            assert series.qtable is series.per_run[0].qtable

        def saved(qtable):
            qtable.save(tmp_path / "q.tsv", cfg.state_grid(), cfg.ue_density,
                        cfg.agent.power_levels, cfg.agent.max_power)
            return (tmp_path / "q.tsv").read_bytes()

        assert len(pooled.qtable) > 0
        assert saved(pooled.qtable) == saved(serial.qtable)
        assert saved(serial.qtable) == saved(run_episode(cfg, cfg.seed).qtable)

    def test_sweep_covers_each_density(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=1)
        configs = density_configs(cfg, [1, 2])
        assert [c.ue_density for c in configs] == [1, 2]
        results = [run_experiment([c])[0] for c in configs]
        assert all(len(s.utility) == cfg.agent.max_slots for s in results)
        # denser cells split the band, so the single-UE run is faster per UE
        assert results[0].mean_rate_bps.mean() > results[1].mean_rate_bps.mean()

    def test_sweep_validates_densities(self, make_config):
        cfg = load_experiment(make_config(SHORT))
        with pytest.raises(ConfigError):
            density_configs(cfg, [])
        with pytest.raises(ConfigError):
            density_configs(cfg, [2, 0])

    def test_sweep_checks_every_density_before_running(self, make_config, monkeypatch,
                                                       tmp_path):
        from click.testing import CliRunner

        from vlcudn.cli import main

        calls = []
        real = harness.run_episode

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_episode", counting)
        config, out = make_config(SHORT), tmp_path / "out"
        for densities, fragment in (("1,9", "action_cap"), ("2,1,2", "distinct")):
            result = CliRunner().invoke(main, [
                "sweep", "--config", str(config), "--densities", densities,
                "--runs", "1", "--out", str(out),
            ])
            assert result.exit_code == 2 and fragment in result.output, result.output
        assert calls == []
        assert not out.exists()


class TestWriters:
    @pytest.fixture()
    def small_series(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=2)
        return cfg, run_experiment([cfg], keep_runs=True)[0]

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

    def test_metadata_survives_git_timeout(self, tmp_path, small_series, monkeypatch,
                                           fresh_git_describe):
        def hung_git(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(harness.subprocess, "run", hung_git)
        cfg, series = small_series
        path = tmp_path / "metrics.meta.json"
        write_metadata(path, cfg, series)
        assert json.loads(path.read_text())["git_describe"] is None

    @pytest.mark.parametrize("layout,names_the_repo", [
        ("src", True),  # a checkout: src/vlcudn under the repository root
        ("venv/lib/site-packages", False),  # an install inside some other repository
    ])
    def test_git_describe_stops_at_the_checkout_root(self, tmp_path, layout, names_the_repo):
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        (tmp_path / "README").write_text("outer\n")
        subprocess.run(git + ["add", "README"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "outer"], check=True)
        head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        site = tmp_path / layout
        shutil.copytree(REPO_ROOT / "src" / "vlcudn", site / "vlcudn",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "-c", "from vlcudn.harness import _git_describe as d; print(d())"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(site)),
            check=True, capture_output=True, text=True)
        assert proc.stdout.strip() == (head if names_the_repo else "None")

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
        series = run_experiment([cfg])[0]
        out = tmp_path / "out"
        save_experiment(out, cfg, series)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["metrics.csv", "metrics.meta.json"]

    def test_converged_means_window(self, small_series):
        _, series = small_series  # 80 slots: the mean of all of them
        full = converged_means(series)
        assert full["utility"] == pytest.approx(series.utility.mean(), rel=1e-12)
        rng = np.random.default_rng(0)
        long = Series(*(rng.random(700) for _ in range(4)))
        tail = converged_means(long)
        assert tail["energy_w"] == pytest.approx(long.energy_w[-500:].mean(), rel=1e-12)
        assert tail["energy_w"] != pytest.approx(long.energy_w.mean(), rel=1e-12)


# The greedy rows set weights that leave greedy_myopic some power: at the
# desk-scale weights it picks all-zero at rho=5 and in squared mode, and an
# all-zero metrics.csv does not depend on the random streams.
GREEDY_SOME_POWER = {"utility.energy_weight_per_mw": "0.1",
                     "utility.interference_weight_per_mw": "1e4"}
SQUARED = {"link.squared_electrical_power": "true"}
GOLDEN = {
    "rpic": ("rpic", 3, {},
             "619b53134c73946e4594d4ca1f07c81217cdc471c264433e29dc14fc21a4d2ad",
             "44e8f1901d84d5f8bde44a2b7665a44944f36c50a787b7a93b6c4c9ffbb221aa"),
    "fixed_max": ("fixed_max", 3, {},
                  "73073d76007f719a377a1f64d9be420a21ac74c1f43a43de8d5b54e0e8bd5dd1", None),
    "fixed_half": ("fixed_half", 3, {},
                   "213f5697af0920852933a948cc60981d8f887ec8f322b8527b78904a9e590083", None),
    "random": ("random", 3, {},
               "932152bf7bfa739da048c4ef1b3eabf1aa0ecaf367a4a9cea7ff590720a8edbd", None),
    "greedy": ("greedy_myopic", 3, {},
               "31ffe0587bf32e4a0e69cc466cdbb392b36d5eece782d3db850b69568cab8ce3", None),
    "greedy-rho5": ("greedy_myopic", 5, GREEDY_SOME_POWER,
                    "be191544690873cd6e73293220a9f8d81b5a613e61b0b305dec76dbebf39ee70", None),
    "rpic-replay": ("rpic", 3, {"agent.replay": "true"},
                    "d6179721cc26bb30fa61518aa7fdffcd6193483b45c430691b60db1071606b30",
                    "7c4a92ea9390f2dfe17d3033e43a891ffaa9781af2763498029e7ac01e6a62cc"),
    # 12 and 11 bins: key-string order differs from state-index order
    "rpic-bins12": ("rpic", 3, {"agent.rate_bins": 12, "agent.gain_bins": 11},
                    "b5d18a624bf0d8bc9cbbcabe27d8764f0dc42331d0045508458737a4650b3583",
                    "d393085250212ec4952730e3179fd5cc08d4dc0cf23931e5d3c44b4b47e7353a"),
    "rpic-squared": ("rpic", 3, SQUARED,
                     "925628ddb29b3a821693fa2d92e9580df6585b8cba36fb87804b14dfe2be256c",
                     "b5af65d750245ef47bcd7f0a7f78b8ac8df783ff5a0c671dfd9eec044752fef7"),
    "greedy-squared": ("greedy_myopic", 3, {**SQUARED, "utility.energy_weight_per_mw": "1e-4",
                                            "utility.interference_weight_per_mw": "0"},
                       "dfe655a35b1f15ede23c6c6f150bd32e456c05340dd1e9a165ce5e1b285ea239",
                       None),
    # an even grid: four APs tie for the center and the lowest index, 5,
    # wins; its seven two_block neighbours walk in index order.  2 x 3
    # four_block: APs 1 and 4 tie, and AP 1 has no co-channel neighbour.
    "rpic-4x4-two-block": ("rpic", 3, {"topology.rows": 4, "topology.cols": 4,
                                       "topology.reuse_mode": "two_block"},
                           "005eb585e3a1163c85ae521166ef57ee6cb5d5960cd385b9ffea678526c31f4c",
                           "4239da5dfe91f89bd5a8da4fb2aa658a4c2d6154da1671ca58aaa2377bd41a28"),
    "random-2x3-four-block": ("random", 3, {"topology.rows": 2, "topology.cols": 3,
                                            "topology.reuse_mode": "four_block"},
                              "175f4e654f90bc4832cd4a2511503170f3785384c557a57594b199cf861521f4",
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
    save_experiment(tmp_path, cfg, run_experiment([cfg])[0])

    def digest(name):
        path = tmp_path / name
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None

    assert (digest("metrics.csv"), digest("qtable.tsv")) == (csv_sha256, qtable_sha256)
