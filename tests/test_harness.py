"""Episode loop, run averaging, baselines, writers, and abort handling."""

import ast
import dataclasses
import hashlib
import inspect
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import REPO_ROOT
from oracles import (
    PowerVector, SlotChannelSnapshot, achievable_rate, greedy_joint_argmax, joint_actions,
    per_ue_bandwidth, row_cache, sinr, total_ici,
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
        events = record_learner(monkeypatch)
        with pytest.raises(SimulationAbort, match="non-finite utility at slot 0 "):
            run_episode(cfg, seed=1)
        assert [event for event in events if event[0] == "update"] == []

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
        want = np.zeros(cfg.max_slots)
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


def record_learner(mp):
    """Record the learner's calls on its Q-table in one list, in call order:
    ("get", state, row) for each row lookup of the slot loop (row is what
    the lookup returned, None for a state without one), ("add", state, row)
    for each row stored in the table, ("select", row, explore, u, pick) for
    each QRow.select, ("top", row, peak) for each read of a row's top
    outside the row's own methods (peak is the row's largest value then),
    and ("update", row, action, utility, next_top, value) for each
    QRow.update, value being the entry it wrote."""
    events = []
    inside = [False]
    top_slot = agent.QRow.__dict__["top"]

    class Rows(dict):
        def get(self, state, default=None):
            row = dict.get(self, state, default)
            events.append(("get", state, row))
            return row

        def __setitem__(self, state, row):
            events.append(("add", state, row))
            dict.__setitem__(self, state, row)

    class Table(agent.QTable):
        def __init__(self, n_actions):
            super().__init__(n_actions)
            self.rows = Rows()

    def read_top(row):
        if not inside[0]:
            events.append(("top", row, row.values.max()))
        return top_slot.__get__(row)

    def method(fn, event):
        def wrapper(*args):
            inside[0] = True
            try:
                result = fn(*args)
            finally:
                inside[0] = False
            events.append(event(*args, result))
            return result
        return wrapper

    mp.setattr(harness, "QTable", Table)
    mp.setattr(agent.QRow, "top", property(read_top, top_slot.__set__))
    mp.setattr(agent.QRow, "select", method(
        agent.QRow.select, lambda row, explore, u, pick: ("select", row, explore, u, pick)))
    mp.setattr(agent.QRow, "update", method(
        agent.QRow.update,
        lambda row, x, u, top, _a, _b, _: ("update", row, x, u, top, row.values.item(x))))
    return events


def state_of(row, qtable):
    """The state of a recorded row."""
    (state,) = (s for s, r in qtable.rows.items() if r is row)
    return state


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
    # no warm-up; epsilon 1 in slot 0 and 0 from slot 1 on
    "no-warmup-steep-decay": {**SHORT, "agent.warmup_slots": 0, "agent.epsilon_start": 1.0,
                              "agent.epsilon_end": 0.0, "agent.epsilon_decay_slots": 1},
}
TRACE_SEED = 7


@pytest.fixture(scope="module", params=list(TRACED))
def traced(request, tmp_path_factory):
    """One rpic episode and its per-slot trace, recorded from the calls the
    episode makes: the one level_rates call (the gains and the rate table),
    the learner's calls on its Q-table (record_learner): each slot's row
    lookup (the slot's state) and the row it stores if the state has none,
    its QRow.select after warm-up (the coin, the pick u and the action),
    and from the second slot on its update (s, x, u, s') and then its
    replayed ones, each s' the state of the row whose top it was handed;
    utility (the utility the learner sees), and the batched _score pass
    (the chosen level indices of every slot, and so each slot's action)."""
    from conftest import render_config

    path = tmp_path_factory.mktemp("trace") / "t.ini"
    path.write_text(render_config(TRACED[request.param]))
    cfg = load_experiment(path)
    with pytest.MonkeyPatch.context() as mp:
        events = record_learner(mp)
        episode, calls = record_episode(cfg, TRACE_SEED, mp)
    n_slots, n = cfg.max_slots, cfg.ue_density
    qtable = episode.qtable
    # Per slot: its lookup, the row it stores if the state has none, after
    # warm-up a select through the slot's row, and from the second slot on
    # its update, then replay_batch replayed ones, each after the read of
    # the top it is handed as next_top, which is that row's largest value.
    remaining = iter(events)

    def take(kind):
        event = next(remaining)
        assert event[0] == kind, event
        return event[1:]

    def step():
        next_row, peak = take("top")
        who, action, utility, next_top, _ = take("update")
        assert next_top == peak
        return state_of(who, qtable), action, utility, state_of(next_row, qtable)

    states, rows, added, selects, steps, replayed = [], [], [], [], [None], [[]]
    for k in range(n_slots):
        state, row = take("get")
        if row is None:
            new_state, row = take("add")
            assert new_state == state
            added.append(state)
        states.append(state)
        rows.append(row)
        if k >= cfg.warmup_slots:
            who, explore, u, pick = take("select")
            assert who is row
            selects.append(((state, explore, u), pick))
        else:
            selects.append(None)
        if k:
            steps.append(step())
            assert steps[-1][3] == state
            replayed.append([])
            for _ in range(cfg.replay_batch if cfg.replay else 0):
                replayed[-1].append(step())
    assert next(remaining, None) is None
    # each state's row is made once, at its first lookup, and stays in the table
    assert sorted(added) == sorted(set(states)) == sorted(qtable.rows)
    assert all(qtable.rows[state] is row for state, row in zip(states, rows))
    # one rate table and one record pass per episode; one utility per slot,
    # on Python floats, before the record pass scores all slots at once
    ((levels, serving, *_), table), = calls["level_rates"]
    ((_, _, choice, *_), _), = calls["score"]
    *per_slot, (batched, _) = calls["utility"]
    assert len(per_slot) == n_slots and type(batched[0]) is np.ndarray
    joint = joint_actions(levels, n)  # the powers of each action index, independently
    chosen = np.ravel_multi_index(tuple(choice.T), (len(levels),) * n).tolist()
    trace = [
        {"slot": k, "state": states[k], "select": selects[k],
         "step": steps[k], "replayed": replayed[k], "serving_gains": serving[k],
         "action": action, "powers": joint[action], "levels": choice[k],
         "rates": table[k, np.arange(n), choice[k]], "utility": u_args, "u": u}
        for k, (action, (u_args, (u, _))) in enumerate(zip(chosen, per_slot))
    ]
    return cfg, episode, trace, levels


class TestPerfbenchReads:
    """perfbench/run.py reads the agent's span stats under "agent.<function>"
    keys, and the tracer counts each traced call; a rename or an extra call
    per slot would change its per-layer numbers without failing the run."""

    # Spans perfbench/run.py still reads that no function carries: the
    # learner selects and updates through QRow's methods, which the tracer
    # does not wrap, so agent.select.* and agent.update.* read 0 until
    # perfbench drops these keys (ROADMAP item 1).
    RETIRED_SPANS = {"agent.select_action", "agent.update_q"}

    def test_agent_span_keys_name_public_agent_functions(self):
        source = (REPO_ROOT / "perfbench" / "run.py").read_text()
        bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        metric_names = {entry["name"] for entry in bench["per_layer"]}
        span_keys = {
            node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"agent\.\w+", node.value) and node.value not in metric_names
        }
        assert span_keys - self.RETIRED_SPANS
        for key in span_keys:
            name = key.partition(".")[2]
            fn = getattr(agent, name, None)
            if key in self.RETIRED_SPANS:
                assert fn is None, key
                continue
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
        per_episode = cfg.max_slots * (cfg.ue_density + n_neighbors * cfg.n_neighbor_ues())
        assert n_neighbors > 0
        assert tracer.counts["mobility.ue_slots"] == 2 * per_episode

    def test_check_outputs_reads_package_results(self, make_config, tmp_path, monkeypatch):
        """perfbench/run.py's check_outputs reads every result directory
        through the package: load_experiment, cfg.agent and QTable.load.  A
        break there would otherwise show only as a failed benchmark run."""
        import importlib.util

        from click.testing import CliRunner

        from vlcudn.cli import main

        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))  # run.py imports calibrate
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      REPO_ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up there
        spec.loader.exec_module(run)
        ini = make_config({**SHORT, "experiment.ue_density": 3})
        for name, command in (("rpic_rho3", ["simulate"]),
                              ("sweep_workers2", ["sweep", "--densities", "1,2,3"])):
            workload, out = run.WORKLOADS[name], tmp_path / name
            result = CliRunner().invoke(main, [*command, "--config", str(ini), "--out", str(out)])
            assert result.exit_code == 0, result.output
            read = run.check_outputs(str(ini), str(out), workload)
            dirs = [out / f"rho{d}" for d in workload.densities] or [out]
            metas = [json.loads((d / "metrics.meta.json").read_text()) for d in dirs]
            assert read["q_rows"] > 0
            assert read["converged"] == [m["converged_last_500"]["utility"] for m in metas]

    def test_run_episode_quantizes_once_per_episode(self, make_config, monkeypatch):
        """The learner bins every slot's gains in one call, with no rate
        columns: the gain part of every slot's state index."""
        cfg = load_experiment(make_config({**SHORT, "agent.replay": "true"}))
        calls = []

        def counting(*args):
            calls.append(args)
            return quantize_state(*args)

        monkeypatch.setattr(harness, "quantize_state", counting)
        run_episode(cfg, seed=2)
        (rates, gains, grid), = calls
        assert gains.shape == (cfg.max_slots, cfg.ue_density)
        assert rates.shape == (cfg.max_slots, 0) and grid == cfg.state_grid()


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
            prev_rates = entry["rates"]
        big = max(entry["state"] for entry in trace) > 2**63
        assert big == (cfg.rate_bins == 1000)

    def test_agent_stream_layout(self, traced):
        """The agent stream, re-derived from the seed: a block of n_slots
        coins, then one of n_slots picks.  Warm-up slot k takes action
        int(picks[k] * n_actions).  QRow.select runs in exactly the slots
        from warmup_slots on, with explore = coins[k] < epsilon of slot k and
        u = picks[k], and its pick is the slot's action and its row the one
        the slot's lookup returned.  With replay, slot k >= 1 then replays,
        for each v of one rng.random(replay_batch), update int(v * k) of the
        k made so far."""
        cfg, _, trace, _ = traced
        n_slots = cfg.max_slots
        rng = np.random.default_rng(np.random.SeedSequence(TRACE_SEED).spawn(2)[1])
        coins, picks = rng.random(n_slots), rng.random(n_slots)
        epsilons = epsilon_at(range(n_slots), cfg.epsilon_start, cfg.epsilon_end,
                              cfg.epsilon_decay_slots)
        n_actions = (cfg.power_levels + 1) ** cfg.ue_density
        selected = [entry["slot"] for entry in trace if entry["select"] is not None]
        assert selected == list(range(cfg.warmup_slots, n_slots))
        for k, entry in enumerate(trace):
            if k < cfg.warmup_slots:
                assert entry["action"] == int(picks[k] * n_actions), k
            else:
                (state, explore, u), action = entry["select"]
                assert type(explore) is bool and explore == (coins[k] < epsilons[k]), k
                assert (state, u, action) == (entry["state"], picks[k], entry["action"]), k
            if cfg.replay and k:
                made = [e["step"] for e in trace[1:k + 1]]
                want = [made[int(v * k)] for v in rng.random(cfg.replay_batch)]
                assert entry["replayed"] == want, k
            else:
                assert entry["replayed"] == [], k

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
        events = record_learner(monkeypatch)
        episode, calls = record_episode(cfg, 4, monkeypatch)
        writes = [event for event in events if event[0] == "update"]
        assert len(writes) == cfg.max_slots - 1
        last_write = {}
        for k, (_, who, action, u, _, value) in enumerate(writes):
            state = state_of(who, episode.qtable)
            assert u == value == episode.utility[k], k
            last_write[state, action] = k
        qtable = episode.qtable
        for (state, action), k in last_write.items():
            assert qtable.row(state)[action] == episode.utility[k]

        ((levels, serving, incoming, *_), _), = calls["level_rates"]
        ((_, _, choice, outgoing, *_), _), = calls["score"]
        eta = cfg.responsivity
        x_nb = np.full((1, density), 1.0 / eta)  # one pseudo-neighbor: eta * x_nb * g ~ g
        for k in range(cfg.max_slots):
            snapshot = SlotChannelSnapshot(serving[k], incoming[k][None], [[outgoing[k]]])
            powers = PowerVector(levels[choice[k]], x_nb)
            rates = [achievable_rate(per_ue_bandwidth(cfg, density),
                                     sinr(n, powers, snapshot, cfg, eta))
                     for n in range(density)]
            want = oracle_utility(rates, powers, total_ici(powers, snapshot, eta), cfg)
            assert episode.utility[k] == pytest.approx(want, rel=1e-12), k

    # At rho=5 every Q-value written is negative, so no row has a sole maximizer.
    @pytest.mark.parametrize("overrides, sole", [
        ({"experiment.ue_density": 3}, True),
        ({"experiment.ue_density": 5}, False),
        ({"experiment.ue_density": 3, "agent.replay": "true"}, True),
    ], ids=["rho3", "rho5", "rho3-replay"])
    def test_every_rows_cache_matches_a_scan_of_its_values(self, make_config, overrides, sole):
        """After whole episodes, each row's cached top, count and sole are
        what a scan of its values finds, and a sole maximizer's runner-up
        bound is at least every other entry."""
        cfg = load_experiment(make_config({**SHORT, "agent.max_slots": 300, **overrides}))
        sole_rows = 0
        for seed in (1, 2):
            qtable = run_episode(cfg, seed).qtable
            assert len(qtable) > 0
            for state, row in qtable.rows.items():
                values = row.values
                assert (row.top, row.count, row.sole) == row_cache(values), state
                if row.count == 1:
                    sole_rows += 1
                    assert row.bound >= np.delete(values, row.sole).max(), state
        assert (sole_rows > 0) == sole

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_saved_rows_are_the_rows_with_a_nonzero_entry(self, make_config, monkeypatch,
                                                          tmp_path, seed):
        """The table keeps the row of every state the learner looked up, so it
        holds the saved rows and more: qtable.tsv loads back exactly its rows
        with a nonzero entry, each row left out is all zeros, and on the
        1000-bin grid the last slot's state is new and its row one of them."""
        cfg = load_experiment(make_config(TRACED["bins1000-rho4"]))
        events = record_learner(monkeypatch)
        qtable = run_episode(cfg, seed).qtable
        lookups = [event[1] for event in events if event[0] == "get"]
        assert len(lookups) == cfg.max_slots and lookups[-1] not in lookups[:-1]
        path = tmp_path / "qtable.tsv"
        qtable.save(path, cfg.state_grid(), cfg.ue_density, cfg.power_levels, cfg.max_power)
        loaded, _ = agent.QTable.load(path)
        assert set(loaded.rows) == {s for s, row in qtable.rows.items() if row.values.any()}
        for state, row in qtable.rows.items():
            assert loaded.row(state).tolist() == row.values.tolist(), state
        assert lookups[-1] in qtable.rows and lookups[-1] not in loaded.rows

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
        assert choice.shape == (cfg.max_slots, density)
        for k in range(cfg.max_slots):
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
        assert len(on_floats) == (cfg.max_slots if policy == "rpic" else 0)
        assert len(on_arrays) == (2 if policy == "greedy_myopic" else 1)
        assert len(on_floats) + len(on_arrays) == len(calls["utility"])

    def test_fixed_policies_hold_power_constant(self, make_config):
        # an even level count puts max_power/2 exactly on the grid
        path = make_config({**SHORT, "experiment.policy": "fixed_max",
                            "agent.power_levels": 4})
        cfg = load_experiment(path)
        episode = run_episode(cfg, seed=2)
        assert episode.energy_w == pytest.approx(
            [cfg.ue_density * cfg.max_power] * cfg.max_slots, rel=1e-12
        )
        half = run_episode(dataclasses.replace(cfg, policy="fixed_half"), seed=2)
        assert half.energy_w == pytest.approx(
            [cfg.ue_density * cfg.max_power / 2] * cfg.max_slots, rel=1e-12
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
        """The worker count of each pool run_experiment opens; the pools run
        their jobs in this process."""
        sizes = []

        def recording(jobs, workers):
            sizes.append(workers)
            return list(map(harness._run, *zip(*jobs)))

        monkeypatch.setattr(harness, "_forked", recording)
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
                        cfg.power_levels, cfg.max_power)
            return (tmp_path / "q.tsv").read_bytes()

        assert len(pooled.qtable) > 0
        assert saved(pooled.qtable) == saved(serial.qtable)
        assert saved(serial.qtable) == saved(run_episode(cfg, cfg.seed).qtable)

    def test_sweep_covers_each_density(self, make_config):
        cfg = load_experiment(make_config(SHORT), runs=1)
        configs = density_configs(cfg, [1, 2])
        assert [c.ue_density for c in configs] == [1, 2]
        results = [run_experiment([c])[0] for c in configs]
        assert all(len(s.utility) == cfg.max_slots for s in results)
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


class TestForkedPool:
    """run_experiment's pool of forked children, with harness._run replaced
    inside the children."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_runs_come_back_in_run_order(self, make_config, workers):
        cfg = load_experiment(make_config(SHORT), runs=5)
        serial = run_experiment([cfg], keep_runs=True)[0]
        pooled = run_experiment([cfg], workers=workers, keep_runs=True)[0]
        for a, b in zip(serial.per_run, pooled.per_run, strict=True):
            assert np.array_equal(a.utility, b.utility)
        assert np.array_equal(serial.utility, pooled.utility)

    def test_a_killed_child_is_an_error_and_leaves_no_child(self, make_config, monkeypatch):
        cfg = load_experiment(make_config(SHORT), runs=4)
        real = harness._run

        def dying(config, seed):
            if seed == cfg.seed + 1:  # the first run of worker 1
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, seed)

        monkeypatch.setattr(harness, "_run", dying)
        with pytest.raises(RuntimeError, match="^pool worker 1 ended without its results:"
                                               " killed by signal 9$"):
            run_experiment([cfg], workers=2)
        with pytest.raises(ChildProcessError):  # no child, running or zombie
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing,raised", [((1, 2), 1), ((2, 3), 2), ((0, 3), 0)])
    def test_the_lowest_failing_job_raises(self, make_config, monkeypatch, failing, raised):
        """Worker 0 runs jobs 0 and 2 and worker 1 jobs 1 and 3; each stops
        at its first failure."""
        cfg = load_experiment(make_config(SHORT), runs=4)
        real = harness._run

        def failing_run(config, seed):
            if seed - cfg.seed in failing:
                raise SimulationAbort(f"job {seed - cfg.seed}")
            return real(config, seed)

        monkeypatch.setattr(harness, "_run", failing_run)
        with pytest.raises(SimulationAbort, match=f"^job {raised}$"):
            run_experiment([cfg], workers=2)

    def test_children_leave_sigterm_to_the_caller(self, make_config, monkeypatch):
        cfg = load_experiment(make_config(SHORT), runs=2)
        serial = run_experiment([cfg])[0]
        real = harness._run

        def terminated(config, seed):
            os.kill(os.getpid(), signal.SIGTERM)
            return real(config, seed)

        monkeypatch.setattr(harness, "_run", terminated)
        assert np.array_equal(run_experiment([cfg], workers=2)[0].utility, serial.utility)

    def test_a_child_never_returns_into_the_caller(self, make_config, monkeypatch, tmp_path):
        """Worker 0 fails at once while worker 1 holds the call open, so a
        worker 0 that unwound into this test would append its line before
        the call kills it."""
        cfg = load_experiment(make_config(SHORT), runs=2)

        def run(config, seed):
            if seed == cfg.seed:
                raise ValueError("first run")
            time.sleep(0.3)

        monkeypatch.setattr(harness, "_run", run)
        caller = os.getpid()
        log = tmp_path / "log"
        raised = None
        try:
            run_experiment([cfg], workers=2)
        except Exception as exc:  # whatever a child that unwound here raised
            raised = exc
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != caller:  # a child that got here ends here
            os._exit(0)
        assert log.read_text() == f"{caller}\n"
        assert type(raised) is ValueError and str(raised) == "first run"


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
        assert len(lines) == 1 + cfg.max_slots
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        assert parsed.shape == (cfg.max_slots, 5)
        assert parsed[:, 0].tolist() == list(range(cfg.max_slots))
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

    @pytest.mark.parametrize("root,layout,foreign_git_dir,names", [
        # src/vlcudn under the repository root
        pytest.param("repo", "src", False, "root", id="checkout"),
        pytest.param("repo", "venv/lib/site-packages", False, None,
                     id="install-in-another-repo"),
        # no .git anywhere: no process starts
        pytest.param("plain", "src", False, None, id="plain-copy"),
        # a worktree's .git file names the repository
        pytest.param("gitdir-file", "src", False, "other", id="gitdir-file"),
        # GIT_DIR naming another repository, as in a git hook
        pytest.param("repo", "src", True, "root", id="foreign-GIT_DIR"),
    ])
    def test_git_describe_stops_at_the_checkout_root(self, tmp_path, root, layout,
                                                     foreign_git_dir, names):
        def commit(repo, text):
            git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
            subprocess.run(git + ["init", "-q"], check=True)
            (repo / "README").write_text(text)
            subprocess.run(git + ["add", "README"], check=True)
            subprocess.run(git + ["commit", "-q", "-m", text], check=True)
            return subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                                  capture_output=True, text=True).stdout.strip()

        other = tmp_path / "other"
        other.mkdir()
        heads = {"other": commit(other, "other\n"), None: "None"}
        copy = tmp_path / "copy"
        copy.mkdir()
        if root == "repo":
            heads["root"] = commit(copy, "copy\n")
        elif root == "gitdir-file":
            (copy / ".git").write_text("gitdir: %s\n" % (other / ".git"))
            (copy / "README").write_text("other\n")
        site = copy / layout
        shutil.copytree(REPO_ROOT / "src" / "vlcudn", site / "vlcudn",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shim = tmp_path / "bin" / "git"
        shim.parent.mkdir()
        calls = tmp_path / "git-calls"
        shim.write_text('#!/bin/sh\necho "$@" >> %s\nexec %s "$@"\n'
                        % (calls, shutil.which("git")))
        shim.chmod(0o755)
        env = dict(os.environ, PYTHONPATH=str(site),
                   PATH=os.pathsep.join([str(shim.parent), os.environ["PATH"]]))
        if foreign_git_dir:
            env["GIT_DIR"] = str(other / ".git")
        proc = subprocess.run(
            [sys.executable, "-c", "from vlcudn.harness import _git_describe as d; print(d())"],
            cwd=tmp_path, env=env, check=True, capture_output=True, text=True)
        assert proc.stdout.strip() == heads[names]
        ran = calls.read_text().splitlines() if calls.exists() else []
        assert ran == (["describe --always --dirty"] if names else [])

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
DIGEST_NUMPY = "2.4.6"  # the numpy version the GOLDEN digests were taken with
GOLDEN = {
    "rpic": ("rpic", 3, {},
             "df55a507122a2cc47f510a5895cb4ec432445b4d879afb03ee5c5975ffe125c9",
             "b578d8101f038731016c5677e316c18e12fd64aa8aeb0ab0460f4d4fa2f090c0"),
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
                    "60a2faa865a6b5829b5fcba5ea2320827ab04e73fc99e32326e2ca5a08360bbd",
                    "fbda7669b1ff8231c5401e896194bd9cdbb73dc1c86d97586746824f1c5d8ce8"),
    # 12 and 11 bins: key-string order differs from state-index order
    "rpic-bins12": ("rpic", 3, {"agent.rate_bins": 12, "agent.gain_bins": 11},
                    "80f96008cf057494c4a685801c2499c16c8f6318b068073ac3c152a5c07ec496",
                    "417d962dab6f88dd8c2af35390fab5e947d271885f07a57d47f16971b8d38c8a"),
    "rpic-squared": ("rpic", 3, SQUARED,
                     "bcaedae9a0f24cb3519de7790916e1f94ddf1db39de76e2221e894d7d5b4ea08",
                     "3de254fdff0717789ea5c23000607600ad3ea015e451f23f388a0fab44ec9964"),
    "greedy-squared": ("greedy_myopic", 3, {**SQUARED, "utility.energy_weight_per_mw": "1e-4",
                                            "utility.interference_weight_per_mw": "0"},
                       "dfe655a35b1f15ede23c6c6f150bd32e456c05340dd1e9a165ce5e1b285ea239",
                       None),
    # an even grid: four APs tie for the center and the lowest index, 5,
    # wins; its seven two_block neighbours walk in index order.  2 x 3
    # four_block: APs 1 and 4 tie, and AP 1 has no co-channel neighbour.
    "rpic-4x4-two-block": ("rpic", 3, {"topology.rows": 4, "topology.cols": 4,
                                       "topology.reuse_mode": "two_block"},
                           "f8d9ef566936c66b7ff1e72834fa29812bbf282a684a3ca4642e4d58044484af",
                           "bcc216e4ff186aadb01c8789cfc4ca7265323678743a2c26ce5207fbb090157c"),
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
    taken with numpy DIGEST_NUMPY on x86-64; a numpy or libm whose float
    results differ in the last bit, or whose Generator streams moved
    (NEP 19), changes them too.
    """
    cfg = load_experiment(make_config({
        "experiment.policy": policy, "experiment.ue_density": density, **overrides,
    }))
    save_experiment(tmp_path, cfg, run_experiment([cfg])[0])

    def digest(name):
        path = tmp_path / name
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None

    assert (digest("metrics.csv"), digest("qtable.tsv")) == (csv_sha256, qtable_sha256), (
        f"digests taken with numpy {DIGEST_NUMPY}; this run has numpy {np.__version__}")
