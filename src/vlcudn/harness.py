"""Episode loop, Monte-Carlo batching, baselines, and result writers.

One episode simulates the central AP serving N mobile UEs for max_slots
slots while co-channel neighbor APs transmit a fixed power to their own
users.  Trajectories and all channel gains are action-independent, and a
UE's rate depends only on its own power level, so the episode first
precomputes the paths, the gains and the rate of every (slot, UE, power
level) in one table.  Each policy then picks a level per slot and UE:
the fixed ones a constant, greedy_myopic each UE's best level from the
table, random one batch of draws.  Only the learner keeps a slot loop,
in this order: form the state from the previous slot's rates plus the
current gains, pick an action, read its rates from the table and compute
the utility, apply the learning update.  One batched pass then records
every policy's per-slot utility, mean rate, energy and leakage.

Each run derives two independent random streams from its seed, one for
movement and one for the agent, and run i of an experiment uses seed
base_seed + i.  Averaging across runs is an ordered reduction over the
run index, so serial and process-parallel execution give byte-identical
outputs.  run_experiment runs every run of every config it is given
through one process pool.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import add

import numpy as np

from . import __version__, kernels
from .agent import (
    QTable,
    enumerate_actions,
    epsilon_at,
    quantize_state,
    select_action,
    update_q,
    warmup_policy,
)
from .config import ConfigError, ExperimentConfig
from .mobility import simulate_paths
from .topology import episode_cells

CSV_HEADER = "slot,utility,mean_rate_bps,energy_w,ici_w"
METRICS = ("utility", "mean_rate_bps", "energy_w", "ici_w")


class SimulationAbort(RuntimeError):
    """A metric came out non-finite; the run is unusable and stops."""


@dataclass
class Series:
    """Per-slot metrics of one episode, or their mean over an experiment's
    runs; qtable is the (first) run's learned table, per_run the runs when
    kept."""

    utility: np.ndarray
    mean_rate_bps: np.ndarray
    energy_w: np.ndarray
    ici_w: np.ndarray
    qtable: QTable | None = None
    per_run: list[Series] | None = None


def _left_sum(terms):
    """((t0 + t1) + t2) + ...: the one order in which per-UE rates and powers
    are summed, on floats in the learner's loop and on per-slot columns in
    _score.  numpy's add-reduce gives the same bits for fewer than 8 terms."""
    return reduce(add, terms)


def _score(rate_tab, levels, choice, outgoing, prices, seed: int):
    """Utility, mean rate, energy and leakage of the level indices choice[k, n]
    of slots 0..len(choice)-1, one array each; stops at a non-finite utility."""
    n = choice.shape[1]
    slots = np.arange(choice.shape[0])
    rate_sum = _left_sum([rate_tab[slots, i, choice[:, i]] for i in range(n)])
    total_w = _left_sum([levels[choice[:, i]] for i in range(n)])
    u, ici = kernels.utility(rate_sum, n, total_w, outgoing[: len(choice)], *prices)
    mean_rate = rate_sum / n
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        k = bad[0]
        raise SimulationAbort(
            f"non-finite utility at slot {k} (seed {seed}): mean_rate={float(mean_rate[k])!r}"
            f" energy={float(total_w[k])!r} ici={float(ici[k])!r}"
        )
    return u, mean_rate, total_w, ici


def run_episode(config: ExperimentConfig, seed: int) -> Series:
    """One learning episode with its own seed; returns per-slot metrics."""
    n = config.ue_density
    agent_cfg = config.agent
    n_slots = agent_cfg.max_slots
    eta = config.responsivity
    squared = config.squared_electrical_power
    # utility()'s arguments after the summed powers and the cross-gain
    prices = (eta, config.energy_weight, config.interference_weight)
    (cx, cy), *neighbors = episode_cells(config)
    wn = config.per_ue_bandwidth()
    levels = enumerate_actions(agent_cfg.power_levels, agent_cfg.max_power)
    m_order = kernels.lambertian_order(config.semi_angle_half_intensity)
    coef = (m_order + 1.0) * config.detector_area / (2.0 * math.pi)
    cos_fov = math.cos(config.fov_rad)
    dz = config.ap_height - config.ue_height
    half = config.spacing / 2.0

    mob_ss, agent_ss = np.random.SeedSequence(seed).spawn(2)
    mob_rng = np.random.default_rng(mob_ss)
    agent_rng = np.random.default_rng(agent_ss)

    def walk(count: int, x: float, y: float) -> np.ndarray:
        """Paths of count UEs in the square cell of the AP at x, y."""
        return simulate_paths(count, (x - half, x + half, y - half, y + half), config.v_min,
                              config.v_max, config.slot_duration, n_slots, mob_rng)

    def gain_grid(x: float, y: float, paths: np.ndarray) -> np.ndarray:
        """Gains from the AP at x, y to a (n_slots, n_ues, 2) position array."""
        dx = paths[:, :, 0] - x
        dy = paths[:, :, 1] - y
        flat = kernels.lambertian_gains(dx.ravel(), dy.ravel(), dz, m_order, coef, cos_fov)
        return flat.reshape(paths.shape[:2])

    # Trajectories: local UEs first, then each neighbor's UEs in index order.
    local_paths = walk(n, cx, cy)
    serving = gain_grid(cx, cy, local_paths)  # (K, N)

    # Total cross-gain toward foreign UEs per slot; each neighbor's paths
    # are dropped once summed.
    n_foreign = config.n_neighbor_ues()
    outgoing = np.zeros(n_slots)
    for x, y in neighbors if n_foreign else ():
        outgoing += gain_grid(cx, cy, walk(n_foreign, x, y)).sum(axis=1)

    # Incoming interference per slot and UE, already in denominator form.
    incoming = np.zeros((n_slots, n))
    for x, y in neighbors:
        term = eta * config.neighbor_power * gain_grid(x, y, local_paths)
        incoming += term * term if squared else term

    rate_tab = kernels.level_rates(
        levels, serving, incoming, wn, config.noise_psd, eta, squared
    )  # (K, N, L+1)
    qtable = None
    if config.policy == "fixed_max":
        choice = np.full((n_slots, n), levels.size - 1)
    elif config.policy == "fixed_half":
        choice = np.full((n_slots, n), np.argmin(np.abs(levels - agent_cfg.max_power / 2.0)))
    elif config.policy == "greedy_myopic":
        # A UE at zero power adds zero rate, energy and leakage, and no term
        # couples two UEs, so the joint argmax is each UE's own argmax with
        # the others off.  np.argmax keeps each UE's lowest level among exact
        # ties, as the lowest flat index of the joint scan does.
        per_ue = kernels.utility(rate_tab, n, levels, outgoing[:, None, None], *prices)[0]
        choice = per_ue.argmax(axis=2)
    else:
        if config.policy == "random":
            picks = agent_rng.integers(levels.size ** n, size=n_slots)
        else:
            qtable = QTable(levels.size ** n)
            picks = _learn(config, levels, rate_tab, serving, outgoing, prices, qtable,
                           agent_rng)
        choice = np.stack(np.unravel_index(picks, (levels.size,) * n), axis=1)

    return Series(*_score(rate_tab, levels, choice, outgoing, prices, seed), qtable)


def _learn(config, levels, rate_tab, serving, outgoing, prices, qtable, rng):
    """The rpic slot loop: fills qtable and returns each slot's action.

    Python floats throughout: the chosen rates come from one slot's row of
    the rate table, and the utility from the same kernel, operations and
    summation order as _score, so the learner sees the recorded utility.
    A non-finite utility ends the loop early, and _score stops the run at
    that slot.
    """
    agent_cfg = config.agent
    alpha, beta = agent_cfg.learning_rate, agent_cfg.discount
    decay = (agent_cfg.epsilon_start, agent_cfg.epsilon_end, agent_cfg.epsilon_decay_slots)
    quant = config.state_grid()
    n = config.ue_density
    n_levels = levels.size
    level_w = levels.tolist()
    places = [n_levels ** (n - 1 - i) for i in range(n)]  # first UE most significant
    gains = serving.tolist()
    cross = outgoing.tolist()
    pool: list[tuple[int, int, float, int]] = []  # (state, action, utility, next state)
    picks = []
    rates = [0.0] * n
    last = None  # the previous slot's (state, action, utility)
    for k in range(agent_cfg.max_slots):
        state = quantize_state(rates, gains[k], quant)
        action = warmup_policy(k, agent_cfg.warmup_slots, qtable.n_actions, rng)
        if action is None:
            action = select_action(qtable, state, epsilon_at(k, *decay), rng)
        picks.append(action)
        digits = [action // p % n_levels for p in places]
        rates = [row[d] for row, d in zip(rate_tab[k].tolist(), digits)]
        total_w = _left_sum([level_w[d] for d in digits])
        u = kernels.utility(_left_sum(rates), n, total_w, cross[k], *prices)[0]
        if not math.isfinite(u):
            break
        if last is not None:
            step = (*last, state)
            update_q(qtable, *step, alpha, beta)
            if config.replay:
                pool.append(step)
                for _ in range(config.replay_batch):
                    update_q(qtable, *pool[int(rng.integers(len(pool)))], alpha, beta)
        last = (state, action, u)
    return picks


def run_experiment(configs: list[ExperimentConfig], workers: int = 1,
                   keep_runs: bool = False) -> list[Series]:
    """One Series per config: the mean of its config.runs episodes, seeded
    seed, seed+1, ...  Every run of every config goes through one pool of
    up to `workers` processes; 1 runs serially."""
    jobs = [(config, seed) for config in configs
            for seed in range(config.seed, config.seed + config.runs)]
    workers = min(workers, len(jobs))  # the pool starts all its processes up front
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # Both maps yield in job order, so each config's runs arrive in run order.
        episodes = (pool.map if pool else map)(_run, *zip(*jobs))
        return [_mean(list(islice(episodes, config.runs)), keep_runs) for config in configs]


def _run(config: ExperimentConfig, seed: int) -> Series:
    """run_episode without the Q-table of any run after the first: only the
    first run's table is written, and a pooled run would ship it back."""
    episode = run_episode(config, seed)
    if seed != config.seed:
        episode.qtable = None
    return episode


def _mean(episodes: list[Series], keep_runs: bool) -> Series:
    return Series(
        *(np.mean(np.stack([getattr(e, name) for e in episodes]), axis=0) for name in METRICS),
        qtable=episodes[0].qtable,
        per_run=episodes if keep_runs else None,
    )


def density_configs(config: ExperimentConfig, densities) -> list[ExperimentConfig]:
    """One config per density, everything else held fixed, all checked
    before any of them runs."""
    densities = list(densities)
    if not densities:
        raise ConfigError("densities must be non-empty")
    if len(set(densities)) != len(densities):
        raise ConfigError(f"densities must be distinct, got {densities}")
    return [dataclasses.replace(config, ue_density=int(d)) for d in densities]


def converged_means(series: Series) -> dict:
    """Means of each metric over the last 500 slots, or all of them if fewer."""
    return {name: float(getattr(series, name)[-500:].mean()) for name in METRICS}


def write_series_csv(path, series) -> None:
    """Fixed-format CSV; %.12g keeps identical inputs byte-identical."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for k in range(len(series.utility)):
            fh.write(
                "%d,%.12g,%.12g,%.12g,%.12g\n"
                % (k, series.utility[k], series.mean_rate_bps[k], series.energy_w[k], series.ici_w[k])
            )


def _git_describe() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def write_metadata(path, config: ExperimentConfig, series: Series) -> None:
    meta = {
        "config": config.resolved(),
        "config_sha256": config.fingerprint(),
        "policy": config.policy,
        "ue_density": config.ue_density,
        "runs": config.runs,
        "seed": config.seed,
        "package_version": __version__,
        "git_describe": _git_describe(),
        "frame_definition": "1 frame = 1 slot",
        "converged_last_500": converged_means(series),
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_experiment(out_dir, config: ExperimentConfig, series: Series) -> list[str]:
    """Write metrics.csv, the metadata sidecar, per-run CSVs when kept,
    and the learned Q-table for the first run of an RPIC experiment.
    A qtable.tsv or runNNNN.csv that an earlier save left in out_dir and
    this one did not write is removed, so every file there is from this
    experiment."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    csv_path = os.path.join(out_dir, "metrics.csv")
    write_series_csv(csv_path, series)
    written.append(csv_path)
    meta_path = os.path.join(out_dir, "metrics.meta.json")
    write_metadata(meta_path, config, series)
    written.append(meta_path)
    if series.per_run:
        for i, episode in enumerate(series.per_run):
            run_path = os.path.join(out_dir, "run%04d.csv" % i)
            write_series_csv(run_path, episode)
            written.append(run_path)
    if series.qtable is not None:
        q_path = os.path.join(out_dir, "qtable.tsv")
        series.qtable.save(q_path, config.state_grid(), config.ue_density,
                           config.agent.power_levels, config.agent.max_power)
        written.append(q_path)
    names = {os.path.basename(path) for path in written}
    for name in os.listdir(out_dir):
        if re.fullmatch(r"qtable\.tsv|run[0-9]{4}\.csv", name) and name not in names:
            os.remove(os.path.join(out_dir, name))
    return written
