"""Episode loop, Monte-Carlo batching, baselines, and result writers.

One episode simulates the central AP serving N mobile UEs for max_slots
slots while co-channel neighbor APs transmit a fixed power to their own
users.  Per slot the order is: move UEs, take the channel snapshot, form
the state from the previous slot's rates plus the current gains, pick an
action, compute rates/energy/leakage/utility, apply the learning update,
record.  Trajectories and all channel gains are action-independent, so
they are precomputed for the whole episode up front and the loop only
does selection, metric arithmetic and table updates.

Each run derives two independent random streams from its seed, one for
movement and one for the agent, and run i of an experiment uses seed
base_seed + i.  Averaging across runs is an ordered reduction over the
run index, so serial and process-parallel execution give byte-identical
outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import __version__, kernels
from .agent import (
    ActionSet,
    Experience,
    QTable,
    StateQuantizer,
    enumerate_actions,
    epsilon_at,
    quantize_state,
    select_action,
    update_q,
    warmup_policy,
)
from .channel import Pos3, channel_gain
from .config import ConfigError, ExperimentConfig, _validate
from .metrics import per_ue_bandwidth
from .mobility import MobilityConfig, simulate_paths
from .topology import Topology, cell_bounds, central_ap, co_channel_neighbors, make_grid

CSV_HEADER = "slot,utility,mean_rate_bps,energy_w,ici_w"


class SimulationAbort(RuntimeError):
    """A metric came out non-finite; the run is unusable and stops."""


@dataclass
class EpisodeResult:
    utility: np.ndarray
    mean_rate_bps: np.ndarray
    energy_w: np.ndarray
    ici_w: np.ndarray
    qtable: QTable | None
    quant: StateQuantizer
    trace: list | None = None


@dataclass
class RunSeries:
    """Per-slot metrics averaged over all runs of one experiment."""

    utility: np.ndarray
    mean_rate_bps: np.ndarray
    energy_w: np.ndarray
    ici_w: np.ndarray
    runs: int
    seed: int
    qtable: QTable | None
    quant: StateQuantizer
    per_run: list[EpisodeResult] | None = None


@dataclass
class _EpisodeSetup:
    topo: Topology
    central: int
    neighbors: np.ndarray
    wn: float
    quant: StateQuantizer
    actions: ActionSet
    m_order: float
    coef: float
    cos_fov: float
    dz: float


def _prepare(config: ExperimentConfig, density: int) -> _EpisodeSetup:
    topo = make_grid(config.rows, config.cols, config.spacing, config.ap_height)
    central = central_ap(topo)
    neighbors = co_channel_neighbors(
        topo, central, config.reuse_mode, config.channel.fov_rad, config.ue_height
    )
    wn = per_ue_bandwidth(config.link, density)
    gain_max = channel_gain(
        Pos3(0.0, 0.0, config.ap_height), Pos3(0.0, 0.0, config.ue_height), config.channel
    )
    quant = StateQuantizer(
        rate_bins=config.rate_bins,
        gain_bins=config.gain_bins,
        rate_max=wn * math.log2(1.0 + config.sinr_cap),
        gain_max=gain_max,
    )
    actions = enumerate_actions(
        config.agent.power_levels, config.agent.max_power, density, cap=config.action_cap
    )
    m_order = config.channel.lambertian_order
    coef = (m_order + 1.0) * config.channel.detector_area / (2.0 * math.pi)
    return _EpisodeSetup(
        topo=topo,
        central=central,
        neighbors=neighbors,
        wn=wn,
        quant=quant,
        actions=actions,
        m_order=m_order,
        coef=coef,
        cos_fov=math.cos(config.channel.fov_rad),
        dz=config.ap_height - config.ue_height,
    )


def _gain_grid(setup: _EpisodeSetup, ap_xy, paths: np.ndarray) -> np.ndarray:
    """Gains from one AP to a (n_slots, n_ues, 2) position array."""
    dx = paths[:, :, 0] - ap_xy[0]
    dy = paths[:, :, 1] - ap_xy[1]
    flat = kernels.lambertian_gains(
        dx.ravel(), dy.ravel(), setup.dz, setup.m_order, setup.coef, setup.cos_fov
    )
    return flat.reshape(paths.shape[0], paths.shape[1])


def _mobility_config(config: ExperimentConfig, bounds) -> MobilityConfig:
    return MobilityConfig(
        v_min=config.v_min,
        v_max=config.v_max,
        slot_duration=config.slot_duration,
        ue_height=config.ue_height,
        bounds=bounds,
    )


def run_episode(config: ExperimentConfig, seed: int, record_trace: bool = False) -> EpisodeResult:
    """One learning episode with its own seed; returns per-slot metrics."""
    n = config.ue_density
    setup = _prepare(config, n)
    agent_cfg = config.agent
    n_slots = agent_cfg.max_slots
    eta = config.channel.responsivity
    squared = config.squared_electrical_power
    ce = config.weights.energy_weight
    ci = config.weights.interference_weight
    noise = config.link.noise_psd
    wn = setup.wn

    mob_ss, agent_ss = np.random.SeedSequence(seed).spawn(2)
    mob_rng = np.random.default_rng(mob_ss)
    agent_rng = np.random.default_rng(agent_ss)

    # Trajectories: local UEs first, then each neighbor's UEs in index order.
    local_paths = simulate_paths(
        n, _mobility_config(config, cell_bounds(setup.topo, setup.central)), n_slots, mob_rng
    )
    n_foreign = config.n_neighbor_ues()
    foreign_paths = []
    for j in setup.neighbors:
        if n_foreign == 0:
            continue
        foreign_paths.append(
            simulate_paths(
                n_foreign, _mobility_config(config, cell_bounds(setup.topo, int(j))), n_slots, mob_rng
            )
        )

    central_xy = setup.topo.positions[setup.central, :2]
    serving = _gain_grid(setup, central_xy, local_paths)  # (K, N)

    # Incoming interference per slot and UE, already in denominator form.
    incoming = np.zeros((n_slots, n))
    for j in setup.neighbors:
        gains_j = _gain_grid(setup, setup.topo.positions[int(j), :2], local_paths)
        term = eta * config.neighbor_power * gains_j
        incoming += term * term if squared else term

    # Total cross-gain toward foreign UEs per slot.
    outgoing = np.zeros(n_slots)
    for paths_j in foreign_paths:
        outgoing += _gain_grid(setup, central_xy, paths_j).sum(axis=1)

    actions = setup.actions
    policy = config.policy
    fixed_action: int | None = None
    if policy == "fixed_max":
        fixed_action = actions.n_actions - 1
    elif policy == "fixed_half":
        half_level = int(np.argmin(np.abs(actions.levels - agent_cfg.max_power / 2.0)))
        fixed_action = actions.index_of([half_level] * n)

    qtable = QTable(actions.n_actions) if policy == "rpic" else None
    pool: list[Experience] = []
    prev_rates = np.zeros(n)
    prev_state = None
    prev_action = -1
    prev_utility = 0.0

    utility = np.empty(n_slots)
    mean_rate = np.empty(n_slots)
    energy = np.empty(n_slots)
    ici = np.empty(n_slots)
    trace = [] if record_trace else None

    for k in range(n_slots):
        gains_k = serving[k]
        incoming_k = incoming[k]
        outgoing_k = outgoing[k]

        state = None
        action = fixed_action
        if policy == "rpic":
            state = quantize_state(prev_rates, gains_k, n, setup.quant)
            action = warmup_policy(k, agent_cfg, actions, agent_rng)
            if action is None:
                action = select_action(
                    qtable, state, actions, epsilon_at(k, agent_cfg), agent_rng
                )
        elif policy == "random":
            action = int(agent_rng.integers(actions.n_actions))

        # Only greedy_myopic reaches here without an action: it scores every
        # action and takes the argmax.  The others score their one-row slice.
        scored = actions.powers if action is None else actions.powers[action:action + 1]
        utilities, rates_a, power_a, chi_a = kernels.action_utilities(
            scored, gains_k, incoming_k, wn, noise, eta, squared, outgoing_k, ce, ci
        )
        row = 0
        if action is None:
            action = row = int(np.argmax(utilities))
        rates = rates_a[row]
        total_power = float(power_a[row])
        chi = float(chi_a[row])
        u = float(utilities[row])
        if not math.isfinite(u):
            raise SimulationAbort(
                f"non-finite utility at slot {k} (seed {seed}): "
                f"mean_rate={float(rates.mean())!r} energy={total_power!r} ici={chi!r}"
            )

        if policy == "rpic":
            if k > 0:
                exp = Experience(prev_state, prev_action, prev_utility, state)
                update_q(qtable, exp, agent_cfg.learning_rate, agent_cfg.discount)
                if config.replay:
                    pool.append(exp)
                    for _ in range(config.replay_batch):
                        sample = pool[int(agent_rng.integers(len(pool)))]
                        update_q(qtable, sample, agent_cfg.learning_rate, agent_cfg.discount)
            prev_state, prev_action, prev_utility = state, action, u

        if record_trace:
            trace.append(
                {
                    "slot": k,
                    "prev_rates": prev_rates.copy(),
                    "serving_gains": gains_k.copy(),
                    "state": state,
                    "action": action,
                    "powers": actions.powers[action].copy(),
                    "rates": rates.copy(),
                    "utility": u,
                }
            )

        prev_rates = rates
        utility[k] = u
        mean_rate[k] = rates.mean()
        energy[k] = total_power
        ici[k] = chi

    return EpisodeResult(
        utility=utility,
        mean_rate_bps=mean_rate,
        energy_w=energy,
        ici_w=ici,
        qtable=qtable,
        quant=setup.quant,
        trace=trace,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1, keep_runs: bool = False) -> RunSeries:
    """Average config.runs episodes, seeded seed, seed+1, ..."""
    seeds = range(config.seed, config.seed + config.runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            episodes = list(pool.map(run_episode, repeat(config), seeds))
    else:
        episodes = [run_episode(config, s) for s in seeds]
    return RunSeries(
        utility=np.mean(np.stack([e.utility for e in episodes]), axis=0),
        mean_rate_bps=np.mean(np.stack([e.mean_rate_bps for e in episodes]), axis=0),
        energy_w=np.mean(np.stack([e.energy_w for e in episodes]), axis=0),
        ici_w=np.mean(np.stack([e.ici_w for e in episodes]), axis=0),
        runs=config.runs,
        seed=config.seed,
        qtable=episodes[0].qtable,
        quant=episodes[0].quant,
        per_run=episodes if keep_runs else None,
    )


def sweep_density(config: ExperimentConfig, densities, workers: int = 1) -> list[RunSeries]:
    """One experiment per density, everything else held fixed."""
    densities = list(densities)
    if not densities:
        raise ConfigError("densities must be non-empty")
    configs = [dataclasses.replace(config, ue_density=int(d)) for d in densities]
    for config_d in configs:
        _validate(config_d)
    return [run_experiment(config_d, workers=workers) for config_d in configs]


def converged_means(series, window: int = 500) -> dict:
    """Means of each metric over the last `window` slots."""
    window = min(window, len(series.utility))
    return {
        "utility": float(series.utility[-window:].mean()),
        "mean_rate_bps": float(series.mean_rate_bps[-window:].mean()),
        "energy_w": float(series.energy_w[-window:].mean()),
        "ici_w": float(series.ici_w[-window:].mean()),
    }


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


def write_metadata(path, config: ExperimentConfig, series: RunSeries) -> None:
    meta = {
        "config": config.resolved(),
        "config_sha256": config.fingerprint(),
        "policy": config.policy,
        "ue_density": config.ue_density,
        "runs": series.runs,
        "seed": series.seed,
        "package_version": __version__,
        "git_describe": _git_describe(),
        "frame_definition": "1 frame = 1 slot",
        "converged_last_500": converged_means(series),
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_experiment(out_dir, config: ExperimentConfig, series: RunSeries) -> list[str]:
    """Write metrics.csv, the metadata sidecar, per-run CSVs when kept,
    and the learned Q-table for the first run of an RPIC experiment."""
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
        series.qtable.save(
            q_path,
            series.quant,
            extra={
                "power_levels": config.agent.power_levels,
                "max_power": config.agent.max_power,
            },
        )
        written.append(q_path)
    return written
