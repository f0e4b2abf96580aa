"""Episode loop, Monte-Carlo batching, baselines, and result writers.

One episode simulates the central AP serving N mobile UEs for max_slots
slots while co-channel neighbor APs transmit a fixed power to their own
users.  Trajectories and all channel gains are action-independent, and a
UE's rate depends only on its own power level, so the episode first
precomputes the paths of every cell's UEs in one walk, the gains, and
the rate of every (slot, UE, power level) in one table; the paths are
dropped once the gains are summed.  Each policy then picks a level per
slot and UE: the fixed ones a constant, greedy_myopic each UE's best
level from the table, random one batch of draws.  Only the learner keeps
a slot loop.  Before it, numpy bins every rate of the table and turns
every slot's gains into that slot's gain part of the state index.  Then,
per slot and in this order: form the state from the previous action's
rate bins of the previous slot plus the current gain part, look up its
Q-row (made at the state's first lookup), pick an action, read its rates
and compute the utility, apply the previous slot's learning update.  One
batched pass then records each slot's utility, mean rate, energy and leakage.

Each run derives two independent random streams from its seed, one for
movement and one for the agent, and run i of an experiment uses seed
base_seed + i.  The learner reads the agent stream in a fixed layout,
part of what a seed means: rng.random(n_slots) for the explore coins,
then rng.random(n_slots) for the picks.  Slot k explores when its coin
is below its epsilon, and its pick u takes the int(u * m)-th action of a
pool of m: of every action in warm-up, else of QRow.select's pool.
With replay, slot k >= 1 then replays, for each v of one
rng.random(replay_batch), the int(v * k)-th of the k updates made so
far.  Averaging across runs is an ordered reduction over the run index,
so serial and process-parallel execution give byte-identical outputs.
run_experiment runs every run of every config it is given through one
pool of forked children: each takes a fixed stride of the runs, runs it
in order and sends its results back once, on its own pipe, when it
finishes.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
import signal
import subprocess
from dataclasses import dataclass
from functools import cache, reduce
from itertools import islice
from operator import add

import numpy as np

from . import __version__, kernels
from .agent import QRow, QTable, bin_values, enumerate_actions, epsilon_at, quantize_state
from .config import ExperimentConfig
from .mobility import simulate_paths
from .topology import episode_cells

_STOPS = {signal.SIGTERM, signal.SIGINT}  # held while pool children are forked or reaped
CSV_HEADER = "slot,utility,mean_rate_bps,energy_w,ici_w"
METRICS = ("utility", "mean_rate_bps", "energy_w", "ici_w")
# Every file name save_experiment writes, or removes when an earlier save left it.
_RESULTS = re.compile(r"metrics\.csv|metrics\.meta\.json|qtable\.tsv|run[0-9]{4,}\.csv")


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
    are summed, on an action's powers in the learner and on per-slot columns
    in _score.  numpy's add-reduce gives the same bits for fewer than 8
    terms.  The learner's slot loop adds an action's rates one at a time in
    this order onto -0.0, which is the identity of IEEE addition (-0.0 + t0
    is t0, bit for bit), so it needs no list per slot."""
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
    n_slots = config.max_slots
    eta = config.responsivity
    squared = config.squared_electrical_power
    # utility()'s arguments after the summed powers and the cross-gain
    prices = (eta, config.energy_weight, config.interference_weight)
    (cx, cy), *neighbors = episode_cells(config)
    wn = config.per_ue_bandwidth()
    levels = enumerate_actions(config.power_levels, config.max_power)
    gain_args = (config.ap_height - config.ue_height, config.semi_angle_half_intensity,
                 config.detector_area, config.fov_angle)
    half = config.spacing / 2.0

    mob_ss, agent_ss = np.random.SeedSequence(seed).spawn(2)
    mob_rng = np.random.default_rng(mob_ss)
    agent_rng = np.random.default_rng(agent_ss)

    def gain_grid(x: float, y: float, planes: np.ndarray) -> np.ndarray:
        """Gains from the AP at x, y to the UEs of a (2, n_ues, n_slots)
        slice of the position planes, as (n_ues, n_slots)."""
        dx = planes[0] - x
        dy = planes[1] - y
        return kernels.lambertian_gains(dx.ravel(), dy.ravel(), *gain_args).reshape(dx.shape)

    def cell(x: float, y: float) -> tuple[float, float, float, float]:
        """Bounds of the square cell of the AP at x, y."""
        return (x - half, x + half, y - half, y + half)

    # Trajectories in one walk: the local UEs first, then each neighbor's
    # UEs in index order.
    n_foreign = config.n_neighbor_ues()
    groups = [(n, cell(cx, cy))] + [(n_foreign, cell(x, y)) for x, y in neighbors]
    # The x and y planes of the walk, each UE's slots side by side.
    planes = simulate_paths(groups, config.v_min, config.v_max, config.slot_duration, n_slots,
                            mob_rng).T
    local = planes[:, :n]
    serving = np.ascontiguousarray(gain_grid(cx, cy, local).T)  # (K, N)

    # Per slot the cross-gain toward all foreign UEs, and per slot and UE
    # the incoming interference in denominator form.  The cross-gains are
    # summed per slot as the rows of a C-contiguous (K, N_foreign) array,
    # whose bits numpy's pairwise summation sets from 8 terms on.
    outgoing = np.zeros(n_slots)
    incoming = np.zeros((n_slots, n))
    for g, (x, y) in enumerate(neighbors):
        if n_foreign:
            first = n + g * n_foreign
            cross = gain_grid(cx, cy, planes[:, first:first + n_foreign])
            outgoing += np.ascontiguousarray(cross.T).sum(axis=1)
        term = eta * config.neighbor_power * gain_grid(x, y, local)
        incoming += (term * term if squared else term).T
    del planes, local

    rate_tab = kernels.level_rates(
        levels, serving, incoming, wn, config.noise_psd, eta, squared
    )  # (K, N, L+1)
    qtable = None
    if config.policy == "fixed_max":
        choice = np.full((n_slots, n), levels.size - 1)
    elif config.policy == "fixed_half":
        choice = np.full((n_slots, n), np.argmin(np.abs(levels - config.max_power / 2.0)))
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

    Everything that does not depend on the chosen action is done once
    before the loop: in numpy, the bin of every rate in the table, each
    slot's gain part of the state index (quantize_state on the gains
    alone), and every slot's coin, pick and epsilon.  The loop reads the
    rates and bins as Python scalars through flat memoryviews.  Per slot
    the state is the previous action's rate bins in the previous slot, one
    Horner sum on Python ints, times gain_bins**N, plus this slot's gain
    part.  An action's columns (its offsets in a slot's stretch of the flat
    tables) and total power are worked out when it is first chosen; one
    pass over the columns then gives the slot's rate sum, in _left_sum's
    order, and its rate bins' Horner sum.  The utility comes from the same
    kernel, operations and summation order as _score, so the learner sees
    the recorded utility.  A slot picks through its state's row, looked up
    once as qtable[state]; its update is made in the next slot with that
    slot's row's top as next_top, and a replayed one reads the top of the
    next row it was pooled with.  A non-finite utility ends the loop early,
    and _score stops the run.
    """
    alpha, beta = config.learning_rate, config.discount
    warmup_slots, replay, replay_batch = config.warmup_slots, config.replay, config.replay_batch
    quant = config.state_grid()
    n = config.ue_density
    n_levels = levels.size
    n_actions = qtable.n_actions
    level_w = levels.tolist()
    places = [n_levels ** (n - 1 - i) for i in range(n)]  # first UE most significant
    rate_radix = quant.rate_bins
    gain_radix = quant.gain_bins ** n
    # Flat views of the (slot, UE, level) tables that read Python scalars:
    # slot k's entry for UE i at level d is at k * width + i * (L+1) + d.
    n_slots = len(rate_tab)
    width = n * n_levels
    rates = memoryview(rate_tab.reshape(-1))
    rate_bins = memoryview(bin_values(rate_tab, quant.rate_bins, quant.rate_max).reshape(-1))
    gain_keys = quantize_state(serving, quant)
    coins, draws = rng.random((2, n_slots))  # the coins, then the picks
    explore = (coins < epsilon_at(np.arange(n_slots), config.epsilon_start, config.epsilon_end,
                                  config.epsilon_decay_slots)).tolist()
    draws = draws.tolist()
    cross = outgoing.tolist()
    eta, energy_weight, ici_weight = prices
    columns: dict[int, tuple[list[int], float]] = {}  # action -> (its columns, its total power)
    pool: list[tuple[QRow, int, float, QRow]] = []  # (row, action, utility, next row)
    picks = []
    rate_key = 0  # the first slot sees zero rates, all in bin 0
    base = 0  # k * width
    for k in range(n_slots):
        state = rate_key * gain_radix + gain_keys[k]
        row = qtable[state]
        action = (int(draws[k] * n_actions) if k < warmup_slots
                  else row.select(explore[k], draws[k]))
        picks.append(action)
        known = columns.get(action)
        if known is None:
            digits = [action // p % n_levels for p in places]
            known = columns[action] = ([i * n_levels + d for i, d in enumerate(digits)],
                                       _left_sum([level_w[d] for d in digits]))
        cols, total_w = known
        rate_sum = -0.0  # the sum's identity: -0.0 + t0 is t0, bit for bit
        rate_key = 0
        for c in cols:
            rate_sum += rates[base + c]
            rate_key = rate_key * rate_radix + rate_bins[base + c]
        base += width
        u = kernels.utility(rate_sum, n, total_w, cross[k], eta, energy_weight, ici_weight)[0]
        if not math.isfinite(u):
            break
        if k:
            last_row.update(last_action, last_u, row.top, alpha, beta)
            if replay:
                pool.append((last_row, last_action, last_u, row))
                for v in rng.random(replay_batch).tolist():
                    past, past_action, past_u, past_next = pool[int(v * len(pool))]
                    past.update(past_action, past_u, past_next.top, alpha, beta)
        last_action, last_u, last_row = action, u, row
    return picks


def run_experiment(configs: list[ExperimentConfig], workers: int = 1,
                   keep_runs: bool = False) -> list[Series]:
    """One Series per config: the mean of its config.runs episodes, seeded
    seed, seed+1, ...  Every run of every config goes through one _forked
    pool of up to `workers` children; 1 runs serially.  Each child takes a
    fixed stride of the runs, so a runs = 1 sweep over unlike densities can
    split unevenly."""
    jobs = [(config, seed) for config in configs
            for seed in range(config.seed, config.seed + config.runs)]
    workers = min(workers, len(jobs))  # a child without runs would only cost a fork
    episodes = iter(_forked(jobs, workers) if workers > 1 else map(_run, *zip(*jobs)))
    # Both yield in job order, so each config's runs arrive in run order.
    return [_mean(list(islice(episodes, config.runs)), keep_runs) for config in configs]


def _forked(jobs: list, workers: int) -> list[Series]:
    """_run over jobs, in job order, in `workers` forked children.

    Child i runs jobs[i::workers] in order up to its first failure and
    sends back (its results, the failure or None) as one pickle on its own
    pipe, about 100 KB per 3000-slot run.  The pipes are read in index
    order.  Each write end is closed here after its fork, so EOF means the
    child exited, and one that exited without a whole pickle is an error
    naming its wait status.  Of several failures the lowest job's raises,
    as in a serial call.  SIGTERM and SIGINT, whose handlers may raise,
    wait while children are forked or reaped; the children ignore SIGTERM.
    However the call is left, every child is killed and reaped, so no run
    starts after it, and a child ends in os._exit, never in the caller."""
    children = []  # (pid, read end of its pipe)
    batches = []  # each child's (results, failure or None), in index order
    held = signal.pthread_sigmask(signal.SIG_BLOCK, _STOPS)
    try:
        for i in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _child(jobs[i::workers], write, held)
            os.close(write)
            children.append((pid, read))
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        for pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                try:
                    batches.append(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):  # it died before a whole pickle
                    break
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, _STOPS)
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
        for _, read in children:
            os.close(read)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
    if len(batches) < workers:
        code = os.waitstatus_to_exitcode(statuses[len(batches)])
        raise RuntimeError(f"pool worker {len(batches)} ended without its results: "
                           + (f"killed by signal {-code}" if code < 0 else f"exit status {code}"))
    failures = [(i + len(done) * workers, error)
                for i, (done, error) in enumerate(batches) if error is not None]
    if failures:
        raise min(failures)[1]  # job indices differ, so no two exceptions are compared
    results = [None] * len(jobs)
    for i, (done, _) in enumerate(batches):
        results[i::workers] = done
    return results


def _child(jobs: list, write: int, mask) -> None:
    """A forked child's whole life, which ends in os._exit."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done, error = [], None
        try:
            for job in jobs:
                done.append(_run(*job))
        except Exception as exc:
            error = exc
        with open(write, "wb") as pipe:
            pickle.dump((done, error), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


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


def converged_means(series: Series) -> dict:
    """Means of each metric over the last 500 slots, or all of them if fewer."""
    return {name: float(getattr(series, name)[-500:].mean()) for name in METRICS}


def write_series_csv(path, series) -> None:
    """Fixed-format CSV; %.12g keeps identical inputs byte-identical."""
    rows = zip(range(len(series.utility)), *(getattr(series, m).tolist() for m in METRICS))
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write("".join("%d,%.12g,%.12g,%.12g,%.12g\n" % row for row in rows))


# What `git rev-parse --local-env-vars` lists (git 2.39): the variables that
# point git at a repository, index or object store other than the one it
# would find.
_GIT_LOCAL_ENV = frozenset((
    "GIT_ALTERNATE_OBJECT_DIRECTORIES", "GIT_COMMON_DIR", "GIT_CONFIG", "GIT_CONFIG_COUNT",
    "GIT_CONFIG_PARAMETERS", "GIT_DIR", "GIT_GRAFT_FILE", "GIT_IMPLICIT_WORK_TREE",
    "GIT_INDEX_FILE", "GIT_INTERNAL_SUPER_PREFIX", "GIT_NO_REPLACE_OBJECTS",
    "GIT_OBJECT_DIRECTORY", "GIT_PREFIX", "GIT_REPLACE_REF_BASE", "GIT_SHALLOW_FILE",
    "GIT_WORK_TREE",
))


@cache
def _git_describe() -> str | None:
    """The commit of the checkout the package runs from (src/vlcudn), or
    None.  git may search only the package directory, src/ and the
    checkout root: its ceiling is the root's parent, so an installed copy
    does not name a repository it happens to sit in.  With no .git entry
    (a directory, or a worktree's or submodule's gitdir: file) in any of
    the three, git could only fail, so no process starts.  GIT_DIR and the
    rest of _GIT_LOCAL_ENV are left out of git's environment: set, as in a
    git hook, they would bypass the ceiling and name another repository.
    It runs git once per process: a sweep's saves share the answer."""
    package = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(package)
    root = os.path.dirname(src)
    if not any(os.path.exists(os.path.join(d, ".git")) for d in (package, src, root)):
        return None
    env = {k: v for k, v in os.environ.items() if k not in _GIT_LOCAL_ENV}
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=package,
            env=env,
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
                           config.power_levels, config.max_power)
        written.append(q_path)
    names = {os.path.basename(path) for path in written}
    for name in os.listdir(out_dir):
        if _RESULTS.fullmatch(name) and name not in names:
            os.remove(os.path.join(out_dir, name))
    return written


def blocked_results(out_dir) -> list[str]:
    """The entries of an existing out_dir that save_experiment would write
    or remove but that are not files (directories, say), in name order."""
    return [os.path.join(out_dir, name) for name in sorted(os.listdir(out_dir))
            if _RESULTS.fullmatch(name) and not os.path.isfile(os.path.join(out_dir, name))]
