"""Command line front end: simulate, sweep, inspect-q."""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import __version__
from .agent import QTable, StateQuantizer, enumerate_actions, state_key
from .config import ConfigError, load_experiment
from .harness import (
    SimulationAbort,
    blocked_results,
    converged_means,
    density_configs,
    run_experiment,
    save_experiment,
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="vlcudn")
def main():
    """Q-learning transmit-power control in a dense indoor optical network."""


@contextmanager
def _exit_codes():
    """Exit 2 on bad input and 3 on an aborted run, with the reason."""
    try:
        yield
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except SimulationAbort as exc:
        click.echo(f"aborted: {exc}", err=True)
        sys.exit(3)


@contextmanager
def _sigterm_exits():
    """SIGTERM unwinds like Ctrl-C and exits 143, so run_experiment kills
    and reaps its forked children on the way out; the previous handler is
    restored after."""
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(jobs, workers: int, keep_runs: bool = False) -> None:
    """Run each (config, result directory or None) pair, all through one
    run_experiment call and so one pool of forked children, then print
    each config's converged metrics and write its files.
    Every directory is created and checked first, so that a path which
    cannot hold the results, or a result name taken by a directory, fails
    (exit 2) before the compute is spent."""
    for _, out_dir in jobs:
        if out_dir:
            try:
                os.makedirs(out_dir, exist_ok=True)
                blocked = blocked_results(out_dir)
            except OSError as exc:
                raise click.UsageError(f"cannot create --out: {exc}") from None
            if blocked:
                raise click.UsageError(f"cannot write --out: {blocked[0]} is not a file")
    with _sigterm_exits():
        results = run_experiment([config for config, _ in jobs], workers, keep_runs)
    for (config, out_dir), series in zip(jobs, results):
        c = converged_means(series)
        click.echo(
            f"policy={config.policy} density={config.ue_density} runs={config.runs}: "
            f"converged utility {c['utility']:.4g}, "
            f"rate {c['mean_rate_bps'] / 1e6:.4g} Mbit/s, "
            f"energy {c['energy_w'] * 1e3:.4g} mW, "
            f"ici {c['ici_w'] * 1e3:.4g} mW"
        )
        if out_dir:
            for path in save_experiment(out_dir, config, series):
                click.echo(f"wrote {path}")


def _run_options(command):
    """The --config, --runs, --seed and --workers options of simulate and sweep."""
    for option in reversed((
        click.option("--config", "config_path", required=True,
                     type=click.Path(exists=True, dir_okay=False), help="Experiment config file."),
        click.option("--runs", type=int, default=None, help="Override the run count."),
        click.option("--seed", type=int, default=None, help="Override the base seed."),
        click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                     help="Processes for Monte-Carlo runs; 1 runs serially."),
    )):
        command = option(command)
    return command


@main.command()
@_run_options
@click.option("--policy", default=None, help="Override the policy.")
@click.option("--density", type=int, default=None, help="Override the UE count.")
@click.option(
    "--out",
    "out_dir",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for metrics.csv plus sidecars.",
)
@click.option("--per-run", is_flag=True, help="Also write one CSV per run (needs --out).")
def simulate(config_path, runs, seed, workers, policy, density, out_dir, per_run):
    """Run one experiment and report its converged metrics."""
    if per_run and not out_dir:
        raise click.UsageError("--per-run needs --out")
    with _exit_codes():
        config = load_experiment(
            config_path, policy=policy, density=density, runs=runs, seed=seed
        )
        _run([(config, out_dir)], workers, keep_runs=per_run)


@main.command()
@_run_options
@click.option("--densities", required=True, help="Comma-separated UE counts, e.g. 1,2,3.")
@click.option(
    "--out",
    "out_dir",
    required=True,
    type=click.Path(file_okay=False),
    help="Directory; one rho<N> subdirectory per density.",
)
def sweep(config_path, runs, seed, workers, densities, out_dir):
    """Repeat the experiment across several UE densities."""
    try:
        parsed = [int(tok) for tok in densities.split(",") if tok.strip()]
    except ValueError:
        raise click.BadParameter(
            "must be comma-separated integers", param_hint="--densities"
        ) from None
    with _exit_codes():
        configs = density_configs(load_experiment(config_path, runs=runs, seed=seed), parsed)
        _run([(c, os.path.join(out_dir, f"rho{c.ue_density}")) for c in configs], workers)


@main.command("inspect-q")
@click.option(
    "--qtable",
    "qtable_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Exported q-table file.",
)
@click.option("--top", type=click.IntRange(min=0), default=5, show_default=True,
              help="How many best states to list.")
def inspect_q(qtable_path, top):
    """Summarize an exported Q-table."""
    try:
        table, meta = QTable.load(qtable_path)
    except (ValueError, OSError) as exc:
        click.echo(f"cannot read q-table: {exc}", err=True)
        sys.exit(2)
    click.echo(f"actions: {table.n_actions}")
    grid = StateQuantizer(*(meta[field.name] for field in dataclasses.fields(StateQuantizer)))
    click.echo("state grid: " + " ".join(f"{name}={value}" for name, value in vars(grid).items()))
    click.echo(f"states: {len(table)}")
    if not len(table):
        return
    rows = {state: table.row(state) for state in table.rows}
    entries = int(sum(np.count_nonzero(row) for row in rows.values()))
    stored = np.concatenate(list(rows.values()))
    click.echo(f"nonzero entries: {entries}")
    click.echo(f"value range: [{stored.min():.6g}, {stored.max():.6g}]")
    click.echo("best states:")
    n_ues = meta["n_ues"]
    levels = enumerate_actions(meta["power_levels"], meta["max_power"])
    ranked = sorted(rows, key=lambda s: rows[s].max(), reverse=True)[:top]
    for state in ranked:
        row = rows[state]
        best = int(np.argmax(row))
        digits = np.unravel_index(best, (levels.size,) * n_ues)
        mw = ", ".join("%.3g" % (levels[d] * 1e3) for d in digits)
        key = state_key(state, grid, n_ues)
        click.echo(f"  {key}  action={best}  q={row[best]:.6g}  power_mw=({mw})")


if __name__ == "__main__":
    main()
