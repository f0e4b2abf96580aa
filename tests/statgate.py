"""Compare what two source trees compute, as distributions over fixed seeds.

Run by hand from the repository root, not by pytest:

    python tests/statgate.py --src /path/to/parent/src --src src

tests/bytegate.py checks a change that keeps every random stream: its
outputs are byte-identical.  A change that moves the streams on purpose (a
new draw order, a numpy whose Generator streams moved) cannot keep the
bytes; it must keep the distribution of what is computed instead.  This
script runs configs/reference.ini through run_episode of each tree: tree
A on seeds A_SEEDS, tree B on B_SEEDS, a disjoint set, so that two copies
of one tree compare two independent samples of one distribution.  Each
row of the report is one per-run quantity:

- the converged (last 500 slots) utility, mean rate, energy and leakage
  of rpic and of fixed_half at rho = 1, 3 and 5, and of rpic with
  replay = true at rho = 3 (rows rpic_replay-rho3/...);
- the mobility of the fixed_half episodes at each rho, over the UEs of
  every cell: the mean distance to the UE's own cell centre in the slot
  windows 0, 1, 2-3, 4-7, ..., 1024-2047 and 2048-2999 (the random-waypoint
  start-up transient, then the steady state), the mean signed offset from
  the centre along x and along y, and the mean distance moved per slot.

For each row it prints the IQM (the mean of the middle half of the runs)
of tree B minus that of tree A, with a stratified bootstrap confidence
interval (Agarwal et al. 2021, arXiv:2108.13264; the strata are the two
trees, whose runs are resampled separately), and the p-value of Welch's
two-sample test on the means.  A row fails when its interval excludes 0
or its p-value is below the per-test level.  Both are taken at LEVEL / (2
* rows) (Bonferroni), so two copies of one tree fail with probability at
most LEVEL.  The exit status is 1 when any row fails.  The seeds, the
level and the bootstrap were fixed before the first run; the replay
cell was added later, and its rows tighten the per-test level of all.  It
takes two to four minutes on 2 cores: the two trees run at once, one
process each.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
                         "reference.ini")
RUNS = 300
A_SEEDS = range(100_000, 100_000 + RUNS)
B_SEEDS = range(200_000, 200_000 + RUNS)
LEVEL = 0.01  # family-wise: the chance that two copies of one tree fail
BOOTSTRAP = 2000  # resamples per row
BOOTSTRAP_SEED = 20_211_027
POLICIES = ("fixed_half", "rpic")
DENSITIES = (1, 3, 5)


def _windows(n_slots):
    """Slot window edges 0, 1, 2, 4, ..., below n_slots, then n_slots."""
    edges = [0] + [2 ** i for i in range(n_slots.bit_length()) if 2 ** i < n_slots]
    return np.array(edges + [n_slots])


def _mobility_rows(groups, paths):
    """{row: value} of one episode's paths, (n_slots, UEs, 2), walked in
    groups [(n_ues, (xmin, xmax, ymin, ymax)), ...]."""
    centres = np.concatenate([np.tile([(x0 + x1) / 2.0, (y0 + y1) / 2.0], (n, 1))
                              for n, (x0, x1, y0, y1) in groups])
    offset = paths - centres
    dist = np.hypot(offset[..., 0], offset[..., 1]).mean(axis=1)
    edges = _windows(len(paths))
    rows = {f"dist-{a}-{b - 1}": float(dist[a:b].mean()) for a, b in zip(edges, edges[1:])}
    moved = np.diff(paths, axis=0)
    rows["offset-x"], rows["offset-y"] = offset.mean(axis=(0, 1)).tolist()
    rows["moved-per-slot"] = float(np.hypot(moved[..., 0], moved[..., 1]).mean())
    return rows


def child(out, seeds):
    """Run every cell on seeds with the vlcudn on sys.path; save {row: values}."""
    from vlcudn import harness
    from vlcudn.config import load_experiment

    walked = []
    simulate_paths = harness.simulate_paths

    def recording(groups, *args):
        paths = simulate_paths(groups, *args)
        walked.append(_mobility_rows(groups, paths))
        return paths

    harness.simulate_paths = recording
    reference = load_experiment(REFERENCE)
    values = {}
    cells = [(policy, rho, {}) for rho in DENSITIES for policy in POLICIES]
    cells.append(("rpic", 3, {"replay": True}))
    for policy, rho, overrides in cells:
        config = dataclasses.replace(reference, policy=policy, ue_density=rho, **overrides)
        label = policy + ("_replay" if config.replay else "")
        walked.clear()
        for seed in seeds:
            means = harness.converged_means(harness.run_episode(config, seed))
            for name, value in means.items():
                values.setdefault(f"{label}-rho{rho}/{name}", []).append(value)
        if policy == "fixed_half":  # rpic walks the same paths on the same seeds
            for rows in walked:
                for name, value in rows.items():
                    values.setdefault(f"mobility-rho{rho}/{name}", []).append(value)
    np.savez(out, **{name: np.array(v) for name, v in values.items()})


def _iqm(samples):
    """Mean of the middle half along the last axis (25% trimmed each end)."""
    n = samples.shape[-1]
    cut = n // 4
    return np.sort(samples, axis=-1)[..., cut:n - cut].mean(axis=-1)


def _z_for(p):
    """The z with a two-sided normal tail of p, by bisection on erfc."""
    lo, hi = 0.0, 40.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2.0)) > p else (lo, mid)
    return hi


def compare(a, b, alpha, z_crit, rng):
    """(IQM difference b - a, its interval half-width, Welch p-value, fails)."""
    diff = float(_iqm(b) - _iqm(a))
    boot = (_iqm(b[rng.integers(len(b), size=(BOOTSTRAP, len(b)))])
            - _iqm(a[rng.integers(len(a), size=(BOOTSTRAP, len(a)))]))
    half = z_crit * float(boot.std(ddof=1))
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    gap = abs(float(b.mean() - a.mean()))
    p = math.erfc(gap / se / math.sqrt(2.0)) if se > 0 else float(gap == 0)
    return diff, half, p, abs(diff) > half or p < alpha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[],
                        help="Source tree holding the vlcudn package; give two, A then B.")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)  # A|B, output file
    args = parser.parse_args(argv)
    if args.child:
        tree, out = args.child
        child(out, A_SEEDS if tree == "A" else B_SEEDS)
        return 0
    if len(args.src) != 2:
        parser.error("give --src twice: tree A, then tree B")

    # SIGTERM unwinds like Ctrl-C, so the children are stopped and the
    # temporary directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        procs, outs = [], []
        try:
            for label, src in zip("AB", args.src):
                outs.append(os.path.join(tmp, label + ".npz"))
                env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
                procs.append(subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                               "--child", label, outs[-1]], env=env))
            failed = any([proc.wait() for proc in procs])
        finally:
            for proc in procs:
                proc.kill()  # a no-op for a child already waited for
        if failed:
            print("a tree failed to run", file=sys.stderr)
            return 2
        with np.load(outs[0]) as fa, np.load(outs[1]) as fb:
            a, b = dict(fa), dict(fb)
    if a.keys() != b.keys():
        print(f"the trees report different rows: {sorted(a.keys() ^ b.keys())}", file=sys.stderr)
        return 2

    tests = 2 * len(a)
    alpha = LEVEL / tests
    z_crit = _z_for(alpha)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    print(f"{RUNS} runs per tree and cell; level {LEVEL} over {tests} tests: "
          f"each at {alpha:.2e} (|z| > {z_crit:.2f})")
    print(f"{'row':<34} {'mean A':>12} {'mean B':>12} {'IQM B-A':>11} {'+/-':>10} "
          f"{'Welch p':>9}")
    failed = []
    for name in a:
        diff, half, p, fails = compare(a[name], b[name], alpha, z_crit, rng)
        failed += [name] if fails else []
        print(f"{name:<34} {a[name].mean():12.6g} {b[name].mean():12.6g} {diff:11.3g} "
              f"{half:10.3g} {p:9.2g}{'  FAIL' if fails else ''}")
    verdict = f"FAIL: {len(failed)} of {len(a)} rows" if failed else f"PASS: {len(a)} rows"
    print(f"{verdict} [{time.perf_counter() - start:.0f} s]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
