"""End-to-end benchmark of the vlcudn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  For each invocation the benchmark writes a
complete INI (configs/reference.ini with only the workload's fields, `runs`
and `seed` changed; `max_slots = 3000` is kept, so the epsilon schedule and
the 500-slot converged window are the ones users run), starts a fresh
interpreter (perfbench/child.py) that calls `vlcudn.cli.main` in process,
and checks every output directory it writes.  The workload seed only picks
the base config seed; invocation i of a run uses config seeds
base + i*runs ... base + i*runs + runs - 1.

--trace 0 prints the end-to-end metrics:
  episodes_per_s     completed 3000-slot episodes per second of the CLI call
                     (config load through metrics.csv, meta and qtable.tsv),
                     scaled to the host's nominal speed by the reference
                     passes (calibrate.py) the same child ran just before it,
                     median over the invocations that start within --seconds
                     of wall time.  The unscaled median and the host speed
                     are printed beside it.
  setup_s            fresh interpreter to validated config (import vlcudn.cli
                     plus load_experiment), median of SETUP_PROBES processes
                     spread over the run.
  peak_rss_mb        peak RSS of the invoking process or any pool worker,
                     median over invocations; each invocation is a fresh
                     process, because RUSAGE_CHILDREN is a running max.
  converged_utility  last-500-slot mean utility from metrics.meta.json, mean
                     over the first `quality_iters` invocations (a fixed set of
                     seeds, so it is exact for the same code and seed).  For
                     sweep_workers2 it is the mean over the densities.  For
                     greedy_rho5, whose own value is exactly 0 at reference
                     weights (it always picks the all-zero power vector),
                     it is the margin over the better fixed baseline.
--trace 1 prints the per-layer metrics of a traced invocation (see
layer_metrics), paired with an untraced one of the same seeds.

The last stdout line is the JSON result; the lines before it repeat each
metric with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import find_spec

from calibrate import NOMINAL_S

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "configs", "reference.ini")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_PROBES = 9
CSV_HEADER = "slot,utility,mean_rate_bps,energy_w,ici_w"
CHILD_TIMEOUT_S = 120


@dataclasses.dataclass(frozen=True)
class Workload:
    fields: dict  # INI keys changed from configs/reference.ini
    runs: int  # Monte-Carlo runs per invocation
    quality_iters: int  # invocations whose converged utility is averaged
    densities: tuple = ()  # non-empty: `vlcudn sweep` over these densities
    workers: int = 1
    baselines: tuple = ()  # policies the output must never beat on any slot

    @property
    def episodes(self) -> int:
        return self.runs * max(1, len(self.densities))


# Why each workload: see "workloads" in BENCHMARK.json.
WORKLOADS = {
    "rpic_rho3": Workload({"policy": "rpic", "ue_density": "3"}, runs=2, quality_iters=8),
    "greedy_rho5": Workload(
        {"policy": "greedy_myopic", "ue_density": "5"},
        runs=1,
        quality_iters=2,
        baselines=("fixed_half", "fixed_max"),
    ),
    # Two runs per density, so each density's episodes split evenly over
    # the two workers.
    "sweep_workers2": Workload(
        {"policy": "rpic"}, runs=2, quality_iters=4, densities=(1, 2, 3), workers=2
    ),
}


class CheckFailed(RuntimeError):
    """An invocation exited non-zero or wrote wrong output."""


def environment() -> dict:
    from vlcudn import kernels
    import numpy

    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        describe = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        describe = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": find_spec("numba") is not None,
        "kernel_backend": kernels.ACTIVE_BACKEND,
        "git_describe": describe,
    }


def base_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(1, 1_000_000)


def write_ini(path: str, fields: dict) -> None:
    with open(REFERENCE) as fh:
        text = fh.read()
    for key, value in fields.items():
        text, n = re.subn(rf"^({re.escape(key)}\s*=\s*)\S+", rf"\g<1>{value}", text, flags=re.M)
        if n != 1:
            raise CheckFailed(f"configs/reference.ini has {n} lines for key {key!r}")
    with open(path, "w") as fh:
        fh.write(text)


class Runner:
    """Spawns the child interpreters of one benchmark run and checks outputs."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.wl = WORKLOADS[name]
        self.base = base_seed(name, seed)
        self.work = work
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
            GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
        )
        self.attempted = 0
        self.failed = 0
        self._serial = 0

    def _child(self, args: list[str]) -> dict:
        # Own session, so a timeout also kills the child's pool workers.
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args], env=self.env, cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:  # timeout, or SIGTERM/Ctrl-C of this run
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise CheckFailed(
                    f"child {args[:2]} timed out after {CHILD_TIMEOUT_S} s") from None
            raise
        if proc.returncode != 0:
            raise CheckFailed(f"child {args[:2]} exited {proc.returncode}: {err.strip()[-2000:]}")
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise CheckFailed(f"child {args[:2]} printed no result: {out[-500:]!r}") from None

    def setup_probe(self) -> dict:
        """Time one fresh interpreter from spawn to a validated config."""
        ini = os.path.join(self.work, "setup.ini")
        if not os.path.exists(ini):
            write_ini(ini, self.wl.fields)
            self._child(["setup", ini])  # warm-up: byte-compiles src on a fresh checkout
        spawn = time.monotonic()
        res = self._child(["setup", ini])
        res["setup_s"] = res["ready"] - spawn
        return res

    def invoke(self, i: int, policy: str | None = None, workers: int | None = None,
               trace: bool = False) -> dict:
        """Run invocation i of the workload in a fresh process and check it."""
        wl = self.wl
        self._serial += 1
        tag = "%03d-%s" % (self._serial, policy or "wl")
        ini = os.path.join(self.work, tag + ".ini")
        out = os.path.join(self.work, tag)
        fields = dict(wl.fields, runs=wl.runs, seed=self.base + i * wl.runs)
        if policy:
            fields["policy"] = policy
        write_ini(ini, fields)
        workers = wl.workers if workers is None else workers
        if wl.densities:
            args = ["sweep", "--config", ini, "--out", out,
                    "--densities", ",".join(map(str, wl.densities))]
        else:
            args = ["simulate", "--config", ini, "--out", out]
        if workers > 1:
            args += ["--workers", str(workers)]
        trace_dir = os.path.join(self.work, tag + "-trace") if trace else "-"
        if trace:
            os.makedirs(trace_dir)
        self.attempted += 1
        try:
            res = self._child(["run", trace_dir, str(workers), *args])
            res.update(check_outputs(ini, out, wl))
        except (OSError, ValueError, KeyError) as exc:  # unreadable output
            self.failed += 1
            raise CheckFailed(f"{out}: {exc!r}") from None
        except CheckFailed:
            self.failed += 1
            raise
        res["out"] = out
        res["trace_dir"] = trace_dir
        return res

    def quality(self, i: int, res: dict) -> float:
        """Converged utility of invocation i; greedy is also checked slot by
        slot against its fixed baselines, run outside any timed region."""
        if not self.wl.baselines:
            return statistics.fmean(res["converged"])
        best = None
        for policy in self.wl.baselines:
            base = self.invoke(i, policy=policy)
            shutil.rmtree(base["out"])
            below = [k for k, (g, b) in enumerate(zip(res["utility"], base["utility"])) if g < b]
            if below:
                self.failed += 1
                raise CheckFailed(
                    f"{self.name}: utility below {policy} on {len(below)} slots, first {below[0]}"
                )
            best = base["converged"][0] if best is None else max(best, base["converged"][0])
        return res["converged"][0] - best


def _read_csv(path: str, n_slots: int) -> list[float]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"{path}: bad header")
    if len(lines) != n_slots + 1:
        raise CheckFailed(f"{path}: {len(lines) - 1} rows, want {n_slots}")
    utility = []
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        values = [float(c) for c in cells[1:]]
        if len(cells) != 5 or cells[0] != str(k) or not all(map(math.isfinite, values)):
            raise CheckFailed(f"{path}: bad row {k}: {line!r}")
        utility.append(values[0])
    return utility


def check_outputs(ini: str, out: str, wl: Workload) -> dict:
    """Check every result directory of one invocation; return what it read."""
    from vlcudn.agent import QTable
    from vlcudn.config import load_experiment

    config = load_experiment(ini)
    if wl.densities:
        dirs = [(os.path.join(out, f"rho{d}"), dataclasses.replace(config, ue_density=d))
                for d in wl.densities]
    else:
        dirs = [(out, config)]
    converged, q_rows, utility = [], 0, None
    for path, cfg in dirs:
        n_slots = cfg.agent.max_slots
        utility = _read_csv(os.path.join(path, "metrics.csv"), n_slots)
        with open(os.path.join(path, "metrics.meta.json")) as fh:
            meta = json.load(fh)
        if meta["config_sha256"] != cfg.fingerprint():
            raise CheckFailed(f"{path}: config_sha256 does not match the generated INI")
        if (meta["runs"], meta["seed"]) != (cfg.runs, cfg.seed):
            raise CheckFailed(f"{path}: meta records runs/seed {meta['runs']}/{meta['seed']}")
        converged.append(meta["converged_last_500"]["utility"])
        q_path = os.path.join(path, "qtable.tsv")
        if cfg.policy == "rpic":
            try:
                table, _ = QTable.load(q_path)
            except (OSError, ValueError) as exc:
                raise CheckFailed(f"{q_path}: {exc}") from None
            n_actions = (cfg.agent.power_levels + 1) ** cfg.ue_density
            if table.n_actions != n_actions or len(table) == 0:
                raise CheckFailed(f"{q_path}: {len(table)} states x {table.n_actions} actions")
            q_rows += len(table)
        elif os.path.exists(q_path):
            raise CheckFailed(f"{q_path}: written for policy {cfg.policy}")
    return {"converged": converged, "q_rows": q_rows, "utility": utility}


def _tree_bytes(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def check_identical(a: dict, b: dict, what: str) -> None:
    fa, fb = _tree_bytes(a["out"]), _tree_bytes(b["out"])
    if fa.keys() != fb.keys():
        raise CheckFailed(f"{what}: file sets differ: {sorted(fa.keys() ^ fb.keys())}")
    differ = sorted(k for k in fa if fa[k] != fb[k])
    if differ:
        raise CheckFailed(f"{what}: bytes differ in {differ}")


def end_to_end(runner: Runner, seconds: float) -> dict:
    # One set-up probe after each of the first SETUP_PROBES invocations, so
    # their median samples the whole run rather than one moment of it.
    setup, raw, speed, rss, quality = [], [], [], [], []
    timed, i = 0.0, 0
    # The run lasts --seconds of wall time whatever the host's speed, so a
    # slow host cuts samples rather than overrunning the run's time limit.
    start = time.monotonic()
    while i < runner.wl.quality_iters or time.monotonic() - start < seconds:
        res = runner.invoke(i)
        timed += res["elapsed_s"]
        raw.append(runner.wl.episodes / res["elapsed_s"])
        # A parallel call goes at the pace of its slowest lane.
        speed.append(NOMINAL_S / max(res["reference_s"]))
        print("invocation %d: elapsed %.4f s, reference %s s" % (
            i, res["elapsed_s"], " ".join("%.5f" % t for t in res["reference_s"])))
        rss.append(res["peak_rss_mb"])
        if i < runner.wl.quality_iters:
            quality.append(runner.quality(i, res))
        shutil.rmtree(res["out"])
        if len(setup) < SETUP_PROBES:
            setup.append(runner.setup_probe())
        i += 1
    while len(setup) < SETUP_PROBES:
        setup.append(runner.setup_probe())
    print(f"invocations {i}, episodes each {runner.wl.episodes}, timed {timed:.3f} s")
    print("episode rate per invocation, unscaled (1/s): median %.4g, range %.4g-%.4g"
          % (statistics.median(raw), min(raw), max(raw)))
    print("host speed over nominal: median %.4g, range %.4g-%.4g"
          % (statistics.median(speed), min(speed), max(speed)))
    return {
        # Other tenants of the host slow a CLI call and the reference passes
        # just before it alike, for minutes at a time, so the rate over the
        # host speed stays put while either alone drifts (see README.md).
        "episodes_per_s": (statistics.median(r / v for r, v in zip(raw, speed)), "1/s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "converged_utility": (statistics.fmean(quality), "utility"),
    }


# Layers whose functions run only inside harness.run_episode.
EPISODE_LAYERS = ("mobility", "kernels", "agent", "topology", "channel", "metrics")


def layer_metrics(stats: dict, counts: dict, n: int, workers: int) -> dict:
    """Per-layer metrics from merged span stats, averaged over n traced
    invocations.  `.s` is total time, `self_s` excludes nested spans."""

    def get(key, field):
        return stats.get(key, (0, 0.0, 0.0))[field] / n

    def layer(prefix, field):
        return sum(v[field] for k, v in stats.items() if k.startswith(prefix + ".")) / n

    calls, total, self_ = 0, 1, 2
    episode_s = get("harness.run_episode", total)
    experiment_s = get("harness.run_experiment", total)
    accounted = get("harness.run_episode", self_) + sum(layer(p, self_) for p in EPISODE_LAYERS)
    m = {
        "mobility.self_s": (layer("mobility", self_), "s"),
        "mobility.calls": (layer("mobility", calls), "count"),
        "mobility.ue_slots": (counts.get("mobility.ue_slots", 0) / n, "count"),
    }
    for short, key in (
        ("advance_positions", "kernels.advance_positions"),
        ("action_utilities", "kernels.action_utilities"),
        ("link_rates", "kernels.link_rates"),
        ("lambertian_gains", "kernels.lambertian_gains"),
        ("quantize", "agent.quantize_state"),
        ("select", "agent.select_action"),
        ("update", "agent.update_q"),
    ):
        prefix = key.split(".")[0] + "." + short
        m[prefix + ".s"] = (get(key, total), "s")
        if short != "lambertian_gains":
            m[prefix + ".calls"] = (get(key, calls), "count")
    for key, unit in (
        ("kernels.action_utilities.cells", "count"),
        ("kernels.action_utilities.bytes_computed", "B"),
        ("kernels.lambertian_gains.links", "count"),
    ):
        m[key] = (counts.get(key, 0) / n, unit)
    m.update({
        "agent.self_s": (layer("agent", self_), "s"),
        "harness.loop_self_s": (get("harness.run_episode", self_), "s"),
        # Episodes run in `workers` parallel lanes; what the experiment call
        # spends beyond their share is pool start-up, pickling, waiting on
        # the slowest worker and the reduction.
        "harness.experiment_self_s": (experiment_s - episode_s / workers, "s"),
        "harness.parallel_efficiency": (
            episode_s / (workers * experiment_s) if experiment_s else 0.0, "ratio"),
        "harness.write_s": (get("harness.save_experiment", total), "s"),
        "topology.s": (layer("topology", self_), "s"),
        "channel.s": (layer("channel", self_), "s"),
        "metrics.s": (layer("metrics", self_), "s"),
        "trace.episode_s": (episode_s, "s"),
        "trace.unattributed_frac": (1.0 - accounted / episode_s if episode_s else 0.0, "ratio"),
    })
    return m


def traced(runner: Runner, seconds: float) -> dict:
    """Pairs of untraced and traced invocations of the same seeds.  With
    workers, a serial untraced invocation is added and all three must
    write byte-identical files (rerun = serial = --workers)."""
    from tracer import merge

    setup = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    wl = runner.wl
    trace_dirs = []
    plain_s = traced_s = 0.0
    q_rows = bytes_written = 0
    i = 0
    start = time.monotonic()
    while i == 0 or time.monotonic() - start < seconds:
        order = (False, True) if i % 2 == 0 else (True, False)  # alternate who goes first
        runs = {trace: runner.invoke(i, trace=trace) for trace in order}
        plain, res = runs[False], runs[True]
        check_identical(plain, res, "untraced vs traced")
        if wl.workers > 1:
            serial = runner.invoke(i, workers=1)
            check_identical(plain, serial, f"--workers {wl.workers} vs serial")
            shutil.rmtree(serial["out"])
        if wl.baselines:
            runner.quality(i, res)
        plain_s += plain["elapsed_s"]
        traced_s += res["elapsed_s"]
        q_rows += res["q_rows"]
        bytes_written += sum(len(b) for b in _tree_bytes(res["out"]).values())
        trace_dirs.append(res["trace_dir"])
        shutil.rmtree(plain["out"])
        shutil.rmtree(res["out"])
        i += 1
    stats, counts = merge(trace_dirs)
    print(f"traced pairs {i}, episodes each {wl.episodes}, functions traced {len(stats)}")
    m = layer_metrics(stats, counts, i, wl.workers)
    m.update({
        "agent.q_rows": (q_rows / i, "count"),
        "harness.bytes_written": (bytes_written / i, "B"),
        "config.load_s": (statistics.median(p["load_s"] for p in setup), "s"),
        "cli.import_s": (statistics.median(p["import_s"] for p in setup), "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for need in (os.path.join(SRC, "vlcudn", "cli.py"), REFERENCE):
        if not os.path.isfile(need):
            print(f"perfbench: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    # SIGTERM unwinds like Ctrl-C, so the running child and the scratch
    # directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    runner = Runner(args.workload, args.seed, work)
    metrics, correct = {}, True
    try:
        measure = traced if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    except CheckFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        correct = False
        runner.failed = max(runner.failed, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
