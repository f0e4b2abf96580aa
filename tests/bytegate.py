"""Hash every output of a fixed matrix of CLI runs into a manifest.

Run by hand, not by pytest, on two source trees, and compare the manifests:

    python tests/bytegate.py --src /path/to/parent/src --out parent.sha256
    python tests/bytegate.py --src src --out change.sha256
    cmp parent.sha256 change.sha256

Each line is "<sha256>  <case>/<file>".  The files are every metrics.csv,
runNNNN.csv and qtable.tsv, every metrics.meta.json without its
git_describe line (the only field that names the checkout), and the text
of `inspect-q --top 10` on every qtable.tsv.  The matrix: configs/reference.ini at its 100 runs, serial
and with 2 workers, and at 20 runs with --per-run, serial and with 2
workers; all five policies at rho=3; `sweep --densities 1,2,3`;
rpic with replay = true; rpic at rho=4; rpic at rho=4 on 1000 rate and
gain bins with one power level, whose state indices pass 2**63; rpic with
no warm-up and no epsilon decay; rpic with UEs at 5-6 m/s, whose walks
take many top-up blocks of waypoints; and rpic, greedy_myopic and random
on non-default optics, linear and squared.  It takes a few minutes on 2
cores.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import signal
import subprocess
import sys
import tempfile

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
                         "reference.ini")
POLICIES = ("fixed_max", "fixed_half", "greedy_myopic", "random", "rpic")
OPTICS = {"channel": {"detector_area_cm2": "0.5", "semi_angle_deg": "45.0", "fov_deg": "60.0"},
          "mobility": {"ue_height_m": "0.85"}}


def _variant(tmp, name, overrides):
    """configs/reference.ini with overrides {section: {key: value}}, written
    to tmp/name.ini."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(REFERENCE)
    for section, pairs in overrides.items():
        for key, value in pairs.items():
            parser[section][key] = value
    path = os.path.join(tmp, name + ".ini")
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def _cases(tmp):
    """(case name, vlcudn arguments without --out) of the matrix."""
    ref = os.path.abspath(REFERENCE)
    cases = [("reference-serial", ["simulate", "--config", ref]),
             ("reference-workers2", ["simulate", "--config", ref, "--workers", "2"]),
             ("per-run-serial", ["simulate", "--config", ref, "--runs", "20", "--per-run"]),
             ("per-run-workers2", ["simulate", "--config", ref, "--runs", "20", "--per-run",
                                   "--workers", "2"])]
    for policy in POLICIES:
        cases.append((f"rho3-{policy}", ["simulate", "--config", ref, "--policy", policy,
                                         "--density", "3", "--workers", "2"]))
    cases.append(("sweep", ["sweep", "--config", ref, "--densities", "1,2,3",
                            "--workers", "2"]))
    replay = _variant(tmp, "replay", {"agent": {"replay": "true"}})
    cases.append(("rpic-replay", ["simulate", "--config", replay, "--runs", "20",
                                  "--workers", "2"]))
    cases.append(("rpic-rho4", ["simulate", "--config", ref, "--density", "4",
                                "--workers", "2"]))
    # rate and gain keys on a 1000-bin grid: qtable.tsv keys of indices past 2**63
    bins1000 = _variant(tmp, "bins1000", {"agent": {"rate_bins": "1000", "gain_bins": "1000",
                                                    "power_levels": "1"}})
    cases.append(("rpic-bins1000-rho4", ["simulate", "--config", bins1000, "--density", "4",
                                         "--runs", "20", "--workers", "2"]))
    nowarmup = _variant(tmp, "nowarmup", {"agent": {"warmup_slots": "0",
                                                    "epsilon_decay_slots": "0"}})
    cases.append(("rpic-nowarmup", ["simulate", "--config", nowarmup, "--runs", "20",
                                    "--workers", "2"]))
    # a leg every two or three slots: about 1,260 legs per UE, ten blocks each
    fast = _variant(tmp, "fast", {"mobility": {"v_min_mps": "5", "v_max_mps": "6"}})
    cases.append(("rpic-fast-movers", ["simulate", "--config", fast, "--runs", "20",
                                       "--workers", "2"]))
    for squared in ("false", "true"):
        optics = _variant(tmp, f"optics-{squared}",
                          {**OPTICS, "link": {"squared_electrical_power": squared}})
        for policy in ("rpic", "greedy_myopic", "random"):
            cases.append((f"optics-squared-{squared}-{policy}",
                          ["simulate", "--config", optics, "--policy", policy, "--runs", "30",
                           "--workers", "2"]))
    return cases


def _run(command, env, stdout=subprocess.DEVNULL) -> bytes:
    """subprocess.run(command, check=True) in a session of its own, whose
    every process (pool workers too) is killed if this script is stopped."""
    proc = subprocess.Popen(command, env=env, stdout=stdout, start_new_session=True)
    try:
        out = proc.communicate()[0]
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, command)
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="Source tree holding the vlcudn package.")
    parser.add_argument("--out", required=True, help="Manifest file to write.")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # temporary directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    vlcudn = [sys.executable, "-m", "vlcudn.cli"]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in _cases(tmp):
            out_dir = os.path.join(tmp, name)
            _run(vlcudn + command + ["--out", out_dir], env)
            for root, _, files in sorted(os.walk(out_dir)):
                for file in sorted(files):
                    path = os.path.join(root, file)
                    rel = os.path.relpath(path, tmp)
                    with open(path, "rb") as fh:
                        data = fh.read()
                    if file == "metrics.meta.json":
                        data = b"".join(line for line in data.splitlines(keepends=True)
                                        if not line.lstrip().startswith(b'"git_describe":'))
                    lines.append(f"{_digest(data)}  {rel}")
                    if file == "qtable.tsv":
                        text = _run(vlcudn + ["inspect-q", "--qtable", path, "--top", "10"],
                                    env, stdout=subprocess.PIPE)
                        lines.append(f"{_digest(text)}  {rel}:inspect-q")
            print(f"{name}: done", file=sys.stderr)
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} digests written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
