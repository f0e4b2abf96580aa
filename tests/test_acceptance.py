"""Release gates for the full simulator, one printed verdict per criterion.

Heavy fixtures (100-run experiments at 3000 slots) are session scoped and
shared across criteria; they run through one process pool on every CPU
this process may use.
Each criterion prints `criterion N (...): PASS|FAIL [detail]` through the
capture plug so the verdict lines always reach the console log.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import prop_checks
from conftest import render_config
from oracles import (
    Link, PowerVector, Pos3, SlotChannelSnapshot, Weights, achievable_rate, channel_gain,
    channel_params_from_cm2, sinr, total_ici, utility,
)
from vlcudn import kernels
from vlcudn.agent import QRow, QTable
from vlcudn.config import load_experiment
from vlcudn.harness import converged_means, run_experiment

CH = channel_params_from_cm2(1.0, 60.0, 70.0, 0.54)
LINK = Link(20e6, 1e-21, 0.5)


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


@pytest.fixture(scope="session")
def reference_cfg(reference_config_path):
    return load_experiment(reference_config_path)


@pytest.fixture(scope="session")
def reference_series(reference_cfg):
    """The four 100-run series the criteria read: rpic at 1, 2 and 3 users
    per cell, then fixed_half at 3, through one pool on every CPU this
    process may use."""
    configs = [dataclasses.replace(reference_cfg, ue_density=rho) for rho in (1, 2, 3)]
    configs.append(dataclasses.replace(reference_cfg, policy="fixed_half", ue_density=3))
    return run_experiment(configs, workers=len(os.sched_getaffinity(0)))


@pytest.fixture(scope="session")
def rpic_by_density(reference_series):
    """100-run averaged learning series for 1, 2 and 3 users per cell."""
    return dict(zip((1, 2, 3), reference_series))


@pytest.fixture(scope="session")
def fixed_half_rho3(reference_series):
    return reference_series[3]


def test_criterion_1_formula_oracles(capsys):
    """Each frozen value, through the scalar reference and through the
    package kernel that computes it in a run."""
    gain_axial, gain_offset = 7.9577471545947668e-6, 1.9894367886486917e-6
    rate, ici, u = 207130326.8645367, 2.16e-9, 10.999
    kernel_gains = kernels.lambertian_gains(
        np.array([0.0, 2.0]), np.array([0.0, 0.0]), 2.0,
        CH.semi_angle_half_intensity, CH.detector_area, CH.fov_angle,
    )
    errs = {
        "gain_axial": _rel(channel_gain(Pos3(0, 0, 3), Pos3(0, 0, 1), CH), gain_axial),
        "gain_offset": _rel(channel_gain(Pos3(0, 0, 3), Pos3(2, 0, 1), CH), gain_offset),
        "kernel_gain_axial": _rel(kernel_gains[0], gain_axial),
        "kernel_gain_offset": _rel(kernel_gains[1], gain_offset),
    }
    snap = SlotChannelSnapshot([gain_axial], np.empty((0, 1)), [])
    powers = PowerVector([4e-3], np.empty((0, 1)))
    zeta = sinr(0, powers, snap, LINK, CH.responsivity)
    errs["sinr"] = _rel(zeta, 1718873.3853924696)
    errs["rate"] = _rel(achievable_rate(10e6, zeta), rate)
    # one slot, one UE at 4 mW, no interference, on the 10 MHz share
    kernel_rate = kernels.level_rates(np.array([4e-3]), np.array([[gain_axial]]),
                                      np.zeros((1, 1)), 10e6, LINK.noise_psd,
                                      CH.responsivity, False)[0, 0, 0]
    errs["kernel_rate"] = _rel(kernel_rate, rate)
    leak_snap = SlotChannelSnapshot([1e-6], [[0.0]], [np.array([1e-6])])
    errs["ici"] = _rel(total_ici(PowerVector([4e-3], [[0.0]]), leak_snap, CH.responsivity), ici)
    # 4 mW toward one foreign UE through a 1e-6 cross-gain
    errs["kernel_ici"] = _rel(kernels.utility(0.0, 1, 4e-3, 1e-6, CH.responsivity, 1.0, 1e3)[1],
                              ici)
    errs["utility"] = _rel(
        utility(
            [10e6, 20e6],
            PowerVector([2e-3, 2e-3], np.empty((0, 2))),
            1e-9,
            Weights(1.0, 1e3),
        ),
        u,
    )
    # 10 and 20 Mbit/s at 2 mW each, leaking 1e-9 W: 4 mW times a 2.5e-7
    # cross-gain at unit responsivity
    errs["kernel_utility"] = _rel(kernels.utility(10e6 + 20e6, 2, 4e-3, 2.5e-7, 1.0, 1.0, 1e3)[0],
                                  u)
    worst = max(errs.values())
    ok = worst <= 1e-9
    _verdict(capsys, 1, "formula oracles", ok, f"max rel err {worst:.2e}")
    assert ok, errs


def test_criterion_2_lambertian_order(capsys):
    e60 = _rel(kernels.lambertian_order(60.0), 1.0)
    e45 = _rel(kernels.lambertian_order(45.0), 2.0)
    ok = max(e60, e45) <= 1e-12
    _verdict(capsys, 2, "lambertian order", ok, f"m(60) err {e60:.1e}, m(45) err {e45:.1e}")
    assert ok


def test_criterion_3_epsilon_greedy_distribution(capsys):
    state = 0
    q = QTable(4)  # four joint actions
    q.set(state, 1, 5.0)
    rng = np.random.default_rng(2024)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[q.rows[state].select(rng.random() < 0.4, rng.random())] += 1
    freq = counts / n
    p_other = 0.4 / 3
    band_greedy = 3 * np.sqrt(0.6 * 0.4 / n)
    band_other = 3 * np.sqrt(p_other * (1 - p_other) / n)
    ok = abs(freq[1] - 0.6) <= band_greedy and all(
        abs(freq[a] - p_other) <= band_other for a in (0, 2, 3)
    )
    _verdict(
        capsys, 3, "epsilon-greedy split", ok,
        f"greedy {freq[1]:.4f} vs 0.6 +/- {band_greedy:.4f}",
    )
    assert ok, freq


def test_criterion_4_q_learning_matches_value_iteration(capsys):
    rewards = {(0, 0): 2.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 3.0}
    beta = 0.5
    # value-iteration reference on the same two-state deterministic chain
    q_star = np.zeros((2, 2))
    for _ in range(200):
        q_next = np.array(
            [[rewards[s, a] + beta * q_star[a].max() for a in (0, 1)] for s in (0, 1)]
        )
        done = np.abs(q_next - q_star).max() < 1e-12
        q_star = q_next
        if done:
            break

    q = QTable(2)  # states 0 and 1, two actions; action a leads to state a
    unseen = QRow(2)  # how a state without a row reads: all zeros, both actions tied
    rng = np.random.default_rng(77)
    s = 0
    for _ in range(10_000):
        a = q.rows.get(s, unseen).select(rng.random() < 0.3, rng.random())
        q.update(s, a, rewards[s, a], q.rows.get(a, unseen).top, 0.1, beta)
        s = a
    learned = np.array([q.row(s) for s in (0, 1)])
    policy_ok = all(int(np.argmax(learned[s])) == int(np.argmax(q_star[s])) for s in (0, 1))
    gap = np.abs(learned - q_star).max()
    bound = 0.05 * np.abs(q_star).max()
    ok = policy_ok and gap < bound
    _verdict(
        capsys, 4, "q-learning vs value iteration", ok,
        f"max |Q-Q*| {gap:.3f} < {bound:.3f}, policy match {policy_ok}",
    )
    assert ok, (learned, q_star)


def test_criterion_5_utility_falls_with_density(capsys, rpic_by_density):
    u = {rho: converged_means(series)["utility"] for rho, series in rpic_by_density.items()}
    ok = u[1] > u[2] > u[3]
    _verdict(
        capsys, 5, "converged utility vs density", ok,
        f"u(1)={u[1]:.2f} u(2)={u[2]:.2f} u(3)={u[3]:.2f}",
    )
    assert ok, u


def test_criterion_6_converged_rate_magnitude(capsys, rpic_by_density):
    rate = converged_means(rpic_by_density[3])["mean_rate_bps"] / 1e6
    ok = 25.0 <= rate <= 60.0
    _verdict(capsys, 6, "three-user converged rate", ok, f"{rate:.2f} Mbit/s in [25, 60]")
    assert ok, rate


def test_criterion_7_learning_cuts_energy_and_leakage(capsys, rpic_by_density, fixed_half_rho3):
    series = rpic_by_density[3]
    tail = converged_means(series)
    energy_drop = 1.0 - tail["energy_w"] / series.energy_w[:50].mean()
    ici_drop = 1.0 - tail["ici_w"] / series.ici_w[:50].mean()
    u_rpic = tail["utility"]
    u_half = converged_means(fixed_half_rho3)["utility"]
    ok = energy_drop >= 0.05 and ici_drop >= 0.05 and u_rpic > u_half
    _verdict(
        capsys, 7, "energy and leakage reductions", ok,
        f"energy -{energy_drop:.1%}, ici -{ici_drop:.1%}, "
        f"utility {u_rpic:.2f} > fixed-half {u_half:.2f}",
    )
    assert ok, (energy_drop, ici_drop, u_rpic, u_half)


def test_criterion_8_byte_identical_reruns(capsys, tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    ini = root / "repro.ini"
    ini.write_text(render_config({
        "agent.max_slots": 200,
        "agent.epsilon_decay_slots": 60,
        "agent.warmup_slots": 10,
        "experiment.runs": 3,
        "experiment.seed": 5,
    }))
    outs = {}
    for label, workers in (("first", 1), ("second", 1), ("parallel", 2)):
        out = root / label
        proc = subprocess.run(
            [sys.executable, "-m", "vlcudn.cli", "simulate",
             "--config", str(ini), "--out", str(out), "--workers", str(workers)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs[label] = out
    csv = {label: (out / "metrics.csv").read_bytes() for label, out in outs.items()}
    rerun_same = csv["first"] == csv["second"]
    parallel_same = csv["first"] == csv["parallel"]
    qtable_same = (
        (outs["first"] / "qtable.tsv").read_bytes()
        == (outs["second"] / "qtable.tsv").read_bytes()
    )
    ok = rerun_same and parallel_same and qtable_same
    _verdict(
        capsys, 8, "byte-identical reruns", ok,
        f"rerun {rerun_same}, serial-vs-parallel {parallel_same}, qtable {qtable_same}",
    )
    assert ok


def test_criterion_9_property_suites(capsys):
    counts = {}
    failure = None
    for name, fn in prop_checks.ALL_CHECKS.items():
        try:
            counts[name] = fn(1000)
        except AssertionError as exc:
            failure = f"{name}: {exc}"
            break
    ok = failure is None and all(c >= 1000 for c in counts.values())
    detail = failure if failure else f"{len(counts)} suites, >=1000 cases each"
    _verdict(capsys, 9, "randomized invariants", ok, detail)
    assert ok, failure
