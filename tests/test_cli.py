"""End-to-end command line behavior: outputs, overrides, exit codes."""

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest
from click.testing import CliRunner

import vlcudn
from vlcudn.cli import main
from vlcudn.harness import CSV_HEADER

from conftest import REPO_ROOT, render_config

FAST = {
    "agent.max_slots": 60,
    "agent.warmup_slots": 5,
    "agent.epsilon_decay_slots": 20,
    "experiment.runs": 2,
}
# The state-grid half of a qtable.tsv header, for hand-written tables.
GRID = "rate_bins=3 gain_bins=3 rate_max=1 gain_max=1"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(render_config(FAST))
    return path


class TestSimulate:
    def test_happy_path_writes_outputs(self, runner, fast_config, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["simulate", "--config", str(fast_config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "policy=rpic density=2 runs=2" in result.output
        assert "converged utility" in result.output
        csv = (out / "metrics.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 1 + 60
        meta = json.loads((out / "metrics.meta.json").read_text())
        assert meta["policy"] == "rpic"
        assert meta["package_version"] == vlcudn.__version__
        assert (out / "qtable.tsv").exists()

    def test_summary_only_without_out(self, runner, fast_config, tmp_path):
        result = runner.invoke(main, ["simulate", "--config", str(fast_config)])
        assert result.exit_code == 0
        assert "wrote" not in result.output
        assert list(tmp_path.glob("out*")) == []

    def test_overrides_reach_metadata(self, runner, fast_config, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "simulate", "--config", str(fast_config), "--out", str(out),
            "--policy", "fixed-max", "--density", "1", "--runs", "1", "--seed", "42",
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "metrics.meta.json").read_text())
        assert meta["policy"] == "fixed_max"
        assert meta["ue_density"] == 1
        assert meta["runs"] == 1
        assert meta["seed"] == 42
        assert not (out / "qtable.tsv").exists()  # no learner, no table

    def test_per_run_files(self, runner, fast_config, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "simulate", "--config", str(fast_config), "--out", str(out), "--per-run",
        ])
        assert result.exit_code == 0
        assert (out / "run0000.csv").exists() and (out / "run0001.csv").exists()

    def test_rerun_removes_files_it_did_not_write(self, runner, fast_config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "run10000.csv").write_text("left by an earlier run with 10001 runs\n")
        for extra in (["--per-run"], ["--per-run", "--runs", "1"], ["--policy", "fixed_max"]):
            result = runner.invoke(
                main, ["simulate", "--config", str(fast_config), "--out", str(out), *extra]
            )
            assert result.exit_code == 0, result.output
            written = sorted(os.path.basename(line[len("wrote "):])
                             for line in result.output.splitlines() if line.startswith("wrote "))
            assert sorted(p.name for p in out.iterdir()) == written
        assert written == ["metrics.csv", "metrics.meta.json"]

    def test_per_run_without_out_exits_2(self, runner, fast_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["simulate", "--config", str(fast_config), "--per-run"])
        assert result.exit_code == 2
        assert "--per-run needs --out" in result.output
        assert list(tmp_path.iterdir()) == [fast_config]

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "no.ini")])
        assert result.exit_code == 2  # click's own Path(exists=True) failure

    def test_bad_config_key_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(render_config(FAST).replace("[agent]", "[agent]\nturbo = on"))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2
        assert "config error" in result.output
        assert "turbo" in result.output

    def test_bad_policy_override_exits_2(self, runner, fast_config):
        result = runner.invoke(
            main, ["simulate", "--config", str(fast_config), "--policy", "loudest"]
        )
        assert result.exit_code == 2
        assert "unknown policy" in result.output

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_metric_exits_3(self, runner, tmp_path):
        path = tmp_path / "abort.ini"
        path.write_text(render_config({
            **FAST,
            "experiment.policy": "fixed_max",
            # finite, but the energy term overflows to inf
            "utility.energy_weight_per_mw": "1e308",
        }))
        for workers in ("1", "2"):
            result = runner.invoke(main, ["simulate", "--config", str(path),
                                          "--workers", workers])
            assert result.exit_code == 3, workers
            assert "aborted" in result.output

    def test_failed_allocation_exits_3(self, runner, fast_config, monkeypatch):
        """A MemoryError in the runs is reported as an abort, not a traceback."""
        def run_experiment(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr("vlcudn.cli.run_experiment", run_experiment)
        result = runner.invoke(main, ["simulate", "--config", str(fast_config)])
        assert result.exit_code == 3, result.output
        assert "aborted: Unable to allocate 1.00 TiB" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("policy,density", [("rpic", 24), ("random", 25)])
    def test_action_space_numpy_cannot_index_exits_2_before_any_run(
            self, runner, tmp_path, monkeypatch, policy, density):
        """Under an action_cap of 10**20, an rpic row of 6**24 float64s is
        past what np.zeros sizes, and a random pick below 6**25 past what
        numpy draws and unravels in int64."""
        calls = []
        monkeypatch.setattr("vlcudn.cli.run_experiment", lambda *args: calls.append(args))
        path = tmp_path / "wide.ini"
        path.write_text(render_config({**FAST, "agent.action_cap": 10**20,
                                       "experiment.policy": policy}))
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--density", str(density)])
        assert result.exit_code == 2, result.output
        assert f"config error: joint action space (L+1)^N = 6^{density} exceeds" in result.output
        assert calls == []

    def test_rpic_row_too_large_to_allocate_exits_3(self, runner, tmp_path):
        """6**23 float64s pass the config's limit, and the first row's
        5.48 EiB then fail to allocate."""
        path = tmp_path / "wide.ini"
        path.write_text(render_config({**FAST, "agent.action_cap": 10**20,
                                       "experiment.ue_density": 23, "experiment.runs": 1}))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 3, result.output
        assert "aborted: Unable to allocate 5.48 EiB" in result.output

    def test_grid_extent_past_a_float_exits_2(self, runner, tmp_path):
        """rows = 10**400 overflows the float product rows * spacing itself."""
        path = tmp_path / "wide.ini"
        path.write_text(render_config({**FAST, "topology.rows": 10**400}))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "config error: [topology] spacing_m = 2.0 times rows = 1000" in result.output

    def test_config_that_is_not_utf8_exits_2(self, runner, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(render_config(FAST).replace("[agent]", "# caf\xe9\n[agent]")
                         .encode("latin-1"))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"config error: cannot parse {path}: 'utf-8' codec can't decode" in result.output

    @pytest.mark.parametrize("overrides", [
        {"agent.sinr_cap": "nan"},
        {"topology.ap_height_m": "1e-200", "mobility.ue_height_m": 0.0},
        {"topology.spacing_m": "5e307"},  # the outer cells' edges overflow to inf
        # the squared distances to the grid centre overflow: AP 0 became the centre
        {"topology.rows": 4, "topology.cols": 4, "topology.reuse_mode": "two_block",
         "topology.spacing_m": "1e160"},
    ], ids=["nan-sinr-cap", "ap-drop-squares-to-zero", "grid-extent-overflows",
            "central-ap-distances-overflow"])
    def test_input_that_failed_mid_run_exits_2(self, runner, tmp_path, overrides):
        path = tmp_path / "bad.ini"
        path.write_text(render_config({**FAST, **overrides}))
        result = runner.invoke(main, ["simulate", "--config", str(path), "--runs", "1"])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--densities", "1,2"],
])
def test_out_that_cannot_be_created_exits_2_before_any_run(
    runner, fast_config, tmp_path, monkeypatch, command
):
    import vlcudn.cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran an experiment before creating --out")

    monkeypatch.setattr(vlcudn.cli, "run_experiment", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(main, [
        *command, "--config", str(fast_config), "--out", str(blocker / "sub"),
    ])
    assert result.exit_code == 2, result.output
    assert "cannot create --out:" in result.output


def test_density_directory_that_cannot_be_created_exits_2_before_any_run(
    runner, fast_config, tmp_path, monkeypatch
):
    import vlcudn.cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran an experiment before creating every rho<N>")

    monkeypatch.setattr(vlcudn.cli, "run_experiment", no_run)
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "rho2").write_text("")
    result = runner.invoke(main, [
        "sweep", "--config", str(fast_config), "--densities", "1,2", "--out", str(out),
    ])
    assert result.exit_code == 2, result.output
    assert "cannot create --out:" in result.output
    assert [p for p in out.rglob("*") if p.is_file()] == [out / "rho2"]


@pytest.mark.parametrize("name, extra", [
    ("metrics.csv", []),  # every save writes it
    ("qtable.tsv", ["--policy", "fixed_max"]),  # a save without a learner removes it
], ids=["written", "stale"])
def test_result_name_taken_by_a_directory_exits_2_before_any_run(
    runner, fast_config, tmp_path, monkeypatch, name, extra
):
    import vlcudn.cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran an experiment before checking --out")

    monkeypatch.setattr(vlcudn.cli, "run_experiment", no_run)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    result = runner.invoke(main, [
        "simulate", "--config", str(fast_config), "--out", str(out), *extra,
    ])
    assert result.exit_code == 2, result.output
    assert f"cannot write --out: {out / name} is not a file" in result.output


class TestSweep:
    def test_writes_one_directory_per_density(self, runner, fast_config, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--config", str(fast_config), "--densities", "1,2",
            "--out", str(out), "--runs", "1",
        ])
        assert result.exit_code == 0, result.output
        mean_rates = []
        for rho in ("rho1", "rho2"):
            csv = (out / rho / "metrics.csv").read_text().splitlines()
            assert len(csv) == 1 + FAST["agent.max_slots"]
            mean_rates.append(sum(float(line.split(",")[2]) for line in csv[1:]))
            meta = json.loads((out / rho / "metrics.meta.json").read_text())
            assert meta["ue_density"] == int(rho[-1])
        # denser cells split the band, so the single-UE run is faster per UE
        assert mean_rates[0] > mean_rates[1]

    def test_each_density_replaces_the_files(self, runner, tmp_path):
        """Each density is set before the config is checked, as simulate
        --density does: the file's own 6**9 actions, past action_cap, are
        never run and do not stop the sweep."""
        path = tmp_path / "dense.ini"
        path.write_text(render_config({**FAST, "experiment.ue_density": 9}))
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--config", str(path), "--densities", "1,2",
            "--out", str(out), "--runs", "1",
        ])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == ["rho1", "rho2"]
        for rho in (1, 2):
            meta = json.loads((out / f"rho{rho}" / "metrics.meta.json").read_text())
            assert meta["ue_density"] == rho

    def test_worker_count_does_not_change_the_tree(self, runner, fast_config, tmp_path):
        trees, outputs = [], []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            result = runner.invoke(main, [
                "sweep", "--config", str(fast_config), "--densities", "1,2,3",
                "--runs", "2", "--workers", workers, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            trees.append({str(p.relative_to(out)): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
            outputs.append(result.output.replace(str(out), "OUT"))
        assert len(trees[0]) == 9 and trees[0] == trees[1]
        assert outputs[0] == outputs[1]

    def test_runs_git_once_for_every_density(self, runner, fast_config, tmp_path, monkeypatch,
                                             fresh_git_describe):
        import vlcudn.harness

        calls = []

        def fake_git(cmd, **kwargs):
            calls.append(cmd)
            return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n", stderr="")

        monkeypatch.setattr(vlcudn.harness.subprocess, "run", fake_git)
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--config", str(fast_config), "--densities", "1,2,3",
            "--out", str(out), "--runs", "1",
        ])
        assert result.exit_code == 0, result.output
        assert calls == [["git", "describe", "--always", "--dirty"]]
        for rho in ("rho1", "rho2", "rho3"):
            meta = json.loads((out / rho / "metrics.meta.json").read_text())
            assert meta["git_describe"] == "abc1234"

    def test_rejects_malformed_density_list(self, runner, fast_config, tmp_path):
        result = runner.invoke(main, [
            "sweep", "--config", str(fast_config), "--densities", "1,two",
            "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
        assert "--densities" in result.output

    def test_rejects_zero_density(self, runner, fast_config, tmp_path):
        result = runner.invoke(main, [
            "sweep", "--config", str(fast_config), "--densities", "0,2",
            "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_rejects_repeated_density(self, runner, fast_config, tmp_path):
        out = tmp_path / "x"
        result = runner.invoke(main, [
            "sweep", "--config", str(fast_config), "--densities", "2,2",
            "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "config error" in result.output and "distinct" in result.output
        assert "converged utility" not in result.output
        assert not out.exists()


class TestInspectQ:
    def test_summarizes_written_table(self, runner, fast_config, tmp_path):
        out = tmp_path / "out"
        assert runner.invoke(
            main, ["simulate", "--config", str(fast_config), "--out", str(out)]
        ).exit_code == 0
        result = runner.invoke(
            main, ["inspect-q", "--qtable", str(out / "qtable.tsv"), "--top", "3"]
        )
        assert result.exit_code == 0, result.output
        assert "actions: 36" in result.output
        assert "state grid: rate_bins=3 gain_bins=3" in result.output
        assert "best states:" in result.output
        assert "power_mw=(" in result.output

    def test_prints_header_values_as_written(self, runner, tmp_path):
        """sinr_cap = 1 at one UE puts the rate grid's top edge at W log2(2)
        = 10 MHz exactly, which the header writes, and inspect-q prints, as
        an integer."""
        config, out = tmp_path / "c.ini", tmp_path / "out"
        config.write_text(render_config({**FAST, "agent.sinr_cap": 1,
                                         "experiment.ue_density": 1}))
        assert runner.invoke(main, ["simulate", "--config", str(config), "--runs", "1",
                                    "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["inspect-q", "--qtable", str(out / "qtable.tsv")])
        assert result.exit_code == 0, result.output
        assert "rate_max=10000000 gain_max=" in result.output

    @pytest.mark.parametrize("contents,reason", [
        ("not a table\n", "missing header row"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t-1\t1.0\n",
         "line 2 has action -1 outside [0, 6)"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t999\t1.0\n",
         "line 2 has action 999 outside [0, 6)"),
        (f"# {GRID} n_actions=216 power_levels=2 max_power=0.004\n0,0,0|0,0,0|3\t100\t1.0\n",
         "power grid power_levels=2 max_power=0.004 does not fit n_actions=216"),
        (f"# {GRID} n_actions=2.5 power_levels=1 max_power=0.004\n0|0|1\t1\t1.0\n",
         "n_actions must be an integer >= 1, got 2.5"),
        (f"# {GRID} n_actions=4 power_levels=3 max_power=0.004\n7|0|1\t0\t1.0\n",
         "line 2 has state key '7|0|1' with a bin outside the header's grid"),
        (f"# {GRID} n_actions=4 power_levels=3 max_power=0.004\n"
         "0|0|1\t1\t1.0\n0,0|0,0|2\t1\t1.0\n", "state keys mix UE counts [1, 2]"),
        (f"# {GRID} n_actions=1 power_levels=0 max_power=0.004\n0|0|1\t0\t1.0\n",
         "power grid power_levels=0 max_power=0.004 does not fit n_actions=1"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0\n0|0|1\t1\t1.0\n",
         "power grid power_levels=5 max_power=0 does not fit n_actions=6"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=inf\n0|0|1\t1\t1.0\n",
         "power grid power_levels=5 max_power=inf does not fit n_actions=6"),
        (f"# {GRID} n_actions=0 power_levels=1 max_power=0.004\n0|0|1\t0\t1.0\n",
         "n_actions must be an integer >= 1, got 0"),
        ("# n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t1\t1.0\n",
         "header lacks rate_bins, gain_bins, rate_max, gain_max"),
        (f"# {GRID} n_actions=6\n0|0|1\t1\t1.0\n", "header lacks power_levels, max_power"),
        ("# rate_bins=3 gain_bins=3 rate_max=nan gain_max=1 n_actions=6 power_levels=5"
         " max_power=0.004\n0|0|1\t1\t1.0\n", "rate_max must be finite and > 0, got nan"),
        ("# rate_bins=3 gain_bins=3 rate_max=1 gain_max=-1 n_actions=6 power_levels=5"
         " max_power=0.004\n0|0|1\t1\t1.0\n", "gain_max must be finite and > 0, got -1"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004 n_actions=36\n"
         "0,0|0,0|2\t1\t1.0\n", "header names n_actions twice"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n"
         "0|0|1\t1\t1.0\n0|0|1\t2\t1.0\n0|0|1\t1\t2.0\n",
         "line 4 repeats state key '0|0|1' action 1"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n"
         "0|0|1\t1\t1.0\n00|0|1\t1\t2.0\n", "line 3 repeats state key '00|0|1' action 1"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004 cells\n0|0|1\t1\t1.0\n",
         "header token 'cells' is not name=number"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=\n0|0|1\t1\t1.0\n",
         "header token 'max_power=' is not name=number"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t1\t1.0\n0|0|1\t2\n",
         "line 3 is not key, action and value, tab-separated: '0|0|1\\t2'"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t1\tabc\n",
         "line 2 is not key, action and value, tab-separated: '0|0|1\\t1\\tabc'"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n\n0|0|1\t1.5\t1.0\n",
         "line 3 is not key, action and value, tab-separated: '0|0|1\\t1.5\\t1.0'"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t1\t1.0\n0|0|1\t2\tnan\n",
         "line 3 has a non-finite value nan"),
        (f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n0|0|1\t1\t1.0\n0|x|1\t1\t1.0\n",
         "line 3 has a malformed state key '0|x|1'"),
        (f"# {GRID} n_actions=36 power_levels=5 max_power=0.004\n0,0|0|2\t1\t1.0\n",
         "line 2 has a malformed state key '0,0|0|2': needs one rate and gain bin per UE"),
    ], ids=["not-a-table", "negative-action", "action-past-end", "levels-disagree",
            "fractional-action-count", "bins-outside-grid", "mixed-ue-counts",
            "power-levels-zero", "max-power-zero", "max-power-inf", "zero-action-count",
            "missing-grid", "missing-power-grid", "grid-edge-nan", "grid-edge-negative",
            "header-field-twice", "state-action-twice", "state-action-twice-other-spelling",
            "header-token-without-value", "header-value-empty", "line-two-fields",
            "value-not-a-number", "action-not-an-integer", "value-not-finite",
            "state-key-not-numbers", "state-key-short-of-ues"])
    def test_rejects_garbage_file(self, runner, tmp_path, contents, reason):
        """Each input has a full header unless the header is its defect, and
        fails for that defect alone."""
        path = tmp_path / "junk.tsv"
        path.write_text(contents)
        result = runner.invoke(main, ["inspect-q", "--qtable", str(path)])
        assert result.exit_code == 2
        assert f"cannot read q-table: {reason}" in result.output

    def test_header_only_table_has_no_states(self, runner, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text(f"# {GRID} n_actions=6 power_levels=5 max_power=0.004\n")
        result = runner.invoke(main, ["inspect-q", "--qtable", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1] == "states: 0"

    def test_reads_each_row_in_place(self, runner, tmp_path):
        """20 rows of 6**7 actions hold 44.8 MB; the summary adds little to
        them at its peak, so no copy of all the rows is made."""
        n_actions = 6**7
        path = tmp_path / "q.tsv"
        lines = [f"# {GRID} n_actions={n_actions} power_levels=5 max_power=0.004"]
        for i in range(20):
            rates = ",".join(str(i // 3**k % 3) for k in range(7))
            lines.append(f"{rates}|0,0,0,0,0,0,0|7\t{1000 * i}\t{i - 10.5}")
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["inspect-q", "--qtable", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert "states: 20" in result.output
        assert "value range: [-10.5, 8.5]" in result.output
        assert peak < 1.5 * 20 * n_actions * 8

    def test_table_too_large_to_hold_exits_2(self, runner, tmp_path):
        """A header that claims 6**18 actions asks for 739 TiB per row, past
        any 47-bit address space, so the first row's allocation fails."""
        path = tmp_path / "q.tsv"
        zeros = ",".join("0" * 18)
        path.write_text(f"# {GRID} n_actions={6**18} power_levels=5 max_power=0.004\n"
                        f"{zeros}|{zeros}|18\t0\t1.0\n")
        result = runner.invoke(main, ["inspect-q", "--qtable", str(path)])
        assert result.exit_code == 2, result.output
        assert "cannot read q-table: Unable to allocate" in result.output

    def test_decodes_best_action_first_ue_most_significant(self, runner, tmp_path):
        path = tmp_path / "q.tsv"  # 100 = 2*36 + 4*6 + 4 on a 6-level grid
        path.write_text(f"# {GRID} n_actions=216 power_levels=5 max_power=0.004\n"
                        "0,0,0|0,0,0|3\t100\t1\n")
        result = runner.invoke(main, ["inspect-q", "--qtable", str(path)])
        assert result.exit_code == 0, result.output
        assert "action=100  q=1  power_mw=(1.6, 3.2, 3.2)" in result.output


@pytest.mark.parametrize("command,option,value", [
    ("simulate", "--workers", "0"),
    ("sweep", "--workers", "-4"),
    ("inspect-q", "--top", "-1"),
])
def test_out_of_range_integer_option_exits_2(
    runner, fast_config, tmp_path, command, option, value
):
    qtable = tmp_path / "q.tsv"
    qtable.write_text(f"# {GRID} n_actions=4 power_levels=3 max_power=0.004\n0|0|1\t1\t2.0\n")
    out = tmp_path / "out"
    args = {
        "simulate": ["--config", str(fast_config), "--out", str(out)],
        "sweep": ["--config", str(fast_config), "--densities", "1", "--out", str(out)],
        "inspect-q": ["--qtable", str(qtable)],
    }[command]
    result = runner.invoke(main, [command, *args, option, value])
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "wrote" not in result.output and "states:" not in result.output
    assert not out.exists()


class TestDeterminism:
    def test_replay_is_deterministic_and_changes_the_table(self, runner, tmp_path):
        written = {}
        for name, replay, workers in (
            ("first", "true", "1"), ("rerun", "true", "1"),
            ("parallel", "true", "2"), ("no_replay", "false", "1"),
        ):
            config = tmp_path / f"{name}.ini"
            config.write_text(render_config({**FAST, "agent.replay": replay}))
            out = tmp_path / name
            result = runner.invoke(main, [
                "simulate", "--config", str(config), "--out", str(out), "--workers", workers,
            ])
            assert result.exit_code == 0, result.output
            written[name] = {f: (out / f).read_bytes() for f in ("metrics.csv", "qtable.tsv")}
        assert written["first"] == written["rerun"] == written["parallel"]
        assert written["first"]["qtable.tsv"] != written["no_replay"]["qtable.tsv"]


def test_module_invocation_runs():
    """The CLI runs as a module, and starts without multiprocessing or
    concurrent.futures: its pool forks directly."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "vlcudn.cli", "--help"],
        capture_output=True, text=True
    )
    assert proc.returncode == 0
    for command in ("simulate", "sweep", "inspect-q"):
        assert command in proc.stdout
    imported = re.findall(r"^import time:.*\| +(\S+)$", proc.stderr, re.MULTILINE)
    assert "vlcudn.harness" in imported
    assert [m for m in imported if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


def _group_size(pgid: int) -> int:
    """How many live processes are in process group pgid."""
    size = 0
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except (OSError, ValueError):  # not a process, or one that has just exited
            continue
        size += fields[0] != "Z" and int(fields[2]) == pgid  # state, ppid, pgrp
    return size


@pytest.mark.parametrize("target", ["cli", "group"])
def test_sigterm_exits_143_and_leaves_no_worker(target):
    """SIGTERM to a pooled simulate, or to its whole process group, exits
    143 without running the queued runs, and no pool worker outlives the
    call.  The 5000 runs would take over a minute."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vlcudn.cli", "simulate", "--config",
         str(REPO_ROOT / "configs" / "reference.ini"), "--runs", "5000", "--workers", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while _group_size(proc.pid) < 3:  # the CLI and both workers
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        (os.kill if target == "cli" else os.killpg)(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=10) == 143
        deadline = time.monotonic() + 5
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.02)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


# The launcher an installer writes for a console-script entry point.
LAUNCHER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def _pyproject() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_version_is_read_from_the_package():
    """pyproject.toml takes the version from vlcudn.__version__, so an
    install and a source tree report the same one."""
    pyproject = _pyproject()
    assert "version" in pyproject["project"].get("dynamic", [])
    dynamic = pyproject.get("tool", {}).get("setuptools", {}).get("dynamic", {})
    assert dynamic.get("version") == {"attr": "vlcudn.__version__"}


def test_declared_dependencies_match_imports():
    """[project].dependencies names exactly the third-party packages that
    src/vlcudn imports, no more and no fewer."""
    imported = set()
    for path in (REPO_ROOT / "src" / "vlcudn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__"}
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0)
        for req in _pyproject()["project"]["dependencies"]
    }
    assert third_party == declared


def _defined_names(node: ast.stmt) -> list:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _is_command(node: ast.stmt) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"
        for d in getattr(node, "decorator_list", [])
    )


def test_package_names_are_used_outside_tests():
    """Every public top-level function, class and constant of src/vlcudn is
    used, as a name or an attribute, somewhere other than its own definition:
    in src/vlcudn, perfbench/ or pyproject.toml.  An import alone is not a
    use; a `@main.command()` registration is.  Every public method and
    property of a package class is used as an attribute in src/vlcudn or
    perfbench/, outside its own definition.  Code that only tests use lives
    under tests/."""
    package = sorted((REPO_ROOT / "src" / "vlcudn").glob("*.py"))
    tops = [
        (path, top)
        for path in package + sorted((REPO_ROOT / "perfbench").glob("*.py"))
        for top in ast.parse(path.read_text()).body
    ]
    used = [
        {sub.id if isinstance(sub, ast.Name) else sub.attr
         for sub in ast.walk(top) if isinstance(sub, (ast.Name, ast.Attribute))}
        for _, top in tops
    ]
    pyproject = set(re.findall(r"\w+", (REPO_ROOT / "pyproject.toml").read_text()))
    unused = [
        f"{path.stem}.{name}"
        for i, (path, top) in enumerate(tops) if path in package
        for name in _defined_names(top)
        if not name.startswith("_") and name not in pyproject and not _is_command(top)
        and not any(name in names for j, names in enumerate(used) if j != i)
    ]
    attributes = [sub for _, top in tops for sub in ast.walk(top)
                  if isinstance(sub, ast.Attribute)]
    for path, top in tops:
        if path not in package or not isinstance(top, ast.ClassDef):
            continue
        for member in top.body:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                own = set(ast.walk(member))
                if not any(a.attr == member.name and a not in own for a in attributes):
                    unused.append(f"{path.stem}.{top.name}.{member.name}")
    assert unused == []


def test_console_script_installed(tmp_path):
    """The `vlcudn` entry point declared in pyproject.toml runs and prints a
    version.  The launcher is generated here, as an installer would, so the
    test needs no install and reads the declared target, not the PATH."""
    scripts = _pyproject()["project"].get("scripts", {})
    assert "vlcudn" in scripts, "pyproject.toml declares no vlcudn console script"
    module, _, attr = scripts["vlcudn"].partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "vlcudn"
    launcher.write_text(LAUNCHER.format(python=sys.executable, module=module, attr=attr))
    launcher.chmod(0o755)
    path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    env = {**os.environ, "PATH": path}

    exe = shutil.which("vlcudn", path=path)
    assert exe, "vlcudn entry point missing from PATH"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "version" in proc.stdout
