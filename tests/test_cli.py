"""End-to-end command line behavior: outputs, overrides, exit codes."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys

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

    def test_non_finite_metric_exits_3(self, runner, tmp_path):
        path = tmp_path / "abort.ini"
        path.write_text(render_config({
            **FAST,
            "experiment.policy": "fixed_max",
            "utility.energy_weight_per_mw": "inf",
        }))
        result = runner.invoke(main, ["simulate", "--config", str(path)])
        assert result.exit_code == 3
        assert "aborted" in result.output


class TestSweep:
    def test_writes_one_directory_per_density(self, runner, fast_config, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--config", str(fast_config), "--densities", "1,2",
            "--out", str(out), "--runs", "1",
        ])
        assert result.exit_code == 0, result.output
        for rho in ("rho1", "rho2"):
            assert (out / rho / "metrics.csv").exists()
            meta = json.loads((out / rho / "metrics.meta.json").read_text())
            assert meta["ue_density"] == int(rho[-1])

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

    @pytest.mark.parametrize("contents", [
        "not a table\n",
        "# n_actions=216\n0|0|1\t-1\t1.0\n",
        "# n_actions=216\n0|0|1\t999\t1.0\n",
    ], ids=["not-a-table", "negative-action", "action-past-end"])
    def test_rejects_garbage_file(self, runner, tmp_path, contents):
        path = tmp_path / "junk.tsv"
        path.write_text(contents)
        result = runner.invoke(main, ["inspect-q", "--qtable", str(path)])
        assert result.exit_code == 2
        assert "cannot read q-table" in result.output


@pytest.mark.parametrize("command,option,value", [
    ("simulate", "--workers", "0"),
    ("sweep", "--workers", "-4"),
    ("inspect-q", "--top", "-1"),
])
def test_out_of_range_integer_option_exits_2(
    runner, fast_config, tmp_path, command, option, value
):
    qtable = tmp_path / "q.tsv"
    qtable.write_text("# n_actions=4\n0|0|1\t1\t2.0\n")
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
    def test_identical_invocations_identical_bytes(self, runner, fast_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert runner.invoke(main, [
                "simulate", "--config", str(fast_config), "--out", str(out),
            ]).exit_code == 0
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "qtable.tsv").read_bytes() == (outs[1] / "qtable.tsv").read_bytes()

    def test_worker_count_does_not_change_bytes(self, runner, fast_config, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, workers in ((serial, "1"), (parallel, "2")):
            assert runner.invoke(main, [
                "simulate", "--config", str(fast_config),
                "--out", str(out), "--workers", workers,
            ]).exit_code == 0
        assert (serial / "metrics.csv").read_bytes() == (parallel / "metrics.csv").read_bytes()


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vlcudn.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for command in ("simulate", "sweep", "inspect-q"):
        assert command in proc.stdout


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
