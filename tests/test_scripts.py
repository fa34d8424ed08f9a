"""Smoke tests for the command-line helpers under scripts/."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import kerrosc
from kerrosc.errors import PositivityLost

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

_HEADER = "# kerrosc 0.1.0\n# scenario: demo\n"


def run_diff(dir_a: Path, dir_b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "artifact_diff.py"), str(dir_a), str(dir_b)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def write_pair(tmp_path: Path, csv_b: str, grid_b: str) -> tuple[Path, Path]:
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    (dir_a / "demo_timeseries.csv").write_text(
        _HEADER + "t,mean_n,steps\n0,1.5,0\n1,2.0000000,10\n2,1e-9,20\n"
    )
    (dir_a / "demo_grid0_t0.grid").write_text(_HEADER + "# s: -1\n0.25 0.5\n1 2\n")
    (dir_b / "demo_timeseries.csv").write_text(_HEADER + csv_b)
    (dir_b / "demo_grid0_t0.grid").write_text(_HEADER + grid_b)
    return dir_a, dir_b


class TestArtifactDiff:
    def test_identical_directories(self, tmp_path):
        dir_a, dir_b = write_pair(
            tmp_path,
            "t,mean_n,steps\n0,1.5,0\n1,2.0000000,10\n2,1e-9,20\n",
            "# s: -1\n0.25 0.5\n1 2\n",
        )
        result = run_diff(dir_a, dir_b)
        assert result.returncode == 0
        assert result.stdout.strip() == "identical"

    def test_reports_per_column_changes(self, tmp_path):
        # the header line differs only in text; 2.0000000 -> 2 is the same
        # number; the near-zero cell 1e-9 -> 3e-9 is left out of the ratio
        dir_a, dir_b = write_pair(
            tmp_path,
            "t,mean_n,steps\n0,1.5,0\n1,2,12\n2,3e-9,20\n",
            "# s: -2\n0.25 0.5\n1 2.5\n",
        )
        (dir_b / "extra.csv").write_text("x\n1\n")
        result = run_diff(dir_a, dir_b)
        assert result.returncode == 1
        out = result.stdout
        assert f"only in {dir_b}: extra.csv" in out
        assert "differs: demo_timeseries.csv" in out
        assert "  mean_n: max_abs 2.000e-09 max_rel 0.000e+00" in out
        assert "  steps: max_abs 2.000e+00 max_rel 2.000e-01" in out
        assert "  t:" not in out
        assert "differs: demo_grid0_t0.grid" in out
        assert "  values: max_abs 5.000e-01 max_rel 2.500e-01" in out
        assert "largest absolute change: 2.000e+00 in demo_timeseries.csv:steps" in out

    def test_missing_directory_is_a_usage_error(self, tmp_path):
        result = run_diff(tmp_path, tmp_path / "absent")
        assert result.returncode == 2


def run_convergence(*args: str) -> subprocess.CompletedProcess:
    src = Path(kerrosc.__file__).resolve().parent.parent
    path_env = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "cutoff_convergence.py"), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path_env),
        timeout=120,
    )


class TestCutoffConvergence:
    def test_ladder_rejects_the_small_cutoff_and_prints_the_rest(self):
        result = run_convergence("--min-cutoff", "10", "--max-cutoff", "40", "--step", "10")
        assert result.returncode == 0, result.stderr
        rows = {
            line.split()[0]: line.split()[1:]
            for line in result.stdout.splitlines()
            if line.strip() and not line.startswith("#") and line.split()[0].isdigit()
        }
        assert sorted(rows, key=int) == ["10", "20", "30", "40"]
        assert rows["10"][0] == "rejected:"
        assert "diagonal tail" in " ".join(rows["10"])
        for n_cut in ("20", "30", "40"):
            values = [float(v) for v in rows[n_cut]]
            assert len(values) == 7
            assert values[0] == pytest.approx(5.1307108, rel=1e-6)

    def test_zero_loss_runs_without_traceback(self):
        result = run_convergence("--loss", "0", "--max-cutoff", "20")
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "rejected:" in result.stdout


def load_run_all_figures():
    spec = importlib.util.spec_from_file_location(
        "run_all_figures", SCRIPTS / "run_all_figures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunAllFigures:
    def test_totals_line_sums_the_scenarios(self, tmp_path):
        src = Path(kerrosc.__file__).resolve().parent.parent
        path_env = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        result = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_all_figures.py"), "--no-render",
             "--only", "fig5", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path_env),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0].startswith("fig5: 6 file(s), ")
        steps = int(lines[0].split(", ")[1].split()[0])
        assert steps > 0
        total = re.fullmatch(
            r"total: 1 scenario\(s\), 0 failure\(s\), (\d+) step\(s\), [0-9.]+ s",
            lines[-1],
        )
        assert total is not None and int(total.group(1)) == steps
        assert re.fullmatch(r"peak resident memory: [0-9.]+ MB", lines[-2])

    def test_failure_is_counted_and_the_sweep_goes_on(self, tmp_path, monkeypatch, capsys):
        module = load_run_all_figures()

        def fake_run(config, out_dir):
            if config.name == "fig10_fock9":
                raise PositivityLost("minimum eigenvalue -2e-09 below -1e-09")
            return SimpleNamespace(files=(), steps=5)

        monkeypatch.setattr(module, "run_scenario", fake_run)
        code = module.main(["--no-render", "--only", "fig1", "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "fig10_fock9.yaml: PositivityLost: minimum eigenvalue" in captured.err
        assert "Traceback" not in captured.err
        # fig1, fig10_{coherent,fock9,kitten}, fig11 and fig12
        assert "fig12: 0 file(s), 5 step(s)" in captured.out
        assert captured.out.splitlines()[-1].startswith(
            "total: 6 scenario(s), 1 failure(s), 25 step(s), "
        )
