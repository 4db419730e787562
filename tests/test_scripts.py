"""The scripts under scripts/ start, parse their options and, for the
tracker curve, write its CSVs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script", ["bounded_noise_curve.py", "phase_grid.py", "single_vs_mixture.py"]
)
def test_help_exits_zero(script):
    done = _run(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_bounded_noise_curve_writes_column_log(tmp_path):
    done = _run(
        "bounded_noise_curve.py", "--trials", "1", "--noise-levels", "0.6",
        "--out-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "bounded_eps0.6.csv").exists()
    assert (tmp_path / "bounded_eps0.6_columns.csv").exists()
