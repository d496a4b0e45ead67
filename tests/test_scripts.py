"""The example scripts run end to end against the package in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphpde

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, expect", [
    ("two_solution_demo.py", [], "ps_diagnostic"),
    ("calculus_identity_sweep.py", ["--trials", "5"], "all within 1e-12: True"),
    ("band_factor_sweep.py", ["--trials", "4"],
     "no mismatch, cholesky and pivots within 1e-13, eigh within 1e-11: True"),
    ("report_sweep.py", ["--only", "path3"], "5 reports: 5 exit 0"),
])
def test_script_runs(script, args, expect):
    env = dict(os.environ, PYTHONPATH=str(Path(graphpde.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
