"""Demos 01, 03, 04 and 06 run to completion: 01 is the basic direct
solve, 03 uses the factor as a PCG preconditioner, 04 reads the factor's
records and 06 saves and reloads a factor file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_direct_solver_basics.py",
                                  "03_high_contrast_field.py",
                                  "04_helmholtz_indefinite.py",
                                  "06_estimators_and_io.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
    assert out.returncode == 0, out.stderr
