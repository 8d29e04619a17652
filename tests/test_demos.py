"""Smoke test: every demo script runs to completion at a small trial count.

Each demo is copied into a temporary directory first, so any figure it
saves next to itself lands there rather than in the source tree.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

# verify_conjecture1 needs at least 10k trials per construction
TRIALS = {"fading_collapse_check.py": 10_000}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(script), str(TRIALS.get(name, 2_000))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
