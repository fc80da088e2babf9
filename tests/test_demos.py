"""The demos run to the end: each exits 0 and prints no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        [sys.executable, "demos/algebra_tour.py"],
        [sys.executable, "demos/topology_crosscheck.py"],
        ["sh", "demos/cli_walkthrough.sh"],
    ],
    ids=["algebra_tour", "topology_crosscheck", "cli_walkthrough"],
)
def test_demo_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
