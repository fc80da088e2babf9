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


def test_walkthrough_fails_when_the_package_cannot_be_imported(tmp_path):
    """The CLI exits 1 for a FAIL line, and python3 -m exits 1 for a
    missing module too, so the walkthrough must notice the missing
    package itself. A package on PYTHONPATH that cannot be imported
    stands in for a missing one, and shadows an installed copy."""
    (tmp_path / "contactalg").mkdir()
    (tmp_path / "contactalg" / "__init__.py").write_text(
        'raise ImportError("contactalg is not importable here")\n'
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run(
        ["sh", "demos/cli_walkthrough.sh"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
