"""Helpers shared by the harness, the worker and the recorder.

Nothing here imports contactalg: the harness must be able to generate
inputs and check outputs without loading the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DIGEST_CHARS = 12


def digest(text: str) -> str:
    """Short stable digest of one job's canonical output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_CHARS]


def spec_digest(obj) -> str:
    """Digest of a job list, so a recorded table is only used for the
    exact inputs it was recorded from."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()[:16]


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop.

    Recorded at the start and end of each worker so a slow machine can be
    told apart from a slow change. It is reported, never used to rescale.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": cpus,
    }


def program_present() -> bool:
    return (SRC_DIR / "contactalg" / "__init__.py").is_file()
