"""Smoke test of the benchmark itself: every workload at tiny size."""

import subprocess
import sys
from pathlib import Path


def test_smoke_prints_every_metric_and_no_failures():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
