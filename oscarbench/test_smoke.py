"""The benchmark's own test: smoke mode must pass.

Smoke mode runs every workload at tiny sizes, untraced and traced, in
fresh processes, and fails unless each run prints every metric of the
manifest with its unit and no operation failed.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_prints_every_metric_without_failures():
    completed = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
