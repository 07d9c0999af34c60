"""The benchmark's own test: its smoke mode runs one round of every workload,
untraced and traced, with every output check.

    python3 -m pytest bench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
