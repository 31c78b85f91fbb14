"""Smoke runs of the scripts in `scripts/` from a checkout: each must exit 0."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("fuzz_pullback.py", ["--trials", "20"]),
        ("census_demo.py", ["--samples", "16"]),
        ("cascade_table.py", ["--max-rank", "4"]),
        ("census_demo.py", ["--samples", "8", "--axb-max", "2"]),
        ("cli_digest.py", []),
        ("startup_times.py", ["--repeat", "1"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout and "Traceback" not in proc.stderr
