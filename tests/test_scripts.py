"""The scripts under scripts/ run and report what they check."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rk_audit_reports_no_mismatch():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rk_audit.py"), "--trials", "20", "--seed", "7"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ": 0 mismatches (" in proc.stdout
