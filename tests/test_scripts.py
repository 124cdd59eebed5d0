"""The scripts under scripts/ run and report what they check."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import latticealg as la
from latticealg.cli import build_report

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_rk_audit_reports_no_mismatch():
    proc = run_script("rk_audit.py", "--trials", "20", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ": 0 mismatches (" in proc.stdout


def test_bp_grid_survey_counts_the_order_idempotents():
    proc = run_script("bp_grid_survey.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in la.BUILTIN_NAMES:
        alg = la.builtin(name)
        block = proc.stdout.split(f"== {name} (dim {alg.dim}) ==\n")[1].split("\n\n")[0]
        if alg.has_identity():
            count = len(la.enumerate_order_idempotents(alg))
            assert f"order idempotents (complete): {count}\n" in block
        else:
            assert "order idempotents: no identity\n" in block
        assert "N=4: " in block
        assert "left-and-right members at N=2: " in block


def test_build_reports_round_trip_every_builtin(tmp_path):
    proc = run_script("build_reports.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in la.BUILTIN_NAMES:
        meta = la.builtin_meta(name)
        want = build_report(la.builtin(name), meta)
        assert (tmp_path / f"{name}.md").read_text() == want
        loaded = la.load_algebra(tmp_path / f"{name}.json")
        assert build_report(loaded, meta) == want


def test_cli_digest_is_deterministic():
    first = run_script("cli_digest.py", "--builtins", "upper2")
    second = run_script("cli_digest.py", "--builtins", "upper2")
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    # 6 commands and 2 grids, 3 formats each; inner --gamma in 3 formats;
    # inner --element for each named element in 3 formats; then the
    # no-target report in 3 formats, and the fixed refusals
    builtin_lines = 8 * 3 + 3 + 3 * len(la.builtin("upper2").elements)
    refusals = lines[builtin_lines + 3:]
    assert len(refusals) >= 15
    for line in lines[:builtin_lines]:
        sha_out, sha_err, code, command = line.split(" ", 3)
        assert len(sha_out) == len(sha_err) == 64 and code in {"0", "1", "2"}
        assert command.split(" ")[1] == "builtin:upper2"
    for line, fmt in zip(lines[builtin_lines:], ("text", "json", "markdown")):
        sha_out, sha_err, code, command = line.split(" ", 3)
        assert (len(sha_out), code, command) == (64, "0", f"report --format {fmt}")
    empty = hashlib.sha256(b"").hexdigest()
    for line in refusals:
        sha_out, sha_err, code, _ = line.split(" ", 3)
        # a refusal writes one stderr line and exits 2; a run writes stdout
        assert (sha_out == empty) == (code == "2") == (sha_err != empty), line
    assert any(line.endswith(" 2 verify builtin:ck2 --f json") for line in refusals)
    assert any(line.endswith(" 0 verify builtin:ck2 --format=json") for line in refusals)
    assert any(line.endswith(" inner builtin:upper2 --gamma (0,0),(1,1) --format json")
               for line in lines)
