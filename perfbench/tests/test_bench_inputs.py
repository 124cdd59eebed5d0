"""Seeded inputs and the benchmark's own definition file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from generate import WORKLOADS, write_workload

ROOT = Path(__file__).resolve().parents[2]


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_files_other_seed_other_files(tmp_path, workload):
    write_workload(workload, 7, tmp_path / "a")
    write_workload(workload, 7, tmp_path / "b")
    write_workload(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a != c


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_refuses_to_run_without_the_package(tmp_path):
    """Only BENCHMARK.json and the benchmark's directory: exit nonzero, print no result."""
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
