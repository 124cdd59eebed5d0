"""Make the benchmark's modules importable as top-level modules, the way
run.py and worker.py import each other."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
