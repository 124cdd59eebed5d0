"""Benchmark of the latticealg command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout: it measures the package in the
checkout's src/, generates its inputs from --seed into .perfbench_work/,
runs each workload's ops in a fresh interpreter (one client, one process,
one thread, closed loop), checks every output against an independent
reference, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, measured from spans around the package's public
functions.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
from generate import WORKLOADS, write_workload
from tracing import SPAN_TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 10  # fresh interpreters timed for setup_s, besides the measured one
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 100  # on top of --seconds; the whole run must end within 180 s

# Times are reported at a reference machine speed.  The machines this runs
# on are shared and change speed by up to 2x from one second to the next,
# so the worker times a fixed chunk of Fraction arithmetic (worker.calibrate)
# before every op, and each op's wall and CPU time is scaled by
# CAL_REF_NS / (median chunk time around that op).  CAL_REF_NS is the chunk
# time inside the worker on a 2-core x86-64 sandbox with Python 3.11 in a
# quiet spell, so scaled times read close to raw times there.  Unscaled
# figures are kept in the results file.
CAL_REF_NS = 1_700_000
CAL_HALF_WINDOW = 3

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"),
]

# cli.run is reported by its self time only.
_SPANS = [metric for metric, _, _ in SPAN_TARGETS if metric != "cli.run"]
PER_LAYER = (
    [("lattice.elements_built", "count")]
    + [(f"{s}.{m}", u) for s in _SPANS for m, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("operators.rk_vertices", "count"), ("linalg.poly_eval.calls", "count"),
        ("projections.grid_points", "count"), ("projections.grid_hits", "count"),
        ("projections.grid_hit_ratio", "ratio"),
        ("spectra.irrational_roots", "count"), ("spectra.rational_root_hit_ratio", "ratio"),
        ("inner.gamma_subsets", "count"), ("inner.distinct", "count"),
        ("inner.distinct_ratio", "ratio"),
        ("setup.import_s", "s"), ("cli.run.self_s", "s"),
        ("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
        ("trace.overhead_frac", "ratio"),
    ]
)
_RATIOS = {
    "projections.grid_hit_ratio": ("projections.grid_hits", "projections.grid_points"),
    "inner.distinct_ratio": ("inner.distinct", "inner.gamma_subsets"),
    "spectra.rational_root_hit_ratio": ("spectra.rational_roots_found", "linalg.poly_eval.calls"),
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _worker_cmd(workdir: Path, seconds: float, trace: bool, setup_only: bool) -> list[str]:
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), str(ROOT), str(workdir),
           str(seconds), "1" if trace else "0"]
    return cmd + (["--setup-only"] if setup_only else [])


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float, int]:
    """Start a worker; return it with its set-up time (s) and import time (ns).

    Set-up times are not scaled: process start and imports do not follow
    the Fraction calibration chunk (scaling made set-up less steady, not
    more), so setup_s is the median over several fresh interpreters.
    """
    env = {k: v for k, v in os.environ.items() if k != "LATTICEALG_CAP"}
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish set-up (exit code {proc.returncode})")
    return proc, setup, int(line.split()[1])


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _source_identity() -> dict:
    files = sorted((ROOT / "src" / "latticealg").rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def count_failures(result: dict, wrong_ops: set[int]) -> int:
    """Failed executions: those the worker saw fail, plus every execution of
    an op whose output disagrees with the reference."""
    failed = {(f["pass"], f["op"]) for f in result["failures"]}
    for p in range(len(result["passes"])):
        failed |= {(p, k) for k in wrong_ops}
    return len(failed)


def check_outputs(workload: str, algebras, ops, outputs: dict[str, str]) -> dict[int, str]:
    """Reference verdict for the first output of every op: {op: reason}."""
    by_name = {a.name: a for a in algebras}
    wrong = {}
    for key, text in outputs.items():
        op = ops[int(key)]
        reason = reference.check(workload, by_name[op.file], op, text)
        if reason is not None:
            wrong[int(key)] = reason
    return wrong


def scaled_samples(result: dict, traced: bool) -> tuple[list[float], list[float]]:
    """(wall s, CPU s) of each execution in traced or untraced passes, scaled
    to the reference speed by the calibration chunks around the op."""
    walls, cpus = [], []
    for p, k, wall_ns, cpu_ns in result["samples"]:
        if result["passes"][p]["traced"] != traced:
            continue
        cal = result["calibration_ns"][p]
        window = cal[max(0, k - CAL_HALF_WINDOW + 1): k + CAL_HALF_WINDOW + 1]
        factor = CAL_REF_NS / statistics.median(window)
        walls.append(wall_ns * factor / 1e9)
        cpus.append(cpu_ns * factor / 1e9)
    return walls, cpus


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    walls, cpus = scaled_samples(result, traced=False)
    n_passes = sum(1 for p in result["passes"] if not p["traced"])
    lat_ms = [w * 1e3 for w in walls]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": _quantile(lat_ms, 90),
        "cpu_s": sum(cpus) / n_passes,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict, imports_ns: list[int]) -> tuple[dict[str, float], list[str]]:
    layers = result["layers"]
    traced = [p for p, info in enumerate(result["passes"]) if info["traced"]]
    # Self times are scaled by the median speed of their pass.
    factors = [CAL_REF_NS / statistics.median(result["calibration_ns"][p]) for p in traced]
    problems = []
    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in _RATIOS:
            num, den = _RATIOS[name]
            d = layers[0].get(den, 0)
            out[name] = layers[0].get(num, 0) / d if d else 0.0
        elif unit == "count":
            counts = {layer.get(name, 0) for layer in layers}
            if len(counts) != 1:
                problems.append(f"{name} differs between traced passes: {sorted(counts)}")
            out[name] = layers[0].get(name, 0)
        elif name.endswith(".self_s"):
            out[name] = statistics.median(
                layer.get(name, 0.0) * f for layer, f in zip(layers, factors))
    out["setup.import_s"] = statistics.median(imports_ns) / 1e9
    rates = {}
    for flag in (False, True):
        walls, _ = scaled_samples(result, traced=flag)
        rates[flag] = len(walls) / sum(walls)
    out["trace.untraced_ops_per_s"] = rates[False]
    out["trace.traced_ops_per_s"] = rates[True]
    out["trace.overhead_frac"] = 1 - rates[True] / rates[False]
    return out, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    algebras, ops = write_workload(workload, seed, workdir)

    warm, _, _ = _start(_worker_cmd(workdir, seconds, trace, True))  # writes bytecode caches
    _finish(warm, PROBE_TIMEOUT_S)
    # Half the set-up probes run before the measured worker and half after,
    # so that setup_s samples the machine over the whole run.
    setups, imports = [], []
    measured = SETUP_PROBES // 2
    for probe in range(SETUP_PROBES + 1):
        proc, setup, imp = _start(_worker_cmd(workdir, seconds, trace, probe != measured))
        _finish(proc, seconds + WORKER_GRACE_S if probe == measured else PROBE_TIMEOUT_S)
        setups.append(setup)
        imports.append(imp)

    result = json.loads((workdir / "worker.json").read_text())
    if not result["samples"]:
        raise BenchError(f"no op completed; first failure: {result['failures'][:1]}")
    wrong = check_outputs(workload, algebras, ops, result["outputs"])
    failed = count_failures(result, set(wrong))
    attempted = result["attempted"]
    if trace:
        metrics, problems = per_layer(result, imports)
        units = dict(PER_LAYER)
    else:
        metrics, problems = end_to_end(result, setups), []
        units = dict(END_TO_END)
    walls, _ = scaled_samples(result, traced=False)
    p90 = _quantile(walls, 90)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "latticealg_file": result["latticealg_file"], **_source_identity(),
        "ops_per_pass": len(ops), "passes": len(result["passes"]),
        "latency_samples": len(walls), "samples_beyond_p90": sum(1 for w in walls if w > p90),
        "raw_unscaled": {
            "ops_per_s": len(walls) / (sum(s[2] for s in result["samples"]
                                           if not result["passes"][s[0]]["traced"]) / 1e9),
            "median_calibration_ns": statistics.median(
                c for cal in result["calibration_ns"] for c in cal),
        },
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": ([{"op": k, "reason": r} for k, r in sorted(wrong.items())]
                     + result["failures"])[:50],
        "problems": problems,
        "outputs_sha256": hashlib.sha256("".join(
            result["outputs"].get(str(k), "") for k in range(len(ops))).encode()).hexdigest(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results_dir = ROOT / ".perfbench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_table(rec: dict) -> None:
    print(f"{rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"{rec['passes']} passes x {rec['ops_per_pass']} ops  "
          f"latticealg={rec['latticealg_file']}")
    notes = {
        "setup_s": f"median of {SETUP_PROBES + 1} fresh interpreters",
        "op_p50_ms": f"{rec['latency_samples']} samples",
        "op_p90_ms": f"{rec['latency_samples']} samples, {rec['samples_beyond_p90']} beyond p90",
        "cpu_s": f"process + children, per pass of {rec['ops_per_pass']} ops",
    }
    for name, m in rec["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    if not rec["trace"]:
        print(f"  {'failed_frac':<44} {rec['failed_frac']:>14.6g} ratio  "
              f"({rec['failed']} of {rec['attempted']} ops)")
    for f in rec["failures"][:5]:
        print(f"  FAILED op {f['op']}: {f['reason']}")
    for p in rec["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latticealg" / "__init__.py").is_file():
        print(f"error: no latticealg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_table(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): v for r in records for k, v in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["problems"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
