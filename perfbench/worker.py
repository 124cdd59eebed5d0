"""The measured process: runs one workload's ops in a fresh interpreter.

    python -E -s perfbench/worker.py ROOT WORKDIR SECONDS TRACE [--setup-only]

Set-up imports ``latticealg`` from ROOT/src (never an installed copy),
loads every algebra of the workload and solves for its identity, then
writes one line ``ready <import_ns>`` to stdout.  With --setup-only it
stops there.  Otherwise it runs the op list in whole passes, one op at a
time, until SECONDS have passed (and at least MIN_SAMPLES untraced ops have
run), and writes WORKDIR/worker.json.

With TRACE=1 the passes alternate between untraced and traced, so that the
tracing overhead is the gap between the two, and the spans of the first
traced pass are written to WORKDIR/spans.jsonl.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

Op = dict

# Whole passes continue past SECONDS until this many untraced executions
# exist, so that at least ten latency samples lie beyond p90.
MIN_SAMPLES = 110


def import_package(root: Path):
    """Import latticealg from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import latticealg
    import latticealg.cli  # the ops' entry point; not imported by the package itself

    if Path(latticealg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"latticealg imported from {latticealg.__file__}, not from {src}")
    return latticealg


def _wire(la, x) -> list:
    return la.element_to_wire(x) if x is not None else None


def library_call(la, call: dict, path: str) -> dict:
    """The op's library call, in the same process as its command."""
    algebra = la.load_algebra(path)
    if call["kind"] == "invert":
        return {
            name: _wire(la, la.invert_element(algebra, algebra.elements[name]))
            for name in call["elements"]
        }
    if call["kind"] == "rk_oracle":
        el = algebra.elements
        s = la.left_mult(algebra, el[call["a"]])
        t = la.right_mult(algebra, el[call["b"]])
        return {"rk_oracle": _wire(la, la.rk_oracle(s, t, el[call["x"]]))}
    raise ValueError(f"unknown library call {call['kind']!r}")


def calibrate() -> int:
    """Nanoseconds for a fixed piece of Fraction arithmetic (about 1 ms).

    Shared machines change speed from second to second; timing this chunk
    between ops tells the parent how fast the machine ran around each op.
    """
    t0 = perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    return perf_counter_ns() - t0


def cpu_ns() -> int:
    """CPU time of this process, all its threads and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((children.ru_utime + children.ru_stime) * 1e9)


def run_op(la, op: Op, workdir: Path) -> tuple[int, str]:
    """One user command through cli.main with stdout captured, plus the
    op's library call; returns (exit code, output text)."""
    path = str(workdir / f"{op['file']}.json")
    argv = [a.replace("{file}", path) for a in op["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = la.cli.main(argv)
    text = out.getvalue()
    if op.get("call"):
        text += json.dumps(library_call(la, op["call"], path), sort_keys=True) + "\n"
    return code, text


class PassRunner:
    """Runs passes over the op list and keeps what the parent checks."""

    def __init__(self, la, ops: list[Op], workdir: Path, tracer=None) -> None:
        self.la, self.ops, self.workdir, self.tracer = la, ops, workdir, tracer
        self.outputs: dict[int, str] = {}  # first output of each op
        self.digests: dict[int, str] = {}
        self.failures: list[dict] = []
        self.samples: list[tuple[int, int, int, int]] = []  # pass, op, wall ns, cpu ns
        self.calibration_ns: list[list[int]] = []  # per pass: before each op, and at the end
        self.passes: list[dict] = []
        self.attempted = 0

    def _fail(self, op: int, reason: str) -> None:
        self.failures.append({"pass": len(self.passes), "op": op, "reason": reason})

    def run_pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        n_pass = len(self.passes)
        cal: list[int] = []
        for k, op in enumerate(self.ops):
            cal.append(calibrate())
            self.attempted += 1
            cpu0, start = cpu_ns(), perf_counter_ns()
            try:
                if tracer is None:
                    code, text = run_op(self.la, op, self.workdir)
                else:
                    code, text = tracer.run_op(self.attempted, run_op, self.la, op, self.workdir)
            except Exception as exc:  # a crashing op is a failed op, not a crashed run
                self._fail(k, f"raised {exc!r}")
                continue
            self.samples.append(
                (n_pass, k, perf_counter_ns() - start, cpu_ns() - cpu0)
            )
            if code != 0:
                self._fail(k, f"exit code {code}")
                continue
            digest = hashlib.sha256(text.encode()).hexdigest()
            if k not in self.digests:
                self.digests[k], self.outputs[k] = digest, text
            elif self.digests[k] != digest:
                what = "traced" if traced else "repeated"
                self._fail(k, f"{what} output differs")
        cal.append(calibrate())
        self.calibration_ns.append(cal)
        self.passes.append({"traced": traced, "ops": len(self.ops)})


def main(argv: list[str]) -> int:
    root, workdir = Path(argv[0]), Path(argv[1])
    seconds, trace = float(argv[2]), argv[3] == "1"
    t0 = perf_counter_ns()
    la = import_package(root)
    import_ns = perf_counter_ns() - t0
    ops = json.loads((workdir / "ops.json").read_text())
    for name in sorted({op["file"] for op in ops}):
        la.load_algebra(workdir / f"{name}.json").has_identity()
    sys.stdout.write(f"ready {import_ns}\n")
    sys.stdout.flush()
    if "--setup-only" in argv:
        return 0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = PassRunner(la, ops, workdir, tracer)
    layers: list[dict] = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        runner.run_pass(traced=False)
        if tracer is not None:
            tracer.reset()
            tracer.install(la)
            try:
                runner.run_pass(traced=True)
            finally:
                tracer.uninstall()
            layers.append(tracer.summary())
            if len(layers) == 1:
                tracer.write(workdir / "spans.jsonl")
        untraced = sum(1 for p, *_ in runner.samples if not runner.passes[p]["traced"])
        if perf_counter_ns() >= deadline and untraced >= MIN_SAMPLES:
            break
    result = {
        "latticealg_file": la.__file__,
        "import_ns": import_ns,
        "passes": runner.passes,
        "samples": runner.samples,
        "calibration_ns": runner.calibration_ns,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "outputs": {str(k): v for k, v in runner.outputs.items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
