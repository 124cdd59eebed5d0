"""Spans and counters recorded from outside the package.

The package has no instrumentation of its own, so the traced run wraps its
public functions from here.  Each wrapped name is replaced wherever a
caller looks it up: on the class for methods (``AlgebraSpec.multiply``,
``OperatorMatrix.compose``), and for functions in every ``latticealg``
module that holds the same function object (``projections.mult_op``,
``inner.mult_op``, the package namespace, ...).  ``linalg.poly_eval`` is
looked up through the module by ``spectra``, so replacing the module
attribute covers it.

A span records its name, start and end (``perf_counter_ns``), its parent
span and the op it belongs to.  Spans are kept in flat arrays in memory and
written out by ``Tracer.write``.  Self time is a span's duration minus the
durations of its direct children; calls are single-threaded and nested, so
the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Optional

# (metric prefix, module, attribute or "Class.method").  Spans carry .calls
# and .self_s; the names follow the layers of the package.
SPAN_TARGETS: list[tuple[str, str, str]] = [
    ("algebra.multiply", "algebra", "AlgebraSpec.multiply"),
    ("algebra.verify_axioms", "algebra", "AlgebraSpec.verify_axioms"),
    ("algebra.solve_identity", "algebra", "AlgebraSpec.solve_identity"),
    ("operators.left_mult", "operators", "left_mult"),
    ("operators.right_mult", "operators", "right_mult"),
    ("operators.mult_op", "operators", "mult_op"),
    ("operators.compose", "operators", "OperatorMatrix.compose"),
    ("operators.rk_oracle", "operators", "rk_oracle"),
    ("operators.invert_element", "operators", "invert_element"),
    ("linalg.char_poly_monic", "linalg", "char_poly_monic"),
    ("linalg.solve", "linalg", "solve"),
    ("projections.is_band_projection", "projections", "is_band_projection"),
    ("projections.is_left_bp", "projections", "is_left_bp"),
    ("projections.is_right_bp", "projections", "is_right_bp"),
    ("projections.search_band_projections", "projections", "search_band_projections"),
    ("projections.enumerate_order_idempotents", "projections", "enumerate_order_idempotents"),
    ("center.ck_representation", "center", "ck_representation"),
    ("spectra.spectrum", "spectra", "spectrum"),
    ("spectra.rational_roots", "spectra", "rational_roots"),
    ("spectra.square_free_factors", "spectra", "square_free_factors"),
    ("inner.validate_family", "inner", "validate_family"),
    ("inner.enumerate_inner", "inner", "enumerate_inner"),
    ("inner.inner_bp", "inner", "inner_bp"),
    ("inner.is_inner", "inner", "is_inner"),
    ("inner.boolean_laws", "inner", "boolean_laws"),
    ("io.load_algebra", "io", "load_algebra"),
    ("cli.run", "cli", "run"),
]

# Hot, cheap functions get a call counter instead of a span.
COUNTER_TARGETS: list[tuple[str, str, str]] = [
    ("linalg.poly_eval.calls", "linalg", "poly_eval"),
    ("lattice.elements_built", "lattice", "LatticeElement.__post_init__"),
]

ROOT_SPAN = "bench.op"


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _count_grid(tracer: "Tracer", args, kwargs, result) -> None:
    algebra, grid = _arg(args, kwargs, 0, "algebra"), _arg(args, kwargs, 1, "grid")
    tracer.counters["projections.grid_points"] += grid.size(algebra.dim)
    tracer.counters["projections.grid_hits"] += len(result)


def _count_gamma(tracer: "Tracer", args, kwargs, result) -> None:
    family = _arg(args, kwargs, 1, "family")
    tracer.counters["inner.gamma_subsets"] += 2 ** (len(family) ** 2)
    tracer.counters["inner.distinct"] += len(result)


def _count_vertices(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["operators.rk_vertices"] += 2 ** _arg(args, kwargs, 2, "x").dim


def _count_irrational(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["spectra.irrational_roots"] += sum(r.multiplicity for r in result.other_roots)


def _count_rational(tracer: "Tracer", args, kwargs, result) -> None:
    # Zero roots are split off before the divisor search, without poly_eval.
    found = sum(m for root, m in result[0] if root != 0)
    tracer.counters["spectra.rational_roots_found"] += found


AFTER_HOOKS: dict[str, Callable] = {
    "projections.search_band_projections": _count_grid,
    "inner.enumerate_inner": _count_gamma,
    "operators.rk_oracle": _count_vertices,
    "spectra.spectrum": _count_irrational,
    "spectra.rational_roots": _count_rational,
}


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start[idx] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = perf_counter_ns()
            self._stack.pop()

    def run_op(self, op_id: int, fn: Callable, *args) -> Any:
        """fn(*args) as the root span of op `op_id`."""
        self.op_id = op_id
        return self.call(self.name_id(ROOT_SPAN), fn, args, {})

    # -- patching ----------------------------------------------------------

    def install(self, package: Any) -> None:
        """Wrap every target of `package` (the imported latticealg)."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for metric, mod_name, attr in SPAN_TARGETS:
            hook = AFTER_HOOKS.get(metric)
            self._patch(package, modules, mod_name, attr, self._span_wrapper(metric, hook))
        for metric, mod_name, attr in COUNTER_TARGETS:
            self._patch(package, modules, mod_name, attr, self._counter_wrapper(metric))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, package, modules, mod_name: str, attr: str, make: Callable) -> None:
        module = sys.modules[f"{package.__name__}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            self._undo.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def _span_wrapper(self, metric: str, hook: Optional[Callable]) -> Callable:
        nid = self.name_id(metric)

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.call(nid, fn, args, kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result

            return wrapper

        return make

    def _counter_wrapper(self, metric: str) -> Callable:
        counters = self.counters

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[metric] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
            del arr[:]
        self.counters.clear()

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        n = len(self.span_name)
        selfs = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                selfs[p] -= self.span_end[i] - self.span_start[i]
        return selfs

    def summary(self) -> dict[str, float]:
        """`<name>.calls` and `<name>.self_s` per span name, plus the counters."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, s in enumerate(self.self_times_ns()):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += s
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        out.update(self.counters)
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: id, name, op, parent, start_ns, end_ns."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.span_name[i]], "op": self.span_op[i],
                    "parent": self.span_parent[i], "start_ns": self.span_start[i],
                    "end_ns": self.span_end[i],
                }) + "\n")
