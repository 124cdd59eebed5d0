"""Wrong answers are counted, and the traced run changes nothing the user sees."""

from pathlib import Path

import pytest

import run
from generate import write_workload
from tracing import ROOT_SPAN, Tracer
from worker import PassRunner, import_package, run_op

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def la():
    return import_package(ROOT)


def _one_pass(la, workload, seed, directory, tracer=None):
    algebras, ops = write_workload(workload, seed, directory)
    raw = [{"argv": o.argv, "file": o.file, "call": o.call} for o in ops]
    runner = PassRunner(la, raw, directory, tracer)
    runner.run_pass(traced=tracer is not None)
    return algebras, ops, runner


def _result(runner):
    return {"passes": runner.passes, "failures": runner.failures}


def test_correct_pass_has_no_failures(la, tmp_path):
    algebras, ops, runner = _one_pass(la, "audit", 3, tmp_path)
    outputs = {str(k): v for k, v in runner.outputs.items()}
    assert run.check_outputs("audit", algebras, ops, outputs) == {}
    assert run.count_failures(_result(runner), set()) == 0


def test_injected_wrong_answer_is_counted(la, tmp_path, monkeypatch):
    """rk_oracle answering x itself disagrees with op_sup(L_a, R_b)(x)."""
    monkeypatch.setattr(la, "rk_oracle", lambda s, t, x: x)
    algebras, ops, runner = _one_pass(la, "audit", 3, tmp_path)
    outputs = {str(k): v for k, v in runner.outputs.items()}
    wrong = run.check_outputs("audit", algebras, ops, outputs)
    with_call = {k for k, op in enumerate(ops) if op.call}
    assert set(wrong) == with_call
    assert all("rk_oracle" in reason for reason in wrong.values())
    assert run.count_failures(_result(runner), set(wrong)) == len(with_call)


def test_tampered_output_is_counted(la, tmp_path):
    algebras, ops, runner = _one_pass(la, "inner", 4, tmp_path)
    outputs = {str(k): v for k, v in runner.outputs.items()}
    outputs["0"] = outputs["0"].replace('"family_valid": true', '"family_valid": false')
    assert set(run.check_outputs("inner", algebras, ops, outputs)) == {0}


def test_spans_nest_and_self_times_add_up(la, tmp_path):
    originals = (la.projections.mult_op, la.inner.mult_op, la.AlgebraSpec.multiply)
    tracer = Tracer()
    tracer.install(la)
    try:
        _, _, traced = _one_pass(la, "inner", 5, tmp_path / "t", tracer)
    finally:
        tracer.uninstall()
    assert (la.projections.mult_op, la.inner.mult_op, la.AlgebraSpec.multiply) == originals
    assert not traced.failures
    _, _, plain = _one_pass(la, "inner", 5, tmp_path / "u")
    assert traced.outputs == plain.outputs  # stdout byte-identical with tracing on and off

    n = len(tracer.span_name)
    names = [tracer.names[i] for i in tracer.span_name]
    assert {"operators.mult_op", "operators.compose", "inner.enumerate_inner"} <= set(names)
    selfs = tracer.self_times_ns()
    roots = [i for i in range(n) if tracer.span_parent[i] == -1]
    assert all(names[i] == ROOT_SPAN for i in roots)
    for i in range(n):
        p = tracer.span_parent[i]
        if p >= 0:
            assert tracer.span_start[p] <= tracer.span_start[i] <= tracer.span_end[i]
            assert tracer.span_end[i] <= tracer.span_end[p]
            assert tracer.span_op[i] == tracer.span_op[p]
        assert selfs[i] >= 0
    for r in roots:
        op_total = sum(selfs[i] for i in range(n) if tracer.span_op[i] == tracer.span_op[r])
        assert op_total == tracer.span_end[r] - tracer.span_start[r]
    summary = tracer.summary()
    assert summary["inner.enumerate_inner.calls"] >= len(roots)
    assert summary["inner.gamma_subsets"] > summary["inner.distinct"] > 0


def test_run_op_output_is_the_cli_json(la, tmp_path):
    _, ops, _ = _one_pass(la, "spectrum", 2, tmp_path)
    raw = {"argv": ops[0].argv, "file": ops[0].file, "call": None}
    code, text = run_op(la, raw, tmp_path)
    assert code == 0 and text.startswith("{\n")
