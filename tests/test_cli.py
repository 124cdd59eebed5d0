"""The latticealg command line: exit codes, formats, determinism."""

import json
import subprocess
import sys
import time

import pytest

import latticealg as la
from latticealg.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "builtin:upper2")
    assert code == 0
    assert "result: PASS" in out


def test_verify_failing_algebra(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "tensor": [[0, 0, 0, -1]]}))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_unknown_builtin_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "builtin:nope")
    assert code == 2
    assert "unknown builtin" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_target_and_flag_conflict(capsys):
    code, _, err = run_cli(capsys, "verify", "builtin:upper2", "--builtin", "upper2")
    assert code == 2
    assert "either" in err


def test_no_target(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_classify_grid_flag(capsys):
    code, out, _ = run_cli(capsys, "classify", "builtin:upper2", "--grid", "3")
    assert code == 0
    assert "(0, 1/3, 0)" in out


def test_classify_unknown_element(capsys):
    code, _, err = run_cli(capsys, "classify", "builtin:upper2", "--element", "zzz")
    assert code == 2
    assert "available" in err


def test_spectrum_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "builtin:upper2", "--element", "a23", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    entry = payload["elements"]["a23"]
    assert entry["char_poly"] == [12, -16, 7, -1]
    assert {"root": 2, "multiplicity": 2} in entry["rational_roots"]
    assert entry["spectral_radius"] == 3


def test_center_json(capsys):
    code, out, _ = run_cli(capsys, "center", "builtin:upper2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == [0, 2]
    assert payload["complement_support"] == [1]
    x = payload["decomposition_demo"]
    assert len(x["x"]) == 3


def test_inner_gamma_flow(capsys):
    code, out, _ = run_cli(
        capsys,
        "inner",
        "builtin:noid3",
        "--family",
        "p1",
        "--family",
        "p2",
        "--gamma",
        "(0,0),(1,1)",
    )
    assert code == 0
    assert "distinct inner projections: 4" in out
    assert "Boolean laws" in out and "pass" in out
    assert "NOT inner" in out  # the z-mask


def test_inner_bad_family(capsys):
    code, _, err = run_cli(
        capsys, "inner", "builtin:upper2", "--family", "E11", "--family", "E11"
    )
    assert code == 2


def test_inner_bad_gamma_text(capsys):
    for text in ("garbage", "(0,0) junk (-1,1)", "(0,0),(1", "(0," + "9" * 5000 + ")"):
        code, out, err = run_cli(
            capsys, "inner", "builtin:noid3", "--family", "p1", "--gamma", text
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse gamma") and err.count("\n") == 1


def test_gamma_text_forms(capsys):
    base = ["inner", "builtin:noid3", "--family", "p1", "--family", "p2", "--format", "json"]
    for text, pairs in (
        ("(0,0),(1,1)", [[0, 0], [1, 1]]),
        ("{(0,0), (1,1)}", [[0, 0], [1, 1]]),
        (" (1,0) (0,1) ", [[0, 1], [1, 0]]),
        ("{}", []),
        ("()", []),
    ):
        code, out, _ = run_cli(capsys, *base, "--gamma", text)
        assert code == 0
        assert json.loads(out)["gamma"] == pairs


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cap_flag_and_env(capsys, monkeypatch):
    # upper2-pair falls back to its four atoms as the family: |Λ|² = 16
    code, _, err = run_cli(capsys, "inner", "builtin:upper2-pair", "--cap", "9")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("LATTICEALG_CAP", "9")
    code, _, err = run_cli(capsys, "inner", "builtin:upper2-pair")
    assert code == 2
    # an explicit flag beats the environment
    code, out, _ = run_cli(capsys, "inner", "builtin:upper2-pair", "--cap", "16")
    assert code == 0
    assert "distinct inner projections: 64" in out
    monkeypatch.setenv("LATTICEALG_CAP", "not-a-number")
    code, _, err = run_cli(capsys, "inner", "builtin:upper2-pair")
    assert code == 2


def test_report_runs_deterministically(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "report", "builtin:m3-reflection")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("# Algebra report: m3-reflection")


def test_report_all_builtins(capsys):
    code, out, _ = run_cli(capsys, "report")
    assert code == 0
    for name in la.BUILTIN_NAMES:
        assert f"# Algebra report: {name}" in out


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "builtin:ck2", "--format", "markdown")
    assert code == 0
    assert out.startswith("# latticealg verify")


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken_loader(path):
        raise RuntimeError("a\nb")

    monkeypatch.setattr("latticealg.cli.load_algebra", broken_loader)
    code, out, err = run_cli(capsys, "verify", "some-file.json")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: a b\n"


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "latticealg.cli", "verify", "builtin:upper2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


def test_file_input_round_trip(tmp_path, capsys):
    alg = la.builtin("m3-reflection")
    path = tmp_path / "m3.json"
    la.save_algebra(alg, path)
    code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--element", "p")
    assert code == 0
    assert "p = (0, 1, 0): OI no / BP yes" in out


def test_parser_reuse_keeps_calls_independent(capsys):
    assert _build_parser() is _build_parser()
    for names in (["E12"], ["a23", "E11"], []):
        argv = ["classify", "builtin:upper2", "--format", "json"]
        for name in names:
            argv += ["--element", name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert set(json.loads(out)["elements"]) == set(names or la.builtin("upper2").elements)
    for family in (["p1", "p2"], ["p2"]):
        argv = ["inner", "builtin:noid3", "--format", "json"]
        for name in family:
            argv += ["--family", name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert list(json.loads(out)["family"]) == family
    for bad in (["classify", "builtin:upper2", "--grid", "x"], ["nosuchcommand"]):
        code, out, err = run_cli(capsys, *bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    code, _, _ = run_cli(capsys, "verify", "builtin:upper2")
    assert code == 0


@pytest.mark.parametrize(
    "tensor, element",
    [
        # diag(10¹²+39, 10¹²+61): a divisor search would trial-divide up to 10¹²
        ([[0, 0, 0, 1], [1, 1, 1, 1]], [1000000000039, 1000000000061]),
        # an m2-regular element with 40-digit entries and irrational eigenvalues
        (
            [list(key) + [1] for key in la.builtin("m2-regular").tensor],
            [
                "1234567890123456789012345678901234567891/987654321098765432109876543210987654321",
                "3141592653589793238462643383279502884197",
                "2718281828459045235360287471352662497757/7",
                "1",
            ],
        ),
    ],
)
def test_spectrum_of_large_entries_is_fast(tmp_path, capsys, tensor, element):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": len(element), "tensor": tensor, "elements": {"a": element}}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", str(path), "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 0, err
    entry = json.loads(out)["elements"]["a"]
    roots = entry["rational_roots"] + entry["numeric_roots"]
    assert sum(root["multiplicity"] for root in roots) == len(element)


def test_dense_tensor_past_the_product_limit_exits_2(tmp_path, capsys):
    n = 25  # a dense tensor needs 2n⁵ = 19,531,250 products, past 2²⁴
    rows = [[i, j, k, 1] for i in range(n) for j in range(n) for k in range(n)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"dim": n, "tensor": rows}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: the associativity check needs 19531250 tensor products; the limit is 16777216\n"
    )


@pytest.mark.parametrize(
    "target, grid, message",
    [
        # 10⁹ + 1 values: refused before a single one is built
        ("builtin:upper2", "1000000000", "grid has 1000000001^3 points"),
        # unital diagonal dim 20: 2²⁰ order idempotents, refused by the grid
        # search that runs before their enumeration
        ("diagonal", "2", "grid has 3486784401 points"),
    ],
)
def test_classify_refuses_large_grids_before_building(tmp_path, capsys, target, grid, message):
    if target == "diagonal":
        target = str(tmp_path / "diag20.json")
        rows = [[i, i, i, 1] for i in range(20)]
        (tmp_path / "diag20.json").write_text(json.dumps({"dim": 20, "tensor": rows}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", target, "--grid", grid)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: {message}; the limit is 250000\n"
