"""The latticealg command line: exit codes, formats, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from cli_reference import config_from_args as reference_config_from_args
from latticealg.cli import COMMANDS, _config_from_args, main
from latticealg.errors import InputError
from latticealg.lattice import as_scalar, int_digit_limit
from latticealg.report import fmt_mask


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


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify"], "  laws: pass; positive: yes; norm one: unknown"),
        (["verify", "--format", "markdown"], "    laws: pass; positive: yes; norm one: unknown"),
        (["report"], "- identity: (1, 0) — laws pass, positive: yes, norm one: unknown"),
    ],
)
def test_undecided_identity_norm_prints_unknown(tmp_path, capsys, argv, line):
    # a p-norm leaves ‖e‖ = 1 undecided (identity_norm_one is None, null in
    # JSON), although here e = (1, 0) has norm 1: "unknown", not "no"
    path = tmp_path / "pnorm.json"
    tensor = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2]]
    path.write_text(json.dumps({"dim": 2, "tensor": tensor, "norm": {"kind": "p", "p": "3/2"}}))
    code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    assert line in out.splitlines()


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


def test_inner_gamma_pair_out_of_range(capsys):
    code, out, err = run_cli(
        capsys, "inner", "builtin:noid3", "--family", "p1", "--gamma", "(0,5)"
    )
    assert (code, out) == (2, "")
    assert err == "error: pair (0, 5) out of range for a family of size 1\n"


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


def test_inner_json_lists_family_names_in_member_order(tmp_path, capsys):
    """family_names keeps repeats, which the name-keyed family object loses;
    on every builtin it lists the members of the text output in order."""
    alg = la.algebra_from_dict({"dim": 2, "tensor": [[0, 0, 0, 1]], "elements": {"z": [0, 0]}})
    path = tmp_path / "zeros.json"
    la.save_algebra(alg, path)
    code, out, _ = run_cli(capsys, "inner", str(path), *["--family", "z"] * 3, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family_names"] == ["z", "z", "z"]
    assert payload["family"] == {"z": [0, 0]}
    for name in la.BUILTIN_NAMES:
        code, text, _ = run_cli(capsys, "inner", f"builtin:{name}")
        assert code == 0
        lines = text.splitlines()
        size = int(lines[1].split("(")[1].split()[0])
        members = [line.split(" = ")[0].strip() for line in lines[2:2 + size]]
        code, out, _ = run_cli(capsys, "inner", f"builtin:{name}", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family_names"] == members, name
        assert list(payload["family"]) == members, name


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["inner", "x", "-h"], ["verify", "--he"], ["-hh"]])
def test_help_prints_the_usage_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (la.cli.USAGE, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["--"], "the following arguments are required: command"),
        (["foo"], "argument command: invalid choice: 'foo' (choose from 'verify', 'classify', "
                  "'center', 'spectrum', 'inner', 'report')"),
        (["classify", "builtin:ck2", "--grid", "x"], "argument --grid: invalid int value: 'x'"),
        # argparse stored an empty list for "--opt=--", which --grid met as exit 3
        (["classify", "builtin:ck2", "--grid=--"], "argument --grid: invalid int value: '--'"),
        (["verify", "builtin:ck2", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json', 'markdown')"),
        (["classify", "builtin:ck2", "--element"], "argument --element: expected one argument"),
        (["classify", "builtin:ck2", "--element", "-x"], "argument --element: expected one argument"),
        (["verify", "builtin:ck2", "--f", "json"], "ambiguous option: --f could match --family, --format"),
        (["verify", "builtin:ck2", "b"], "unrecognized arguments: b"),
        (["--x", "verify", "builtin:ck2", "-y"], "unrecognized arguments: --x -y"),
        (["verify", "builtin:ck2", "--grid", "3", "--", "b"], "unrecognized arguments: -- b"),
        (["verify", "builtin:ck2", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_refusals_keep_their_wording(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_option_forms(capsys):
    want = _config_from_args(["classify", "builtin:ck2", "--grid", "-1", "--format", "json"])
    assert want.grid == -1
    for argv in (
        ["classify", "--builtin", "ck2", "--grid=-1", "--format=json"],
        ["classify", "--gr", "-1", "--fo=json", "--bu", "ck2"],
        ["classify", "--grid", "-1", "--format", "json", "--", "builtin:ck2"],
    ):
        assert _config_from_args(argv) == want, argv
    assert _config_from_args(["verify", "--", "-x"]).input_path == "-x"
    assert _config_from_args(["verify", "--element=", "--element", "-1", "x"]).elements == ["", "-1"]


def parse_outcome(parse, argv):
    """A RunConfig, ("refused", message) or ("exit", code), with stdout muted."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return parse(argv)
    except InputError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


_OPTION_NAMES = [
    "--input", "--builtin", "--element", "--family", "--gamma", "--grid", "--format", "--cap",
    "--in", "--bu", "--el", "--fa", "--ga", "--gr", "--fo", "--c",  # unique prefixes
    "--f", "--g", "--", "---",  # ambiguous, or "--" itself
    "--x", "-x", "-1x", "-h", "--he", "-hx", "--help=", "--help=h", "-hh", "-h=",
]
_VALUES = [
    "3", "-1", "0", "x", "json", "xml", "markdown", "p1", "E12", "(0,0)", "-x", "-", "",
    "a b", "-1.5", "builtin:ck2", "builtin:nope", "f.json", "--",
]
_TOKENS = st.one_of(
    st.sampled_from(_OPTION_NAMES),
    st.sampled_from(_VALUES),
    # "--opt=--" is left out: argparse stored an empty list for it
    st.tuples(st.sampled_from(_OPTION_NAMES), st.sampled_from(_VALUES[:-1])).map("=".join),
)


@settings(max_examples=600, deadline=None)
@given(
    st.lists(_TOKENS, max_size=2),
    st.sampled_from([*COMMANDS, "foo", "", "--", "-1", "VERIFY"]),
    st.lists(_TOKENS, max_size=8),
)
def test_command_lines_parse_as_argparse_parsed_them(before, command, after):
    """The option table gives argparse's RunConfig, refusal or help exit on
    command lines drawn from the commands and junk, file, builtin: and -1
    targets, options whole, by prefix and with "=", "--", values that
    start with "-", repeated options and extra targets."""
    argv = [*before, command, *after]
    assert parse_outcome(_config_from_args, argv) == parse_outcome(reference_config_from_args, argv)


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


def test_options_are_validated_only_by_the_command_that_reads_them(capsys, monkeypatch):
    # only inner reads the cap, and only classify the grid
    monkeypatch.setenv("LATTICEALG_CAP", "abc")
    for command in ("verify", "classify"):
        code, _, err = run_cli(capsys, command, "builtin:ck2")
        assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "inner", "builtin:ck2")
    assert code == 2
    assert out == ""
    assert err == "error: LATTICEALG_CAP must be an integer, got 'abc'\n"
    monkeypatch.delenv("LATTICEALG_CAP")
    code, _, _ = run_cli(capsys, "verify", "builtin:ck2", "--grid", "0", "--cap", "0")
    assert code == 0
    code, _, err = run_cli(capsys, "classify", "builtin:ck2", "--grid", "0")
    assert (code, err) == (2, "error: grid resolution must be positive\n")
    code, _, err = run_cli(capsys, "inner", "builtin:ck2", "--cap", "0")
    assert (code, err) == (2, "error: cap must be positive\n")


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["classify", "--grid", "0"], None, "grid resolution must be positive"),
        (["inner", "--cap", "0"], None, "cap must be positive"),
        (["inner"], "x", "LATTICEALG_CAP must be an integer, got 'x'"),
    ],
)
def test_options_are_refused_before_the_file_is_read(
    tmp_path, capsys, monkeypatch, argv, env, message
):
    if env is None:
        monkeypatch.delenv("LATTICEALG_CAP", raising=False)
    else:
        monkeypatch.setenv("LATTICEALG_CAP", env)
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, argv[0], missing, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_report_ignores_the_other_commands_options(capsys, monkeypatch):
    monkeypatch.delenv("LATTICEALG_CAP", raising=False)
    code, want, err = run_cli(capsys, "report", "builtin:noid3")
    assert (code, err) == (0, "") and want
    # a cap at which inner refuses noid3's default family
    monkeypatch.setenv("LATTICEALG_CAP", "3")
    assert run_cli(capsys, "inner", "builtin:noid3")[0] == 2
    assert run_cli(capsys, "report", "builtin:noid3") == (0, want, "")
    monkeypatch.delenv("LATTICEALG_CAP")
    options = ["--cap", "1", "--grid", "5", "--element", "p1", "--family", "p1", "--gamma", "(0,0)"]
    assert run_cli(capsys, "report", "builtin:noid3", *options) == (0, want, "")


def test_import_leaves_the_command_line_out():
    """A cold `import latticealg` loads neither the CLI module nor argparse."""
    code = "import sys, latticealg; print(sorted({'latticealg.cli', 'argparse'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("command", ["center", "classify", "inner"])
def test_atoms_that_are_not_delta_orthogonal_exit_2(tmp_path, capsys, command):
    # e = (1, 1) is an identity and e ≥ 0, but a0∗a0 = b0 + b1 ≠ a0
    rows = [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, -1], [1, 0, 1, -1], [1, 1, 1, 2]]
    path = tmp_path / "not-delta.json"
    path.write_text(json.dumps({"dim": 2, "tensor": rows}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == "error: atoms 0, 0 violate a_i∗a_j = δ_ij·a_i: got (1, 1)\n"


def long_diagonal(tmp_path, digits):
    """b0∗b0 = b0, b1∗b1 = b1, and an element x of two `digits`-digit integers."""
    x = [int("7" * digits), int("3" * digits)]
    path = tmp_path / "long.json"
    tensor = [[0, 0, 0, 1], [1, 1, 1, 1]]
    path.write_text(json.dumps({"dim": 2, "tensor": tensor, "elements": {"x": x}}))
    return path


@pytest.mark.parametrize("fmt", ["text", "json", "markdown"])
def test_results_past_the_digit_limit_exit_2(tmp_path, capsys, fmt):
    # The reader accepts 4,000-digit coordinates; the characteristic
    # polynomial's constant term has about 8,000 digits.
    path = long_diagonal(tmp_path, 4000)
    code, out, err = run_cli(capsys, "spectrum", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than {int_digit_limit()} digits" in err


def test_json_near_the_digit_limit_reads_back(tmp_path, capsys):
    path = long_diagonal(tmp_path, 2000)
    code, out, _ = run_cli(capsys, "spectrum", str(path), "--format", "json")
    assert code == 0
    entry = json.loads(out)["elements"]["x"]
    x0, x1 = int("7" * 2000), int("3" * 2000)
    assert [as_scalar(c) for c in entry["char_poly"]] == [x0 * x1, -(x0 + x1), 1]


def far_roots(tmp_path):
    """e∗e = e, e∗x = x∗e = x, x∗x = 2e, with a = 10^1000·e + x, whose roots
    10^1000 ± √2 are 2√2 apart, and c = 10^400·x, whose roots ±√2·10^400
    lie past the range of doubles."""
    path = tmp_path / "far.json"
    tensor = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2]]
    elements = {"a": [10**1000, 1], "c": [0, 10**400]}
    path.write_text(json.dumps({"dim": 2, "tensor": tensor, "elements": elements}))
    return path


def test_far_cluster_is_isolated(tmp_path, capsys):
    code, out, err = run_cli(capsys, "spectrum", str(far_roots(tmp_path)), "--element", "a")
    assert code == 0 and err == ""
    assert "  spectrum: {1e+1000 ± 1.35e-39, 1e+1000 ± 1.35e-39}" in out.splitlines()


@pytest.mark.parametrize("fmt", ["text", "markdown"])
def test_centres_past_the_doubles_print_finite(tmp_path, capsys, fmt):
    code, out, _ = run_cli(capsys, "spectrum", str(far_roots(tmp_path)), "--element", "c", "--format", fmt)
    assert code == 0
    assert "spectrum: {-1.41421356237e+400 ± 1.42e-39, 1.41421356237e+400 ± 1.42e-39}" in out
    # the spectral radius is still read from doubles: sound, but unbounded
    assert "spectral radius: inf ± inf" in out


def test_centres_past_the_doubles_read_back_from_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "spectrum", str(far_roots(tmp_path)), "--element", "c", "--format", "json")
    assert code == 0
    roots = json.loads(out)["elements"]["c"]["numeric_roots"]
    assert [(r["re"], r["im"]) for r in roots] == [
        ("-1.414213562373095e+400", "0.0"),
        ("1.414213562373095e+400", "0.0"),
    ]


def test_golden_spectrum_is_unchanged(capsys):
    # the two equal blocks of L_golden are factored once
    code, out, _ = run_cli(capsys, "spectrum", "builtin:m2-regular", "--element", "golden")
    assert code == 0
    assert out.splitlines()[2:] == [
        "  char poly: λ^4 - 2·λ^3 - λ^2 + 2·λ + 1",
        "  spectrum: {-0.61803398875 ± 3.79e-40 (×2), 1.61803398875 ± 3.79e-40 (×2)}",
        "  spectral radius: 1.61803398875 ± 5.43e-17",
    ]


def test_fmt_mask_prints_the_diagonal_of_the_support():
    assert fmt_mask(3, frozenset({0, 2})) == "diag(1, 0, 1)"
    assert fmt_mask(2, ()) == "diag(0, 0)"
    assert fmt_mask(4, [3, 1]) == "diag(0, 1, 0, 1)"


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


@pytest.mark.parametrize(
    "data, line",
    [
        # b0∗b0 = b0, b1∗b1 = b1: the declared identity (1, 0) fails the laws
        ({"dim": 2, "tensor": [[0, 0, 0, 1], [1, 1, 1, 1]], "identity": [1, 0]},
         "- identity: (1, 0) — laws FAIL, positive: yes, norm one: yes"),
        # b0∗b0 = b1, b1∗b0 = b0: (b0∗b0)∗b0 = b0 but b0∗(b0∗b0) = 0
        ({"dim": 2, "tensor": [[0, 0, 1, 1], [1, 0, 0, 1]]}, "- associativity on basis triples: FAIL"),
    ],
)
def test_report_exits_1_when_verify_does(tmp_path, capsys, data, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "verify", str(path))[0] == 1
    doc = la.cli.build_report(la.load_algebra(path))
    assert line in doc.splitlines()
    assert run_cli(capsys, "report", str(path)) == (1, doc, "")
    code, out, _ = run_cli(capsys, "report", str(path), "--format", "json")
    assert (code, json.loads(out)) == (1, {"markdown": doc})


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "builtin:ck2", "--format", "markdown")
    assert code == 0
    assert out.startswith("# latticealg verify")


def _refuse(*args, **kwargs):
    raise AssertionError("rendered a format that was not asked for")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "builtin:upper2", "--element", "p", "--element", "E12"],
        ["inner", "builtin:m2-regular", "--gamma", "(0,0),(1,1)", "--element", "E11"],
        ["spectrum", "builtin:upper2"],
    ],
)
def test_only_the_asked_format_is_rendered(capsys, monkeypatch, argv):
    with monkeypatch.context() as m:
        for name in ("element_to_wire", "mask_to_wire"):
            m.setattr(f"latticealg.cli.{name}", _refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out
    with monkeypatch.context() as m:
        for name in ("fmt_mask", "fmt_poly"):
            m.setattr(f"latticealg.cli.{name}", _refuse)
        m.setattr(la.LatticeElement, "__repr__", _refuse)
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)


@pytest.mark.parametrize("command", COMMANDS)
def test_json_output_is_indented_and_sorted(capsys, command):
    for name in la.BUILTIN_NAMES:
        code, out, _ = run_cli(capsys, command, f"builtin:{name}", "--format", "json")
        if code == 2:  # center and spectrum refuse noid3: no identity, no elements
            assert out == ""
        else:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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


def test_package_runs_as_a_module(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "latticealg", "verify", "builtin:ck2"], capture_output=True
    )
    code, out, err = run_cli(capsys, "verify", "builtin:ck2")
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")


@pytest.mark.parametrize("command", COMMANDS)
def test_long_denominators_exit_2_before_the_kernel(command, tmp_path, capsys):
    # 64 entries 1/(10⁴²⁹⁹ + 2k + 1): distinct denominators of 913,984 bits
    keys = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
    rows = [[*key, f"1/{10**4299 + 2 * t + 1}"] for t, key in enumerate(keys)]
    path = tmp_path / "long-denominators.json"
    path.write_text(json.dumps({"dim": 4, "tensor": rows, "elements": {"x": [1, 0, 0, 0]}}))
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: the tensor's distinct denominators have 913984 bits in all; "
        "the limit is 524288\n"
    )


def test_long_denominators_exit_2_before_the_contraction(tmp_path, capsys):
    # 27 entries 1/(10⁴²⁹⁹ + 2k + 1): a common denominator of 116,059 digits
    keys = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    rows = [[*key, f"1/{10**4299 + 2 * t + 1}"] for t, key in enumerate(keys)]
    path = tmp_path / "long-denominators.json"
    path.write_text(json.dumps({"dim": 3, "tensor": rows}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: the associativity check needs 511083918 tensor products "
        "(486 products of 5801-word entries); the limit is 16777216\n"
    )


def test_file_input_round_trip(tmp_path, capsys):
    alg = la.builtin("m3-reflection")
    path = tmp_path / "m3.json"
    la.save_algebra(alg, path)
    code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--element", "p")
    assert code == 0
    assert "p = (0, 1, 0): OI no / BP yes" in out


def test_parser_reuse_keeps_calls_independent(capsys):
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


def test_report_names_its_own_grid_when_refusing(tmp_path, capsys):
    """report walks the fixed grid {0, 1/2, 1}; at dim 12 it has 3¹² points,
    past the grid limit, and the refusal names that grid, not a --grid."""
    rows = [[i, i, i, 1] for i in range(12)]
    path = tmp_path / "diag12.json"
    path.write_text(json.dumps({"dim": 12, "tensor": rows}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == (
        "error: the report's band projection grid {0, 1/2, 1}^12 has 531441 points; "
        "the limit is 250000\n"
    )
