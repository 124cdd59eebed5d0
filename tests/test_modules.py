"""Module boundaries of the package."""

import ast
from pathlib import Path

import latticealg as la


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(Path(la.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("latticealg")
            ):
                offenders += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert offenders == []


def imported_top_level_names():
    """(module file, top-level package) for every absolute import in the package."""
    for path in sorted(Path(la.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            yield from ((path.name, n.split(".")[0]) for n in names)


def test_no_module_imports_random():
    """Every verdict is exact: the library draws no random samples."""
    assert [f"{f}: {n}" for f, n in imported_top_level_names() if n == "random"] == []


def test_no_module_imports_mpmath():
    """Roots and p-norms are bracketed with integers; nothing needs mpmath."""
    assert [f"{f}: {n}" for f, n in imported_top_level_names() if n == "mpmath"] == []


def test_no_module_imports_argparse():
    """The command line is read from cli.py's option table; argparse is
    only the tests' reference."""
    assert [f"{f}: {n}" for f, n in imported_top_level_names() if n == "argparse"] == []


def test_only_operators_and_io_read_matrix_entries():
    """Results stay supports up to the renderers, which write masks from
    them; only operators.py reads a dense matrix's .entries (as_mask turns
    one into a support)."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(la.__file__).parent.glob("*.py"))
        if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    assert offenders == []


def _spelling(node):
    """The identifier a name, an attribute or an imported name spells."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_one_reader_of_left_and_right_masks():
    """side_masks is the one reader of L_a and R_a: only projections names
    mask_support, inner takes nothing else from projections, and no library
    or script code calls is_left_bp or is_right_bp (public wrappers)."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(la.__file__).parent.glob("*.py")) + sorted(scripts.glob("*.py"))
    }
    assert [
        f"{name}:{node.lineno}"
        for name, tree in trees.items() if name != "projections.py"
        for node in ast.walk(tree) if _spelling(node) == "mask_support"
    ] == []
    assert [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _spelling(node.func) in ("is_left_bp", "is_right_bp")
    ] == []
    assert [
        alias.name for node in ast.walk(trees["inner.py"])
        if isinstance(node, ast.ImportFrom) and node.module == "projections"
        for alias in node.names
    ] == ["side_masks"]


def test_only_the_grid_walk_reads_column_forms():
    """A column form costs up to n direct evaluations of its column, so only
    the grid walk, where many points share one, reads them: nothing in the
    package or the scripts calls column_form but the walk inside
    search_band_projections."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    callers = {"column_form": "search_band_projections"}
    assert [
        f"{path.name}:{node.lineno} in {getattr(top, 'name', 'module')}"
        for path in sorted(Path(la.__file__).parent.glob("*.py")) + sorted(scripts.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _spelling(node.func) in callers
        and not (
            path.name == "projections.py"
            and getattr(top, "name", None) == callers[_spelling(node.func)]
        )
    ] == []


def test_one_isolation_loop():
    """_isolate is the one loop that takes a Yun factor through Durand–Kerner:
    nothing else in the package or the scripts calls its steps.  It runs on
    a monic integer polynomial, whose rational roots are integers, so its
    snaps round to integers and pick no fractions: nothing in spectra calls
    limit_denominator."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    steps = ("_start", "_durand_kerner", "_radii", "_certified", "_snapped_roots")
    assert [
        f"{path.name}:{node.lineno} in {getattr(top, 'name', 'module')}"
        for path in sorted(Path(la.__file__).parent.glob("*.py")) + sorted(scripts.glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if not (path.name == "spectra.py" and getattr(top, "name", None) == "_isolate")
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _spelling(node.func) in steps
    ] == []
    spectra = ast.parse((Path(la.__file__).parent / "spectra.py").read_text())
    assert [
        node.lineno for node in ast.walk(spectra)
        if isinstance(node, ast.Call) and _spelling(node.func) == "limit_denominator"
    ] == []


def test_the_report_renders_what_the_commands_compute():
    """Each result is computed in one place: in cli.py a computing function
    is called only by its own cmd_* (ck_representation also by
    _resolve_family, for inner's default family of atoms), so build_report
    renders what the commands return, and report.py, formatters only,
    names none of them."""
    owners = {
        "verify_axioms": {"cmd_verify"},
        "search_band_projections": {"cmd_classify"},
        "enumerate_order_idempotents": {"cmd_classify"},
        "identity_ideal": {"cmd_center"},
        "ck_representation": {"cmd_center", "_resolve_family"},
        "spectrum": {"cmd_spectrum"},
        "validate_family": {"cmd_inner"},
        "enumerate_inner": {"cmd_inner"},
        "is_inner": {"cmd_inner"},
        "inner_witness": {"cmd_inner"},
    }
    package = Path(la.__file__).parent
    assert [
        f"cli.py:{node.lineno} in {getattr(top, 'name', 'module')}"
        for top in ast.parse((package / "cli.py").read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _spelling(node.func) in owners
        and getattr(top, "name", None) not in owners[_spelling(node.func)]
    ] == []
    assert [
        f"report.py:{node.lineno}"
        for node in ast.walk(ast.parse((package / "report.py").read_text()))
        if _spelling(node) in owners
    ] == []


def test_gamma_set_pairs_are_sorted_once():
    """GammaSet keeps its pairs in sorted order, so outside the class no
    package or script code names sorted_pairs (or _sorted_pairs) or calls
    sorted on a .pairs value.  The kernel's product index, read as
    integer_tensor.pairs, is a dict of another class and is not covered."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    offenders = []
    for path in sorted(Path(la.__file__).parent.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text())
        gamma_set = {
            id(node)
            for top in ast.walk(tree) if isinstance(top, ast.ClassDef) and top.name == "GammaSet"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if id(node) in gamma_set:
                continue
            names = {_spelling(node), getattr(node, "name", None)}
            sorts_pairs = (
                isinstance(node, ast.Call) and _spelling(node.func) == "sorted"
                and any(
                    isinstance(arg, ast.Attribute) and arg.attr == "pairs"
                    and _spelling(arg.value) != "integer_tensor"
                    for argument in node.args for arg in ast.walk(argument)
                )
            )
            if names & {"sorted_pairs", "_sorted_pairs"} or sorts_pairs:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_verify_reads_the_identity_once():
    """verify_axioms copies the one identity result that _identity read: it
    calls neither integer_form nor _norm_is_one itself."""
    tree = ast.parse((Path(la.__file__).parent / "algebra.py").read_text())
    verify = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "verify_axioms"
    )
    assert [
        node.lineno for node in ast.walk(verify)
        if isinstance(node, ast.Call) and _spelling(node.func) in ("integer_form", "_norm_is_one")
    ] == []


def test_the_command_line_builds_no_operator_matrix():
    """The command line's named masks are supports (inner_witness): cli.py
    imports nothing from operators and names no OperatorMatrix."""
    tree = ast.parse((Path(la.__file__).parent / "cli.py").read_text())
    assert [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("operators"))
        or (isinstance(node, ast.Import) and any(a.name.endswith("operators") for a in node.names))
        or _spelling(node) == "OperatorMatrix"
    ] == []
