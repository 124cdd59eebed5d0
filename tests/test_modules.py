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


def test_only_operators_and_io_read_matrix_entries():
    """OperatorMatrix.mask and as_mask are the one bridge between supports
    and dense matrices; apart from them only the wire writer reads .entries."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(la.__file__).parent.glob("*.py"))
        if path.name not in ("operators.py", "io.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]
    assert offenders == []
