"""The input contract under fuzzing: any JSON algebra file, run through every
command, exits 0, 1 or 2 (never 3, an internal error), prints no traceback,
and finishes in bounded time."""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg.cli import main
from latticealg.io import algebra_to_dict

COMMANDS = ("verify", "classify", "center", "spectrum", "inner", "report")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
exact = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "7/3"]))
inexact = st.one_of(st.floats(), st.booleans(), st.none(), st.sampled_from(["1/0", "x", ""]))
scalars = st.one_of(exact, exact, exact, inexact)
names = st.sampled_from(["a", "b", "p", "q"])


@st.composite
def near_valid_algebras(draw):
    """Algebra dicts close to valid ones: a builtin, a diagonal algebra or
    random rows in dim 0–4, then perhaps a dim that is not an integer, a
    malformed row, indices past the dimension, and scalars that are floats,
    booleans or None."""
    kind = draw(st.sampled_from(["builtin", "diagonal", "rows"]))
    if kind == "builtin":
        data = algebra_to_dict(la.builtin(draw(st.sampled_from(la.BUILTIN_NAMES))))
        dim = data["dim"]
    elif kind == "diagonal":
        dim = draw(st.integers(1, 4))
        data = {"dim": dim, "tensor": [[i, i, i, draw(st.sampled_from([1, 2, "1/2"]))] for i in range(dim)]}
    else:
        dim = draw(st.integers(0, 4))
        index = st.integers(0, max(dim - 1, 0))
        rows = st.lists(st.tuples(index, index, index, exact), max_size=8, unique_by=lambda r: r[:3])
        data = {"dim": dim, "tensor": [list(row) for row in draw(rows)]}
    if draw(st.integers(0, 4)) == 0:
        data["dim"] = draw(scalars)
    if draw(st.integers(0, 4)) == 0:
        data["tensor"] = data["tensor"] + [
            draw(st.one_of(st.lists(st.one_of(st.integers(-1, dim), scalars), max_size=5), json_values))
        ]
    coords = st.one_of(
        st.lists(exact, min_size=dim, max_size=dim),
        st.lists(scalars, min_size=max(dim - 1, 0), max_size=dim + 1),
    )
    if draw(st.booleans()):
        data["elements"] = {**data.get("elements", {}), **draw(st.dictionaries(names, coords, max_size=3))}
    if draw(st.integers(0, 4)) == 0:
        data["identity"] = draw(coords)
    if draw(st.integers(0, 4)) == 0:
        data["norm"] = draw(
            st.one_of(
                json_values,
                st.fixed_dictionaries(
                    {"kind": st.sampled_from(["sup", "one", "p", "max"])},
                    optional={"p": scalars, "weights": coords},
                ),
            )
        )
    return data


@st.composite
def extra_flags(draw):
    flags = []
    for name in draw(st.lists(names, max_size=2)):
        flags += ["--element", name]
    for name in draw(st.lists(names, max_size=2)):
        flags += ["--family", name]
    if draw(st.booleans()):
        flags += ["--gamma", draw(st.sampled_from(["(0,0)", "(0,1),(1,0)", "(5,5)", "x"]))]
    return flags


def run_everywhere(data, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "algebra.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path), *flags])
            assert code in (0, 1, 2), (command, err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if code == 2:
                assert err.getvalue().count("\n") == 1, (command, err.getvalue())
        assert time.perf_counter() - start < 5


@settings(max_examples=60, deadline=None)
@given(json_values, extra_flags())
def test_any_json_value(data, flags):
    run_everywhere(data, flags)


@settings(max_examples=200, deadline=None)
@given(near_valid_algebras(), extra_flags())
def test_near_valid_algebras(data, flags):
    run_everywhere(data, flags)
