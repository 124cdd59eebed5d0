"""Wire formats and file round-trips."""

import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import InputError, OperatorMatrix, vec
from latticealg.cli import main
from latticealg.io import (
    dump_json,
    norm_from_wire,
    norm_to_wire,
    scalar_to_wire,
)
from latticealg.lattice import as_scalar, int_digit_limit


def test_scalar_wire():
    assert scalar_to_wire(Fraction(3)) == 3
    assert scalar_to_wire(Fraction(-2, 3)) == "-2/3"
    assert as_scalar(5) == Fraction(5)
    assert as_scalar("7/2") == Fraction(7, 2)
    with pytest.raises(InputError):
        as_scalar(0.25)


def test_element_wire_round_trip():
    x = vec([1, "-5/3", 0])
    assert la.element_from_wire(la.element_to_wire(x)) == x
    assert la.element_to_wire(x) == [1, "-5/3", 0]


def test_mask_wire():
    assert la.mask_to_wire(3, {0, 2}) == [1, 0, 0, 0, 0, 0, 0, 0, 1]
    # the entries of the 0/1 diagonal on the support, row-major
    for n in range(1, 5):
        for bits in itertools.product((0, 1), repeat=n):
            support = {i for i, b in enumerate(bits) if b}
            rows = OperatorMatrix.diagonal(bits).entries
            assert la.mask_to_wire(n, support) == [scalar_to_wire(v) for row in rows for v in row]


def test_norm_wire():
    assert norm_from_wire({"kind": "sup"}) == la.NormSpec(kind="sup")
    spec = norm_from_wire({"kind": "p", "p": "3/2", "weights": [1, "1/2"]})
    assert spec.kind == "p" and spec.p == Fraction(3, 2)
    assert spec.weights == (Fraction(1), Fraction(1, 2))
    assert norm_from_wire(norm_to_wire(spec)) == spec
    with pytest.raises(InputError):
        norm_from_wire({"kind": "euclid"})


def test_algebra_dict_round_trip():
    for name in la.BUILTIN_NAMES:
        alg = la.builtin(name)
        back = la.algebra_from_dict(la.algebra_to_dict(alg))
        assert back.dim == alg.dim
        assert back.tensor == alg.tensor
        assert back.identity == alg.identity
        assert back.norm == alg.norm
        assert back.elements == alg.elements


def test_file_round_trip(tmp_path):
    alg = la.builtin("upper2")
    path = tmp_path / "upper2.json"
    la.save_algebra(alg, path)
    back = la.load_algebra(path)
    assert back.tensor == alg.tensor
    assert back.name == "upper2"
    # unnamed files take their stem as the name
    data = la.algebra_to_dict(alg)
    del data["name"]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(data))
    assert la.load_algebra(other).name == "other"


def test_load_errors(tmp_path):
    with pytest.raises(InputError):
        la.load_algebra(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        la.load_algebra(bad)
    floaty = tmp_path / "floaty.json"
    floaty.write_text(json.dumps({"dim": 1, "tensor": [[0, 0, 0, 0.5]]}))
    with pytest.raises(InputError):
        la.load_algebra(floaty)


def test_tensor_entry_validation():
    with pytest.raises(InputError):
        la.algebra_from_dict({"dim": 2, "tensor": [[0, 0, 5, 1]]})
    with pytest.raises(InputError):
        la.algebra_from_dict({"dim": 2, "tensor": [[0, 0, 1]]})  # short row


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 1e400, "tensor": []}',
        '{"dim": 3.7, "tensor": []}',
        '{"dim": true, "tensor": []}',
        '{"dim": 2, "tensor": [[true, 0, 0, 1]]}',
        '{"dim": 2, "tensor": [[0, 0, 0, 1], [0, 0, 0, 2]]}',
        '{"dim": 2, "tensor": 5}',
        '{"dim": 2, "tensor": [], "elements": [1]}',
        '{"dim": 2, "tensor": [], "norm": {"kind": "sup", "weights": 3}}',
        '{"dim": %d, "tensor": []}' % (la.MAX_DIM + 1),
    ],
)
def test_strict_algebra_files(text, tmp_path, capsys):
    with pytest.raises(InputError):
        la.algebra_from_dict(json.loads(text))
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_integer_past_the_digit_limit(tmp_path, capsys):
    # json.loads refuses a decimal integer of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"dim": 2, "tensor": [[0, 0, 0, ' + "7" * 4301 + "]]}")
    with pytest.raises(InputError):
        la.load_algebra(path)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def fraction_path(text):
    """What as_scalar made of a string before the canonical forms were read
    with int(): Fraction(text), or the InputError text it raised."""
    try:
        return Fraction(text.strip().replace("−", "-"))
    except (ValueError, ZeroDivisionError) as exc:
        return f"cannot parse scalar {text!r}: {exc}"


_numerals = st.integers(-(10**40), 10**40).map(str)
_canonical = _numerals | st.builds(
    lambda n, d: f"{n}/{d}", st.integers(-(10**40), 10**40), st.integers(0, 10**40)
)
_decorated = st.builds(
    lambda pre, body, post: pre + body + post,
    st.sampled_from(["", " ", "\t", "\n ", "+", "-", "−", "\u00a0", "--"]),
    _canonical
    | st.builds(lambda a, b: f"{a}.{b}", st.integers(0, 999), st.integers(0, 999))
    | st.builds(lambda a, e: f"{a}e{e}", _numerals, st.integers(-40, 40))
    | st.builds(lambda a, e: f"{a}.5E+{e}", st.integers(0, 99), st.integers(0, 40))
    | st.sampled_from(["1_000", "1_0/3_0", "1__0", "_1", "1_", ".5", "5.", "1/0", "-0/00", "0/0"])
    | st.sampled_from(["١٢", "١/٢", "５", "²", "1/-2", "1 / 2", "1/+2", "", "/", "e5", "1e"])
    | st.sampled_from(["7" * 4301, "-" + "7" * 4301, "1/" + "3" * 4301, "7" * 4300]),
    st.sampled_from(["", " ", "\n", "\u2003"]),
)


@given(_canonical | _decorated | st.text(max_size=12))
@example("7" * 4301)
@example("1/0")
def test_as_scalar_matches_the_fraction_path(text):
    expected = fraction_path(text)
    if isinstance(expected, Fraction):
        got = as_scalar(text)
        assert got == expected
        assert type(got.numerator) is int and type(got.denominator) is int
    else:
        with pytest.raises(InputError) as info:
            as_scalar(text)
        assert str(info.value) == expected


def test_exponents_past_the_digit_limit_are_refused(tmp_path, capsys):
    limit = int_digit_limit()
    assert as_scalar(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert as_scalar(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    for text in (f"1e{limit}", f"-1e-{limit}", f"12e{limit - 1}", f"0.5e-{limit}", "1e10000000"):
        with pytest.raises(InputError, match=f"more than {limit} digits"):
            as_scalar(text)
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1, "tensor": [[0, 0, 0, "1e10000000"]]}')
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def reference_algebra_from_dict(data):
    """algebra_from_dict on well-formed files, with every occurrence of a
    scalar parsed by as_scalar: no scalar is shared."""
    tensor = {(i, j, k): as_scalar(c) for i, j, k, c in data["tensor"]}
    identity = None
    if data.get("identity") is not None:
        identity = la.element_from_wire(data["identity"])
    elements = {name: la.element_from_wire(x) for name, x in data.get("elements", {}).items()}
    return la.AlgebraSpec(
        dim=data["dim"],
        tensor=tensor,
        norm=norm_from_wire(data.get("norm")),
        identity=identity,
        name=str(data.get("name", "")),
        elements=elements,
    )


# A small pool, so that values repeat: equal ints and strs ("1", 1), zero,
# negative and fractional values, and values every reader refuses.
_pool = st.sampled_from(
    [0, 1, 2, -1, 10**30, "0", "1", "2", "1/2", "-3/4", "2/4", " 1", "1e2", True, False, 1.0, 0.5]
    + [[1], None, "x", "1/0", ""]
)


@st.composite
def repeated_scalar_files(draw):
    """Algebra file dicts of dim 1–3 whose tensor entries, identity, elements
    and norm weights are drawn from one small pool of JSON scalars."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    keys = draw(st.lists(st.tuples(index, index, index), unique=True, max_size=2 * n))
    data = {"dim": n, "tensor": [[i, j, k, draw(_pool)] for i, j, k in keys]}
    coords = st.lists(_pool, min_size=n, max_size=n)
    if draw(st.booleans()):
        data["identity"] = draw(coords)
    if draw(st.booleans()):
        data["elements"] = draw(st.dictionaries(st.sampled_from("xyz"), coords, max_size=2))
    if draw(st.booleans()):
        data["norm"] = {"kind": draw(st.sampled_from(["sup", "one", "p"]))}
        if draw(st.booleans()):
            data["norm"]["weights"] = draw(coords)
        if data["norm"]["kind"] == "p":
            data["norm"]["p"] = draw(_pool)
    if draw(st.booleans()):
        data["name"] = draw(st.sampled_from(["", "a"]))
    return data


@settings(max_examples=300)
@given(repeated_scalar_files())
# true and 1.0 compare and hash equal to 1: after 1 is read they must still be refused
@example({"dim": 1, "tensor": [[0, 0, 0, 1]], "identity": [True]})
@example({"dim": 1, "tensor": [[0, 0, 0, 1]], "elements": {"x": [1.0]}})
def test_shared_scalars_give_the_same_spec_or_error(data):
    try:
        expected = reference_algebra_from_dict(data)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            la.algebra_from_dict(data)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        assert str(exc).count("\n") == 0
    else:
        assert la.algebra_from_dict(data) == expected


def test_each_distinct_scalar_is_parsed_once(monkeypatch):
    data = {
        "dim": 2,
        "tensor": [[0, 0, 0, "1/2"], [0, 1, 1, "1/2"], [1, 0, 1, 1], [1, 1, 1, "1"]],
        "identity": ["2", 0],
        "elements": {"x": [1, "1/2"], "y": [0, "2"]},
        "norm": {"kind": "sup", "weights": ["1/2", 1]},
    }
    calls = []
    real = la.io.as_scalar
    monkeypatch.setattr(la.io, "as_scalar", lambda value: calls.append(value) or real(value))
    alg = la.algebra_from_dict(data)
    # the str "1" and the int 1 are different JSON values
    assert sorted(map(repr, calls)) == sorted(map(repr, ["1/2", 1, "1", "2", 0]))
    assert alg.tensor[(0, 0, 0)] is alg.norm.weights[0]
    # and each load parses afresh
    la.algebra_from_dict(data)
    assert len(calls) == 10


def test_an_unnamed_file_builds_its_spec_once(tmp_path, monkeypatch):
    path = tmp_path / "stem.json"
    path.write_text(json.dumps({"dim": 1, "tensor": [[0, 0, 0, 1]]}))
    runs = []
    real = la.AlgebraSpec.__post_init__
    monkeypatch.setattr(la.AlgebraSpec, "__post_init__", lambda self: runs.append(1) or real(self))
    assert la.load_algebra(path).name == "stem"
    assert len(runs) == 1


def test_largest_dim_is_accepted():
    alg = la.algebra_from_dict({"dim": la.MAX_DIM, "tensor": [[0, 0, 0, 1]]})
    assert alg.dim == la.MAX_DIM


# Strings mix ASCII, control characters and non-ASCII text; ints reach past
# 64 bits on both signs.
_texts = st.text(st.characters(max_codepoint=0x2FFFF, exclude_categories=("Cs",)))
_scalars = st.none() | st.booleans() | st.integers() | st.integers(-(10**30), 10**30) | _texts
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24,
)


@given(_values)
@example([True, 1, False, 0, None])
@example({"\x00\n": [], "é": {}, "": [[], {}, [[{}]]], "\u2603": ("x", (1, -(10**40)))})
def test_dump_json_is_json_dumps_indented_and_sorted(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [1.5, [0.0], {"a": [float("nan")]}, {1: 2}, {"a": {None: 1}}, {(1,): 2}, set(), Fraction(1, 2)],
)
def test_dump_json_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        dump_json(value)
