"""Operator matrices, Riesz–Kantorovich suprema, multiplication operators."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import AlgebraSpec, CapExceededError, InputError, OperatorMatrix, vec
from latticealg import operators
from latticealg.operators import is_band_projection_op

from fraction_linalg import solve as fraction_solve
from test_projections import HALVING, UNITAL_BLOCKS, permuted_unital_sum

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
nonnegatives = st.fractions(min_value=0, max_value=6, max_denominator=6)


def matrices(dim):
    return st.lists(
        st.lists(rationals, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(OperatorMatrix.from_rows)


def positive_vectors(dim):
    return st.lists(nonnegatives, min_size=dim, max_size=dim).map(vec)


def test_matrix_basics():
    m = OperatorMatrix.from_rows([[1, 2], [0, "1/2"]])
    assert m.dim == 2
    assert m.apply(vec([1, 1])) == vec([3, "1/2"])
    assert m(vec([2, 0])) == vec([2, 0])
    assert (m @ OperatorMatrix.identity(2)) == m
    assert (m + OperatorMatrix.zero(2)) == m
    assert (m - m) == OperatorMatrix.zero(2)
    assert m.scale(2).apply(vec([1, 1])) == vec([6, 1])
    assert OperatorMatrix.diagonal([1, 2]).apply(vec([1, 1])) == vec([1, 2])


def is_idempotent(m: OperatorMatrix) -> bool:
    return m.compose(m) == m


def test_order_and_modulus():
    m = OperatorMatrix.from_rows([[1, -2], [0, 3]])
    assert not m.is_nonnegative()
    # |T| = T ∨ (−T), entrywise on a coordinatewise lattice
    assert la.op_sup(m, m.scale(-1)) == OperatorMatrix.from_rows([[1, 2], [0, 3]])
    assert m.leq(OperatorMatrix.from_rows([[1, 0], [0, 3]]))
    assert is_idempotent(OperatorMatrix.identity(2))
    assert not is_idempotent(m)


def test_op_sup_inf_entrywise():
    s = OperatorMatrix.from_rows([[1, -1], [0, 2]])
    t = OperatorMatrix.from_rows([[0, 3], [1, -5]])
    assert la.op_sup(s, t) == OperatorMatrix.from_rows([[1, 3], [1, 2]])
    # S ∧ T = −((−S) ∨ (−T)), and S ∨ T + S ∧ T = S + T
    inf = la.op_sup(s.scale(-1), t.scale(-1)).scale(-1)
    assert inf == OperatorMatrix.from_rows([[0, -1], [0, -5]])
    assert la.op_sup(s, t) + inf == s + t


def test_rk_oracle_known_case():
    # S projects onto the first coordinate, T onto the second; their
    # supremum is the identity
    s = OperatorMatrix.from_rows([[1, 0], [0, 0]])
    t = OperatorMatrix.from_rows([[0, 0], [0, 1]])
    x = vec([3, 5])
    assert la.rk_oracle(s, t, x) == x
    assert la.op_sup(s, t) == OperatorMatrix.identity(2)


def test_rk_oracle_requires_positive_argument():
    s = OperatorMatrix.identity(2)
    with pytest.raises(InputError):
        la.rk_oracle(s, s, vec([1, -1]))


def test_rk_oracle_dimension_cap():
    n = 13
    s = OperatorMatrix.identity(n)
    with pytest.raises(CapExceededError):
        la.rk_oracle(s, s, vec([1] * n))


@settings(max_examples=60, deadline=None)
@given(matrices(3), matrices(3), positive_vectors(3))
def test_rk_oracle_matches_entrywise_sup(s, t, x):
    # dual routes: the 2^n vertex enumeration against the closed form
    assert la.rk_oracle(s, t, x) == la.op_sup(s, t).apply(x)


def reference_rk_oracle(s, t, x):
    """The vertex enumeration on Fractions: S·u + T·(x − u) by two mat-vecs
    at each of the 2^n vertices."""
    best = None
    for mask in itertools.product((False, True), repeat=x.dim):
        u = vec([c if keep else 0 for c, keep in zip(x.coords, mask)])
        candidate = (s.apply(u) + t.apply(x - u)).coords
        best = candidate if best is None else tuple(map(max, best, candidate))
    return vec(best)


def sparse_positive_vectors(dim):
    coords = st.one_of(st.just(Fraction(0)), nonnegatives)
    return st.lists(coords, min_size=dim, max_size=dim).map(vec)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(matrices(n), matrices(n), sparse_positive_vectors(n))
    )
)
def test_rk_oracle_matches_vertex_reference(case):
    s, t, x = case
    assert la.rk_oracle(s, t, x) == reference_rk_oracle(s, t, x)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(6, operators.RK_DIM_CAP).flatmap(
        lambda n: st.tuples(matrices(n), matrices(n), sparse_positive_vectors(n))
    )
)
def test_rk_oracle_matches_entrywise_sup_up_to_the_cap(case):
    s, t, x = case
    assert la.rk_oracle(s, t, x) == la.op_sup(s, t).apply(x)


def test_rk_oracle_does_not_take_the_entrywise_sup(monkeypatch):
    # The enumeration answers the same with op_sup unavailable, so the two
    # routes stay independent of each other.
    rng = random.Random(22)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    cases = []
    for n in range(1, operators.RK_DIM_CAP + 1):
        s = OperatorMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])
        t = OperatorMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])
        x = vec([abs(entry()) if i % 3 else 0 for i in range(n)])
        cases.append((s, t, x))
    expected = [la.op_sup(s, t).apply(x) for s, t, x in cases]

    def refuse(*args):
        raise AssertionError("rk_oracle took the entrywise supremum")

    monkeypatch.setattr(operators, "op_sup", refuse)
    monkeypatch.setattr(la, "op_sup", refuse)
    assert [la.rk_oracle(s, t, x) for s, t, x in cases] == expected


@settings(max_examples=30, deadline=None)
@given(matrices(2), matrices(2), positive_vectors(2))
def test_rk_oracle_dominates_both(s, t, x):
    v = la.rk_oracle(s, t, x)
    assert s.apply(x).leq(v)
    assert t.apply(x).leq(v)


def test_left_right_mult_on_upper2():
    alg = la.builtin("upper2")
    a = vec([2, 5, 3])
    left = la.left_mult(alg, a)
    right = la.right_mult(alg, a)
    for x in (vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1]), vec([1, 7, 2])):
        assert left.apply(x) == alg.multiply(a, x)
        assert right.apply(x) == alg.multiply(x, a)
    both = la.mult_op(alg, a, a)
    for x in (vec([1, 1, 1]), vec([2, 0, 5])):
        assert both.apply(x) == alg.multiply(alg.multiply(a, x), a)


def scanned_mask(m):
    """supp(M) by reading every entry (None unless M is a 0/1 diagonal
    mask)."""
    if not entrywise_mask_rule(m):
        return None
    return frozenset(i for i in range(m.dim) if m.entries[i][i] == 1)


def triple_sum(s, t):
    """S·T as the plain sum Σ_k S_ik·T_kj for every (i, j)."""
    n = s.dim
    return tuple(
        tuple(sum((s.entries[i][k] * t.entries[k][j] for k in range(n)), Fraction(0))
              for j in range(n))
        for i in range(n)
    )


# Small values of both signs, so that sums of terms often cancel to exactly 0.
cancelling = st.sampled_from([Fraction(v) for v in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)])
cancelling_coords = st.sampled_from([Fraction(v) for v in (-1, 0, 0, 1, 2)] + [Fraction(1, 2)])


@st.composite
def operator_layer_cases(draw):
    """(alg, a, b, x): a random tensor of dims 1–5 with negative entries,
    usually not associative, and elements whose products often have
    entries that cancel to exactly 0."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    tensor = draw(st.dictionaries(st.tuples(index, index, index), cancelling, max_size=4 * n))
    alg = AlgebraSpec(dim=n, tensor=tensor)
    elements = st.lists(cancelling_coords, min_size=n, max_size=n).map(vec)
    return alg, draw(elements), draw(elements), draw(elements)


@settings(max_examples=150, deadline=None)
@given(operator_layer_cases())
def test_operator_layer_matches_its_definitions(case):
    """L_a, R_b, their composition and M_{a,b} against multiply (on the
    integer kernel) and the plain triple sum; no associativity is assumed,
    so M_{a,b}x is a∗(x∗b).  Every entry is a Fraction, and entries that
    cancel read as 0 to as_mask."""
    alg, a, b, x = case
    left, right = la.left_mult(alg, a), la.right_mult(alg, b)
    assert left.apply(x) == alg.multiply(a, x)
    assert right.apply(x) == alg.multiply(x, b)
    both = la.mult_op(alg, a, b)
    assert both.apply(x) == alg.multiply(a, alg.multiply(x, b))
    assert left.compose(right).entries == triple_sum(left, right) == both.entries
    assert right.compose(left).entries == triple_sum(right, left)
    for m in (left, right, both, right.compose(left)):
        assert all(type(v) is Fraction for row in m.entries for v in row)
        assert m.as_mask() == scanned_mask(m)


def test_cancelled_entries_read_as_zero():
    # L_a for a = b0 + b1: entry (1, 1) is c[0,1,1] + c[1,1,1] = 1 − 1 = 0
    alg = AlgebraSpec(
        dim=2, tensor={(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(1), (1, 1, 1): Fraction(-1)}
    )
    left = la.left_mult(alg, vec([1, 1]))
    assert left == OperatorMatrix.diagonal([1, 0])
    assert left.as_mask() == {0}
    assert left.compose(left).as_mask() == {0}


@pytest.mark.parametrize("name", la.BUILTIN_NAMES)
def test_mult_op_supports_are_scanned(name):
    alg = la.builtin(name)
    elements = list(alg.elements.values()) + [alg.basis_element(i) for i in range(alg.dim)]
    for a, b in itertools.product(elements, repeat=2):
        m = la.mult_op(alg, a, b)
        assert m.as_mask() == scanned_mask(m)


def test_mult_commutation():
    # L_a and R_b always commute in an associative algebra, even when the
    # elements themselves do not
    u = la.builtin("upper2")
    e11, e12 = vec([1, 0, 0]), vec([0, 1, 0])
    for a, b in itertools.product([e11, e12, vec([2, "1/2", 3])], repeat=2):
        left, right = la.left_mult(u, a), la.right_mult(u, b)
        assert left.compose(right) == right.compose(left)
    assert u.multiply(e11, e12) != u.multiply(e12, e11)


def test_band_projection_operator_predicate():
    assert is_band_projection_op(OperatorMatrix.diagonal([1, 0, 1]))
    assert not is_band_projection_op(OperatorMatrix.diagonal([2, 0, 0]))  # above I
    assert not is_band_projection_op(OperatorMatrix.from_rows([[1, 1], [0, 0]]))


def entrywise_mask_rule(m):
    """0/1 on the diagonal and 0 off it, entry by entry."""
    return all(
        (v == 0 or v == 1) if i == j else v == 0
        for i, row in enumerate(m.entries)
        for j, v in enumerate(row)
    )


@st.composite
def near_masks(draw):
    """A 0/1 diagonal mask, possibly with a few entries overwritten
    (a 2 or a 1/2 on the diagonal, a 1/2 or a 1 off it, ...)."""
    n = draw(st.integers(1, 6))
    rows = [[Fraction(int(i == j and draw(st.booleans()))) for j in range(n)] for i in range(n)]
    values = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)])
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(values)
    return OperatorMatrix.from_rows(rows)


@settings(deadline=None)
@given(st.one_of(near_masks(), st.integers(1, 6).flatmap(matrices)))
def test_as_mask_agrees_with_the_entrywise_rule(m):
    support = m.as_mask()
    assert (support is not None) == entrywise_mask_rule(m) == is_band_projection_op(m)
    if support is not None:
        assert support == {i for i in range(m.dim) if m.entries[i][i] == 1}


def test_diagonal_mask_operator():
    assert la.diagonal_mask_operator(vec([1, 0, 1])) == OperatorMatrix.diagonal([1, 0, 1])
    assert la.diagonal_mask_operator(vec([1, "1/2", 0])) is None


def test_invert_element():
    u = la.builtin("upper2")
    assert la.invert_element(u, vec([2, 0, 3])) == vec(["1/2", 0, "1/3"])
    assert la.invert_element(u, vec([1, 0, 0])) is None
    m3 = la.builtin("m3-reflection")
    # p + 2e has an inverse, but it is not positive
    inv = la.invert_element(m3, vec([2, 1, 2]))
    assert inv is not None
    assert m3.multiply(inv, vec([2, 1, 2])) == m3.require_identity()
    assert not inv.is_positive()


def test_identity_and_inverse_are_converted_from_fractions_once(monkeypatch):
    """A solved identity keeps the solve's integer form, and invert_element
    converts only its argument: integer_form runs on neither e nor the
    inverse."""
    real = la.algebra.integer_form
    calls = []

    def counting(algebra, a):
        calls.append(a)
        return real(algebra, a)

    monkeypatch.setattr(la.algebra, "integer_form", counting)
    monkeypatch.setattr(operators, "integer_form", counting)
    # b0∗b0 = 2·b0 and b1∗b1 = 3·b1: e = (1/2, 1/3), solved
    alg = AlgebraSpec(dim=2, tensor={(0, 0, 0): 2, (1, 1, 1): 3})
    e = alg.require_identity()
    assert e == vec(["1/2", "1/3"])
    assert calls == []
    a = vec([1, "2/3"])
    inv = la.invert_element(alg, a)
    assert calls == [a]
    assert inv == vec(["1/4", "1/6"]) and alg.multiply(a, inv) == e


# -- invert_element against a Fraction solve of L_a·y = e ---------------------

INVERT_ALGEBRAS = (
    [la.builtin(n) for n in UNITAL_BLOCKS]
    + [permuted_unital_sum(seed) for seed in range(8)]
    + [la.algebra_from_dict(HALVING)]
)


def reference_inverse(alg, a):
    """y with L_a·y = e from the Fraction matrix of left_mult, kept when
    R_a·y = e too (y ∗ a = e), else None."""
    e = alg.require_identity()
    y = fraction_solve(la.left_mult(alg, a).entries, e.coords)
    if y is None:
        return None
    inv = vec(y)
    return inv if la.right_mult(alg, a).apply(inv) == e else None


@st.composite
def invert_cases(draw):
    alg = draw(st.sampled_from(INVERT_ALGEBRAS))
    # zero coordinates make singular elements common
    coord = st.one_of(st.just(Fraction(0)), rationals)
    return alg, vec(draw(st.lists(coord, min_size=alg.dim, max_size=alg.dim)))


@settings(max_examples=150, deadline=None)
@given(invert_cases())
def test_invert_element_matches_fraction_reference(case):
    alg, a = case
    assert la.invert_element(alg, a) == reference_inverse(alg, a)


@pytest.mark.parametrize("alg", INVERT_ALGEBRAS, ids=lambda alg: alg.name)
def test_invert_element_on_identity_and_singular_elements(alg):
    e = alg.require_identity()
    assert la.invert_element(alg, e) == e
    assert la.invert_element(alg, e.scale(3)) == e.scale(Fraction(1, 3))
    assert la.invert_element(alg, alg.zero()) is None
    # an atom of A_e other than e is a zero divisor
    atoms = la.ck_representation(alg).atoms
    if len(atoms) > 1:
        assert la.invert_element(alg, atoms[0]) is None
        assert reference_inverse(alg, atoms[0]) is None


def test_spectrum_inverse_and_identity_solve_stay_on_the_kernel(monkeypatch, unital_algebra):
    """No Fraction operator matrix is built: left_mult and compose are never
    called, and neither is any other OperatorMatrix constructor."""
    calls = []
    left_mult, compose, post_init = (
        operators.left_mult,
        OperatorMatrix.compose,
        OperatorMatrix.__post_init__,
    )
    monkeypatch.setattr(operators, "left_mult", lambda *a: calls.append("left_mult") or left_mult(*a))
    monkeypatch.setattr(OperatorMatrix, "compose", lambda *a: calls.append("compose") or compose(*a))
    monkeypatch.setattr(
        OperatorMatrix, "__post_init__", lambda self: calls.append("matrix") or post_init(self)
    )
    alg = AlgebraSpec(dim=unital_algebra.dim, tensor=unital_algebra.tensor)  # identity solved
    e = alg.require_identity()
    for x in [*unital_algebra.elements.values(), e, e.scale(2), alg.zero()]:
        la.spectrum(alg, x)
        la.invert_element(alg, x)
    assert calls == []
    # the counters do see the audit route
    la.mult_op(alg, e, e)
    assert {"left_mult", "compose", "matrix"} <= set(calls)
