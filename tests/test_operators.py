"""Operator matrices, Riesz–Kantorovich suprema, multiplication operators."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import CapExceededError, InputError, NormSpec, OperatorMatrix, vec
from latticealg.operators import is_band_projection_op

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
    assert m.modulus() == OperatorMatrix.from_rows([[1, 2], [0, 3]])
    assert m.leq(OperatorMatrix.from_rows([[1, 0], [0, 3]]))
    assert is_idempotent(OperatorMatrix.identity(2))
    assert not is_idempotent(m)


def test_op_sup_inf_entrywise():
    s = OperatorMatrix.from_rows([[1, -1], [0, 2]])
    t = OperatorMatrix.from_rows([[0, 3], [1, -5]])
    assert la.op_sup(s, t) == OperatorMatrix.from_rows([[1, 3], [1, 2]])
    assert la.op_inf(s, t) == OperatorMatrix.from_rows([[0, -1], [0, -5]])
    assert la.op_sup(s, t) + la.op_inf(s, t) == s + t


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
    """The vertex enumeration before the Gray-code walk: S·u + T·(x − u)
    by two Fraction mat-vecs at each of the 2^n vertices."""
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


@settings(max_examples=30, deadline=None)
@given(matrices(2), matrices(2), positive_vectors(2))
def test_rk_oracle_dominates_both(s, t, x):
    v = la.rk_oracle(s, t, x)
    assert s.apply(x).leq(v)
    assert t.apply(x).leq(v)


def test_regular_norm_sup_and_one():
    t = OperatorMatrix.from_rows([[1, -2], [0, 3]])
    assert la.regular_norm(t, NormSpec(kind="sup")) == Fraction(3)
    assert la.regular_norm(t, NormSpec(kind="one")) == Fraction(5)
    with pytest.raises(la.UnsupportedNormError):
        la.regular_norm(t, NormSpec(kind="p", p=Fraction(2)))


def test_regular_norm_is_operator_norm_bound():
    t = OperatorMatrix.from_rows([[1, -2], [0, 3]])
    spec = NormSpec(kind="sup")
    for x in (vec([1, 1]), vec([-1, 1]), vec([1, "-1/2"])):
        from latticealg.lattice import norm

        assert norm(t.apply(x), spec) <= la.regular_norm(t, spec) * norm(x, spec)


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


def test_mult_commutation():
    # L_a and R_b always commute in an associative algebra, even when the
    # elements themselves do not
    u = la.builtin("upper2")
    e11, e12 = vec([1, 0, 0]), vec([0, 1, 0])
    assert la.check_mult_commutation(u, e11, e12)
    assert u.multiply(e11, e12) != u.multiply(e12, e11)


def test_band_projection_operator_predicate():
    assert is_band_projection_op(OperatorMatrix.diagonal([1, 0, 1]))
    assert not is_band_projection_op(OperatorMatrix.diagonal([2, 0, 0]))  # above I
    assert not is_band_projection_op(OperatorMatrix.from_rows([[1, 1], [0, 0]]))


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
