"""The order ideal A_e generated by the identity: bands, atoms, truncations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import DimensionMismatchError, InputError, OperatorMatrix, vec

from test_algebra import rescaled_builtin, sheared

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=10)
positives = st.fractions(min_value=0, max_value=30, max_denominator=6)


def test_principal_ideal_differs_from_identity_ideal_on_upper2():
    # the two-sided principal ideal of e absorbs E12 (E11∗E12∗E22 = E12),
    # while the order ideal A_e stays on the diagonal support
    alg = la.builtin("upper2")
    e = alg.require_identity()
    two_sided = la.principal_ideal(alg, e)
    assert two_sided.sorted_support() == [0, 1, 2]
    assert la.identity_ideal(alg).sorted_support() == [0, 2]


def test_principal_ideal_grows_from_both_sides():
    # upper2: E11∗E12 = E12 reaches E12 from the left factor, E12∗E22 = E12
    # from the right one
    alg = la.builtin("upper2")
    assert la.principal_ideal(alg, alg.elements["E11"]).sorted_support() == [0, 1]
    assert la.principal_ideal(alg, alg.elements["E22"]).sorted_support() == [1, 2]
    assert la.principal_ideal(alg, alg.elements["E12"]).sorted_support() == [1]


def test_identity_ideal_support_and_projection(unital_algebra):
    basis = la.identity_ideal(unital_algebra)
    e = unital_algebra.require_identity()
    assert basis.support == e.support()
    # the band projection is the diagonal 0/1 mask of the support
    mask = OperatorMatrix.diagonal([int(i in basis.support) for i in range(unital_algebra.dim)])
    x = vec(range(1, unital_algebra.dim + 1))
    assert basis.project(x) == mask.apply(x)
    assert basis.project(e) == e
    assert basis.contains(e)
    with pytest.raises(DimensionMismatchError):
        basis.project(vec([1] * (unital_algebra.dim + 1)))


@st.composite
def ideals_and_vectors(draw):
    """(IdealBasis, x): A_e of a unital builtin, or the principal ideal of a
    random element of any builtin, and a vector of the algebra's dimension."""
    alg = la.builtin(draw(st.sampled_from(la.BUILTIN_NAMES)))
    vectors = st.lists(rationals, min_size=alg.dim, max_size=alg.dim).map(vec)
    if alg.has_identity() and draw(st.booleans()):
        basis = la.identity_ideal(alg)
    else:
        basis = la.principal_ideal(alg, draw(vectors))
    return basis, draw(vectors)


@given(ideals_and_vectors())
def test_project_is_the_diagonal_mask_of_the_support(case):
    basis, x = case
    mask = OperatorMatrix.diagonal([int(i in basis.support) for i in range(x.dim)])
    assert basis.project(x) == mask.apply(x)


def test_in_identity_ideal_membership():
    alg = la.builtin("upper2")
    assert la.in_identity_ideal(alg, vec([5, 0, "-7/2"]))
    assert not la.in_identity_ideal(alg, vec([0, 1, 0]))
    assert la.norm_e(alg, vec([5, 0, "-7/2"])) == Fraction(5)
    with pytest.raises(InputError):
        la.norm_e(alg, vec([0, 1, 0]))


def test_norm_e_divides_by_the_size_of_a_negative_identity_coordinate():
    # b0∗b0 = b0 and b1∗b1 = −b1, so e = (1, −1) and A_e is the ideal
    # generated by |e| = (1, 1): ‖x‖_e = inf{λ ≥ 0 : |x| ≤ λ|e|} = max |x_i|
    alg = la.algebra_from_dict({"dim": 2, "tensor": [[0, 0, 0, 1], [1, 1, 1, -1]]})
    assert alg.require_identity() == vec([1, -1])
    assert la.norm_e(alg, vec([0, 2])) == Fraction(2)
    assert la.norm_e(alg, vec([3, "-1/2"])) == Fraction(3)


@given(st.lists(rationals, min_size=3, max_size=3).map(vec))
def test_band_decomposition_reconstructs(x):
    alg = la.builtin("upper2")
    x_e = la.identity_ideal(alg).project(x)
    x_d = x - x_e
    assert x_e + x_d == x
    assert la.in_identity_ideal(alg, x_e)
    assert x_d.abs().is_disjoint(alg.require_identity())


def test_ck_representation_invariants(unital_algebra):
    rep = la.ck_representation(unital_algebra)
    e = unital_algebra.require_identity()
    total = unital_algebra.zero()
    for i, a in enumerate(rep.atoms):
        assert a.is_positive() and not a.is_zero()
        total = total + a
        for j, b in enumerate(rep.atoms):
            expected = a if i == j else unital_algebra.zero()
            assert unital_algebra.multiply(a, b) == expected
    assert total == e


def reference_ck_failure(alg):
    """The pairwise check by multiplication: the message for the first atom
    pair (t, s) with a_t∗a_s ≠ δ_ts·a_t, or None when every pair passes."""
    e = alg.require_identity()
    atoms = [
        vec([e.coords[i] if r == i else 0 for r in range(alg.dim)]) for i in sorted(e.support())
    ]
    for (t, a), (s, b) in itertools.product(enumerate(atoms), repeat=2):
        product = alg.multiply(a, b)
        if product != (a if s == t else alg.zero()):
            return f"atoms {t}, {s} violate a_i∗a_j = δ_ij·a_i: got {product}"
    return None


UNITAL_BUILTINS = [n for n in la.BUILTIN_NAMES if la.builtin(n).has_identity()]
_CHANGES = [Fraction(v) for v in ("0", "1", "-1", "1/2", "2")]


@st.composite
def unital_tensors(draw):
    """A unital builtin, relabelled and rescaled, perhaps in a sheared basis
    b'_a = b_a + t·b_b, where e may have negative coordinates or atoms that
    are not δ-orthogonal; perhaps with one entry changed, which may keep the
    identity and break the atoms."""
    name = draw(st.sampled_from(UNITAL_BUILTINS))
    n = la.builtin(name).dim
    order = draw(st.permutations(range(n)))
    scales = draw(st.lists(st.fractions(1, 4, max_denominator=4), min_size=n, max_size=n))
    alg = rescaled_builtin(name, order, scales)
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        alg = sheared(alg, a, b, draw(st.sampled_from([-1, 1, 2, Fraction(1, 2)])))
    if draw(st.booleans()):
        index = st.integers(0, n - 1)
        tensor = dict(alg.tensor)
        tensor[draw(st.tuples(index, index, index))] = draw(st.sampled_from(_CHANGES))
        alg = la.AlgebraSpec(dim=n, tensor=tensor)
    return alg


@settings(max_examples=150, deadline=None)
@given(unital_tensors())
def test_ck_representation_matches_the_pairwise_reference(alg):
    """The integer check on the product index gives the verdict, and on a
    failure the message, of multiplying every pair of atoms."""
    if not alg.has_identity():
        return
    if not alg.require_identity().is_positive():
        with pytest.raises(InputError, match="identity is not positive"):
            la.ck_representation(alg)
        return
    failure = reference_ck_failure(alg)
    if failure is None:
        assert la.ck_representation(alg).identity == alg.require_identity()
    else:
        with pytest.raises(InputError) as raised:
            la.ck_representation(alg)
        assert str(raised.value) == failure


def test_ck_coordinates_are_multiplicative():
    alg = la.builtin("ck3")
    rep = la.ck_representation(alg)
    x = vec([2, "1/3", -1])
    y = vec([5, 3, "1/2"])
    cx, cy = rep.coords(x), rep.coords(y)
    assert rep.coords(alg.multiply(x, y)) == tuple(a * b for a, b in zip(cx, cy))
    assert rep.from_coords(cx) == x
    assert rep.norm_e(x) == Fraction(2)


def test_ck_coordinates_on_non_ck_fixture():
    alg = la.builtin("m2-regular")
    rep = la.ck_representation(alg)
    assert rep.n_points == 2
    x = vec([3, 0, 0, "-1/2"])  # an element of A_e
    assert rep.coords(x) == (Fraction(3), Fraction(-1, 2))
    assert rep.norm_e(x) == Fraction(3)


def test_norm_e_is_submultiplicative_on_ideal(unital_algebra):
    rep = la.ck_representation(unital_algebra)
    xs = [
        rep.from_coords([Fraction(2)] + [Fraction(1, 3)] * (rep.n_points - 1)),
        rep.from_coords([Fraction(-1, 2)] * rep.n_points),
    ]
    for x in xs:
        for y in xs:
            lhs = rep.norm_e(unital_algebra.multiply(x, y))
            assert lhs <= rep.norm_e(x) * rep.norm_e(y)
            # multiplicative coordinates make this an equality coordinatewise
            assert lhs == max(
                abs(a * b) for a, b in zip(rep.coords(x), rep.coords(y))
            )


@settings(max_examples=40, deadline=None)
@given(st.lists(positives, min_size=3, max_size=3).map(vec))
def test_truncation_cauchy_on_upper2(a):
    report = la.truncation_cauchy_check(la.builtin("upper2"), a)
    assert report.ok, report.failures
    assert report.monotone and report.bound_holds
    assert report.stabilized_at is not None


def test_truncation_stabilizes_beyond_default_range():
    alg = la.builtin("ck2")
    report = la.truncation_cauchy_check(alg, vec([50, 1]), n_max=20)
    assert report.ok
    assert report.n_checked >= 51
    assert report.stabilized_at == 50
    assert report.projection == vec([50, 1])


def test_truncation_requires_positive():
    with pytest.raises(InputError):
        la.truncation_cauchy_check(la.builtin("upper2"), vec([1, 0, -1]))


def test_inverse_closed_check_cases():
    alg = la.builtin("upper2")
    report = la.inverse_closed_check(alg, vec([2, 0, 3]))
    assert report.ok and report.invertible
    assert report.inverse == vec(["1/2", 0, "1/3"])
    assert report.inverse_in_ideal and report.two_sided
    # non-invertible members are fine
    report = la.inverse_closed_check(alg, vec([1, 0, 0]))
    assert report.ok and not report.invertible
    # membership is a precondition
    with pytest.raises(InputError):
        la.inverse_closed_check(alg, vec([0, 1, 0]))


def test_identity_ideal_requires_identity():
    with pytest.raises(la.NoIdentityError):
        la.identity_ideal(la.builtin("noid3"))
