"""Scalars, lattice elements, and norms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticealg import (
    ApproxReal,
    InputError,
    LatticeElement,
    NormSpec,
    as_scalar,
    format_scalar,
    unit,
    vec,
    zero,
)
from latticealg import lattice
from latticealg.lattice import float_above, format_real, norm, to_float

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def elements(dim=3):
    return st.lists(rationals, min_size=dim, max_size=dim).map(vec)


def test_as_scalar_accepts_ints_strings_fractions():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("2/3") == Fraction(2, 3)
    assert as_scalar("-7") == Fraction(-7)
    assert as_scalar(Fraction(1, 4)) == Fraction(1, 4)


def test_as_scalar_rejects_floats_and_bools():
    with pytest.raises(InputError):
        as_scalar(0.5)
    with pytest.raises(InputError):
        as_scalar(True)
    with pytest.raises(InputError):
        as_scalar("nope")
    # decimal strings are exact rationals, not binary floats, so they pass
    assert as_scalar("0.5") == Fraction(1, 2)


def test_format_scalar():
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(-7, 3)) == "-7/3"


def test_element_basics():
    x = vec([1, "-1/2", 0])
    assert x.dim == 3
    assert x.coords == (Fraction(1), Fraction(-1, 2), Fraction(0))
    assert (x + x).coords == (Fraction(2), Fraction(-1), Fraction(0))
    assert (-x).coords == (Fraction(-1), Fraction(1, 2), Fraction(0))
    assert x.scale("1/2").coords == (Fraction(1, 2), Fraction(-1, 4), Fraction(0))
    assert x.support() == frozenset({0, 1})
    assert zero(3).is_zero()
    assert unit(3, 1).coords == (0, 1, 0)


def test_sup_inf_abs_by_hand():
    x = vec([1, -2, 0])
    y = vec([0, 3, -1])
    assert x.sup(y).coords == (1, 3, 0)
    assert x.inf(y).coords == (0, -2, -1)
    assert x.abs().coords == (1, 2, 0)
    assert x.pos_part().coords == (1, 0, 0)
    assert x.neg_part().coords == (0, 2, 0)


@given(elements(), elements())
def test_sup_commutes_inf_dual(x, y):
    assert x.sup(y) == y.sup(x)
    assert x.inf(y) == y.inf(x)
    assert x.sup(y) + x.inf(y) == x + y


@given(elements(), elements(), elements())
def test_lattice_associativity_and_absorption(x, y, z):
    assert x.sup(y).sup(z) == x.sup(y.sup(z))
    assert x.inf(y).inf(z) == x.inf(y.inf(z))
    assert x.sup(x.inf(y)) == x
    assert x.inf(x.sup(y)) == x


@given(elements())
def test_parts_decompose(x):
    assert x.pos_part() - x.neg_part() == x
    assert x.pos_part() + x.neg_part() == x.abs()
    assert x.pos_part().is_disjoint(x.neg_part())


@given(elements(), elements())
def test_leq_matches_coordinatewise(x, y):
    assert x.leq(y) == all(a <= b for a, b in zip(x.coords, y.coords))


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        vec([1, 2]) + vec([1, 2, 3])


def test_sup_norm_values():
    spec = NormSpec(kind="sup")
    assert norm(vec([1, "-3/2", 0]), spec) == Fraction(3, 2)
    weighted = NormSpec(kind="sup", weights=(Fraction(2), Fraction(1), Fraction(1, 2)))
    assert norm(vec([1, 1, 1]), weighted) == Fraction(2)


def test_one_norm_values():
    spec = NormSpec(kind="one")
    assert norm(vec([1, "-3/2", 0]), spec) == Fraction(5, 2)


def test_p_norm_is_approximate():
    spec = NormSpec(kind="p", p=Fraction(2))
    value = norm(vec([3, 4]), spec)
    assert isinstance(value, ApproxReal)
    assert abs(value.value - 5.0) <= max(value.error, 1e-12)
    assert NormSpec(kind="sup").is_exact()
    assert not spec.is_exact()


@settings(max_examples=60)
@given(
    p=st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]),
    roots=st.lists(rationals, min_size=1, max_size=4),
    weights=st.lists(st.fractions(min_value="1/9", max_value=9, max_denominator=9), min_size=4, max_size=4),
)
def test_p_norm_encloses_the_norm(p, roots, weights):
    # x_i = s_i², so |x_i|^p = |s_i|^(2p) and ‖x‖^(2p) = (Σ w_i·|s_i|^(2p))² are
    # rational for p ∈ {3/2, 2, 3}: the enclosure is checked exactly
    x = vec([s * s for s in roots])
    w = tuple(weights[: x.dim])
    total = sum(wi * abs(s) ** int(2 * p) for wi, s in zip(w, roots))
    value = norm(x, NormSpec(kind="p", p=p, weights=w))
    assert isinstance(value, ApproxReal)
    low = max(Fraction(value.value) - Fraction(value.error), Fraction(0))
    high = Fraction(value.value) + Fraction(value.error)
    power = int(2 * p)  # ‖x‖^power = total²
    assert low**power <= total**2 <= high**power
    assert value.error <= 1e-15 * max(value.value, 1e-300) or value.value == 0


def test_p_norm_exponent_size_is_limited():
    NormSpec(kind="p", p=Fraction(100, 99))
    with pytest.raises(InputError, match="above 100$"):
        NormSpec(kind="p", p=Fraction(101, 100))


@given(elements(), elements())
def test_norm_monotone_on_modulus(x, y):
    spec = NormSpec(kind="sup")
    if x.abs().leq(y.abs()):
        assert norm(x, spec) <= norm(y, spec)
    assert norm(x.sup(y), NormSpec(kind="one")) <= norm(x, NormSpec(kind="one")) + norm(
        y, NormSpec(kind="one")
    )


@settings(max_examples=100)
@given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["", ".12g", "+.12g"]))
def test_format_real_in_range_formats_the_double(f, spec):
    f += 0.0  # a Fraction has no −0
    assert format_real(Fraction(f), spec) == format(f, spec)


def test_format_real_past_the_doubles_rounds_the_exact_value():
    # what a double would print as ±inf is rounded from the exact value, to
    # 12 or, for repr, 17 significant digits, half to even
    big = 10**400
    assert format_real(Fraction(big)) == "1e+400"
    assert format_real(Fraction(-15 * 10**399), "+.12g") == "-1.5e+400"
    assert format_real(Fraction(2 * 10**308), ".12g") == "2e+308"
    assert format_real(Fraction(big + 1, 3), ".12g") == "3.33333333333e+399"
    assert format_real(Fraction(1234567890125 * big), ".12g") == "1.23456789012e+412"
    assert format_real(Fraction(1234567890135 * big), ".12g") == "1.23456789014e+412"
    assert format_real(Fraction(12345678901234567891 * big)) == "1.2345678901234568e+419"
    assert format_real(Fraction(17, 10**400)) == "0.0"  # underflow is no overflow


def reference_float_above(x):
    """float_above in Fractions: the double nearest x, one step up when
    Fraction(f) < x, or inf outside the range of doubles."""
    f = to_float(x)
    return f if f == math.inf or Fraction(f) >= x else math.nextafter(f, math.inf)


def near_a_double(f, side, divisor):
    """f ± ulp(f)/divisor, at or past a double: a half ulp is a tie."""
    return max(Fraction(f) + side * Fraction(math.ulp(f)) / divisor, Fraction(0))


doubles = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
nonnegative = st.one_of(
    doubles.map(Fraction),  # exact dyadics
    st.builds(near_a_double, doubles, st.sampled_from([-1, 1]), st.sampled_from([1, 2, 3, 2**60])),
    st.builds(Fraction, st.integers(0, 10**400), st.integers(1, 10**400)),  # 10^±400
    st.fractions(min_value=0, max_value=10, max_denominator=10**20),
)


@settings(max_examples=300)
@given(nonnegative)
def test_float_above_matches_the_fraction_formula(x):
    # m·den ≥ num·e on integers, against Fraction(f) ≥ x: the least double
    # ≥ x, or inf past the doubles
    above = float_above(x.numerator, x.denominator)
    assert above == reference_float_above(x)
    # the pair need not be in lowest terms
    assert float_above(3 * x.numerator, 3 * x.denominator) == above
    if above < math.inf:
        assert Fraction(above) >= x
        assert above == 0 or Fraction(math.nextafter(above, 0)) < x


def test_float_above_at_the_edges():
    # 0, below the least subnormal, past the largest double, just above a
    # double, and the largest double and just past it
    tiny = Fraction(math.ulp(0.0))
    assert float_above(0, 1) == 0.0
    assert float_above(1, 10**400) == math.ulp(0.0)
    assert float_above(10**400, 1) == math.inf
    assert float_above(*(Fraction(1.5) + tiny).as_integer_ratio()) == math.nextafter(1.5, 2)
    top = Fraction(math.nextafter(math.inf, 0))
    assert float_above(*top.as_integer_ratio()) == float(top)
    assert float_above(*(top + 1).as_integer_ratio()) == math.inf


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(5, 3)]),
    x=st.lists(
        st.one_of(rationals, st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400))),
        min_size=1,
        max_size=4,
    ),
)
def test_p_norm_error_matches_the_fraction_formula(p, x):
    # the p-norm's error is rounded up by float_above; with the Fraction
    # formula in its place the norm is the same
    spec = NormSpec(kind="p", p=p)
    value = norm(vec(x), spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "float_above", lambda num, den: reference_float_above(Fraction(num, den)))
        assert norm(vec(x), spec) == value
