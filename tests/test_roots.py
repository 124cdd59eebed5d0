"""Root isolation against sympy: rational roots, real-root counts, one root per disk.

sympy (and mpmath, which sympy requires) are oracles only: the package never
imports them, and these tests are skipped when sympy is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticealg import linalg
from latticealg.spectra import _isolate, rational_roots, square_free_factors

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

X = sympy.Symbol("x")
BIG = 10**40
M36 = 5226755304703405301879917009201790976

coefficients = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
leads = st.one_of(st.integers(1, 9), st.integers(1, BIG))


@st.composite
def factors(draw):
    """c_0 + … + c_{d−1}·x^(d−1) + lead·x^d with d ≤ 3; a linear one has the
    rational root −c_0/lead, with numerator and denominator up to 40 digits."""
    degree = draw(st.integers(1, 3))
    return [Fraction(draw(coefficients)) for _ in range(degree)] + [Fraction(draw(leads))]


def times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def product(parts):
    poly = [Fraction(1)]
    for factor, multiplicity in parts:
        for _ in range(multiplicity):
            poly = times(poly, factor)
    return poly


polynomials = st.lists(st.tuples(factors(), st.integers(1, 3)), min_size=1, max_size=4).map(product)


def to_sympy(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X)


def linear_factor_roots(poly):
    """sympy's rational roots with multiplicities, from its linear factors."""
    out: dict[Fraction, int] = {}
    for factor, multiplicity in sympy.factor_list(to_sympy(poly))[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = -c0 / c1
            key = Fraction(int(root.p), int(root.q))
            out[key] = out.get(key, 0) + multiplicity
    return out


def assert_one_root_per_disk(factor, disks):
    """Disjoint disks, one per root, each holding exactly one root of factor."""
    poly = to_sympy(factor)
    assert len(disks) == poly.degree()
    for i, a in enumerate(disks):
        assert a.certified_real() or a.certified_nonreal()
        for b in disks[i + 1 :]:
            assert (a.re - b.re) ** 2 + (a.im - b.im) ** 2 > (a.bound + b.bound) ** 2
    assert sum(d.certified_real() for d in disks) == poly.count_roots()
    # Nonreal roots are approximated far below every radius: the working
    # precision covers the disks' 2^-2p units and the roots' magnitudes.
    bits = 64 + max(d.bound.denominator.bit_length() for d in disks)
    bits += max(c.numerator.bit_length() + c.denominator.bit_length() for c in factor)
    with mpmath.workprec(bits):
        approximations = mpmath.polyroots(
            [mpmath.mpf(c.numerator) / c.denominator for c in reversed(factor)],
            maxsteps=500,
            extraprec=bits,
        )
        for disk in disks:
            if disk.certified_real():
                low, high = disk.re - disk.bound, disk.re + disk.bound
                held = poly.count_roots(sympy.Rational(low), sympy.Rational(high))
            elif disk.bound == 0:
                centre = sympy.Rational(disk.re) + sympy.I * sympy.Rational(disk.im)
                held = int(sympy.expand(poly.as_expr().subs(X, centre)) == 0)
            else:
                centre = mpmath.mpc(
                    mpmath.mpf(disk.re.numerator) / disk.re.denominator,
                    mpmath.mpf(disk.im.numerator) / disk.im.denominator,
                )
                radius = mpmath.mpf(disk.bound.numerator) / disk.bound.denominator
                held = sum(abs(z - centre) <= radius for z in approximations)
            assert held == 1, disk


@settings(max_examples=60, deadline=None)
@given(polynomials)
@example(  # roots near 5·10³⁶, 2·10⁻³⁶ and ±i in one quartic factor
    [Fraction(c) for c in (0, 0, 9, -M36, 10, -M36, 1)]
)
def test_roots_match_sympy(poly):
    roots, disks = rational_roots(poly)
    assert dict(roots) == linear_factor_roots(poly)
    assert sum(m for _, m in roots) + sum(d.multiplicity for d in disks) == len(poly) - 1
    for factor, _ in square_free_factors(poly):
        assert_one_root_per_disk(factor, _isolate(factor))


def test_forty_digit_rational_roots():
    # (x − p/q)(x − p′/q′)(x² − 2) with 40-digit numerators and denominators:
    # the real disks must be narrower than 1/(2·lead²) with lead = q·q′
    r1 = Fraction(1234567890123456789012345678901234567891, 9876543210987654321098765432109876543211)
    r2 = Fraction(-3141592653589793238462643383279502884197, 2718281828459045235360287471352662497757)
    quadratic = [Fraction(-2), Fraction(0), Fraction(1)]
    poly = times(times([-r1, Fraction(1)], [-r2, Fraction(1)]), quadratic)
    roots, disks = rational_roots(poly)
    assert roots == sorted([(r1, 1), (r2, 1)])
    # the other two roots are −√2 and √2, each alone in a real disk
    assert [d.multiplicity for d in disks] == [1, 1]
    for disk, sign in zip(disks, (-1, 1)):
        assert disk.certified_real() and sign * disk.re > 0
        low, high = abs(disk.re) - disk.bound, abs(disk.re) + disk.bound
        assert 0 < low and low**2 <= 2 <= high**2


def test_close_roots_get_disjoint_disks():
    # Mignotte's x⁵ − 2(10²⁰x − 1)² has two real roots 1.4·10⁻⁷⁰ apart near
    # 10⁻²⁰, far closer than the first certified precision can tell apart
    a = 10**20
    poly = [Fraction(c) for c in (-2, 4 * a, -2 * a * a, 0, 0, 1)]
    disks = _isolate(poly)
    assert sum(d.certified_real() for d in disks) == 3
    assert_one_root_per_disk(poly, disks)


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials)
def test_poly_gcd_matches_sympy(a, b):
    # the primitive Euclidean algorithm on integer multiples, against sympy's
    # monic gcd cleared to its primitive integer form
    _, gcd = sympy.gcd(to_sympy(a), to_sympy(b)).monic().clear_denoms(convert=True)
    want = [int(c) for c in reversed(gcd.primitive()[1].all_coeffs())]
    assert linalg.poly_gcd(linalg.integer_poly(a), linalg.integer_poly(b)) == want
