"""Root isolation against sympy: rational roots, real-root counts, one root per disk.

sympy (and mpmath, which sympy requires) are oracles only: the package never
imports them, and these tests are skipped when sympy is missing.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import linalg, spectra
from latticealg.spectra import _isolate, rational_roots, square_free_factors
from test_spectra import group_algebra, q9_element

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


def assert_one_root_per_disk(factor, exact, disks):
    """Exact roots of factor, and disjoint disks each holding exactly one of
    its other roots: together one entry per root."""
    poly = to_sympy(factor)
    assert len(set(exact)) + len(disks) == poly.degree()
    assert all(linalg.poly_eval(factor, root.numerator, root.denominator) == 0 for root in exact)
    for i, a in enumerate(disks):
        assert a.certified_real() or a.certified_nonreal()
        for b in disks[i + 1 :]:
            assert (a.re - b.re) ** 2 + (a.im - b.im) ** 2 > (a.bound + b.bound) ** 2
    assert len(exact) + sum(d.certified_real() for d in disks) == poly.count_roots()
    assert_each_disk_holds_one_root(factor, disks)


def assert_each_disk_holds_one_root(factor, disks):
    """Every disk holds exactly one root of the square-free factor, per
    sympy's real-root count on real disks and mpmath's roots elsewhere."""
    poly = to_sympy(factor)
    if not disks:
        return
    # Nonreal roots are approximated far below every radius: the working
    # precision covers the disks' 2^-2p units and the roots' magnitudes.
    # Real disks and disks of radius 0 need no approximations.
    bits = 64 + max(d.bound.denominator.bit_length() for d in disks)
    bits += max(c.numerator.bit_length() + c.denominator.bit_length() for c in factor)
    with mpmath.workprec(bits):
        if any(not d.certified_real() and d.bound for d in disks):
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
        if len(factor) > 2:
            assert_one_root_per_disk(factor, *_isolate(factor))


@st.composite
def block_polynomials(draw):
    """1–4 blocks, some of them repeated, drawn from 1–3 products of factors
    from one pool of up to 3, so that the arguments share factors and some
    are equal, as the blocks of a direct sum of copies are."""
    pool = draw(st.lists(factors(), min_size=1, max_size=3))
    picks = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)), min_size=1, max_size=3)
    blocks = [product(draw(picks)) for _ in range(draw(st.integers(1, 3)))]
    return draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(block_polynomials())
def test_roots_of_blocks_match_roots_of_their_product(polys):
    # the arguments' factors, refined against each other, give the roots of
    # the product: the same exact roots and multiplicities, the same number
    # of disks of each multiplicity, and one root of the product in each disk
    whole = product([(poly, 1) for poly in polys])
    roots, disks = rational_roots(*polys)
    want_roots, want_disks = rational_roots(whole)
    assert roots == want_roots
    assert Counter(d.multiplicity for d in disks) == Counter(d.multiplicity for d in want_disks)
    square_free = to_sympy(whole).sqf_part().all_coeffs()
    assert_each_disk_holds_one_root([Fraction(int(c.p), int(c.q)) for c in reversed(square_free)], disks)


HUGE = 10**60


@st.composite
def quadratics(draw):
    """Square-free primitive integer quadratics c + b·x + lead·x² with
    coefficients up to 10⁶⁰ and leads up to 50, or with a discriminant that
    is a perfect square: (l₁x − p₁)(l₂x − p₂), of rational roots, or
    (lx − p)² + k², of roots (p ± ik)/l."""
    kind = draw(st.sampled_from(["any", "rational", "gaussian"]))
    if kind == "any":
        q = [draw(st.integers(-HUGE, HUGE)), draw(st.integers(-HUGE, HUGE)), draw(st.integers(1, 50))]
    elif kind == "rational":
        root = st.tuples(st.integers(1, 7), st.integers(-HUGE, HUGE))
        (l1, p1), (l2, p2) = draw(root), draw(root)
        q = [p1 * p2, -(l1 * p2 + l2 * p1), l1 * l2]
    else:
        l, p, k = draw(st.integers(1, 7)), draw(st.integers(-(10**30), 10**30)), draw(st.integers(1, 10**30))
        q = [p * p + k * k, -2 * l * p, l * l]
    assume(q[1] ** 2 != 4 * q[0] * q[2])
    g = math.gcd(*q)
    return [c // g for c in q]


@settings(max_examples=60, deadline=None)
@given(quadratics())
@example([10, -6, 1])  # roots 3 ± i: the start is exact, and the disks have radius 0
@example([-2, 0, 3**1400])  # roots ±√2/3^700
@example([1, -3, 2])  # roots 1/2 and 1
def test_quadratic_start_changes_nothing_but_speed(q):
    # a quadratic starts at its roots, from its discriminant, and one level
    # certifies them: the roots of its monic form lie at least 1 apart.
    # Started from _start instead, it finds the same exact roots and disks
    levels = []
    durand_kerner = spectra._durand_kerner
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            spectra, "_durand_kerner", lambda q, zs, p: levels.append(p) or durand_kerner(q, zs, p)
        )
        exact, disks = _isolate(q)
        assert levels == [spectra.CERTIFY_BITS]
        patch.setattr(spectra, "_quadratic_start", spectra._start)
        want_exact, want_disks = _isolate(q)
    assert sorted(exact) == sorted(want_exact)
    assert sorted(disks, key=lambda d: (d.re, d.im)) == sorted(want_disks, key=lambda d: (d.re, d.im))
    assert_one_root_per_disk([Fraction(c) for c in q], exact, disks)


def test_forty_digit_rational_roots():
    # (x − p/q)(x − p′/q′)(x² − 2) with 40-digit numerators and denominators,
    # one square-free factor of lead c = q·q′: it is isolated as the monic
    # polynomial whose roots are c times its own, so the rational roots are
    # found as the 80-digit integers p·q′ and p′·q, then divided by c
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


@pytest.mark.parametrize("n", [12, 16])
def test_group_algebra_disks_hold_one_root_each(n):
    # ℓ¹(ℤ_n) at a q9 element: the disks, isolated for det(μI − B_C) and
    # built over the lead of each factor times d, each hold one root of the
    # square-free part of char_poly, and the exact roots are sympy's
    result = la.spectrum(group_algebra(n), q9_element(n))
    char_poly = list(result.char_poly)
    assert dict(result.rational_roots) == linear_factor_roots(char_poly)
    square_free = to_sympy(char_poly).sqf_part().all_coeffs()
    assert_each_disk_holds_one_root([Fraction(int(c.p), int(c.q)) for c in reversed(square_free)], result.other_roots)


def test_close_roots_get_disjoint_disks():
    # Mignotte's x⁵ − 2(10²⁰x − 1)² has two real roots 1.4·10⁻⁷⁰ apart near
    # 10⁻²⁰, far closer than the first certified precision can tell apart
    a = 10**20
    poly = [-2, 4 * a, -2 * a * a, 0, 0, 1]
    exact, disks = _isolate(poly)
    assert exact == [] and sum(d.certified_real() for d in disks) == 3
    assert_one_root_per_disk(poly, exact, disks)


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials)
def test_poly_gcd_matches_sympy(a, b):
    # the primitive Euclidean algorithm on integer multiples, against sympy's
    # monic gcd cleared to its primitive integer form
    _, gcd = sympy.gcd(to_sympy(a), to_sympy(b)).monic().clear_denoms(convert=True)
    want = [int(c) for c in reversed(gcd.primitive()[1].all_coeffs())]
    assert linalg.poly_gcd(linalg.integer_poly(a), linalg.integer_poly(b)) == want
