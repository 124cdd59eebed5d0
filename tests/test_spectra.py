"""Characteristic polynomials, exact and numeric roots, spectral theorems."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import ApproxReal, GridSpec, InputError, linalg, spectra, vec
from latticealg.spectra import (
    evaluate_char_poly_at_element,
    rational_roots,
    square_free_factors,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def F(*args):
    return Fraction(*args)


def faddeev_leverrier(a):
    """Reference: det(λI − A), ascending, by Faddeev–LeVerrier over Fraction.

    M_1 = I, c_{n−k} = −tr(A·M_k)/k and M_{k+1} = A·M_k + c_{n−k}·I.
    """
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_char_poly_matches_fraction_reference(a):
    # the integer recursion on D·A, rescaled, against the Fraction recursion on A
    assert linalg.char_poly_monic(a) == faddeev_leverrier(a)


def test_char_poly_of_diagonal_multiplier():
    # a = 2·E11 + 3·E22 in upper2 has L_a = diag(2, 2, 3):
    # det(L_a − λI) = (2−λ)²(3−λ) = −λ³ + 7λ² − 16λ + 12
    alg = la.builtin("upper2")
    result = la.spectrum(alg, vec([2, 0, 3]))
    assert result.char_poly == (F(12), F(-16), F(7), F(-1))
    assert dict(result.rational_roots) == {F(2): 2, F(3): 1}
    assert result.all_roots_rational
    assert result.sigma() == frozenset({F(2), F(3)})
    assert result.spectral_radius() == F(3)
    assert result.sigma_in_nonneg_reals() is True


def test_sigma_of_identity_and_zero(unital_algebra):
    e = unital_algebra.require_identity()
    assert la.spectrum(unital_algebra, e).sigma() == frozenset({F(1)})
    assert la.spectrum(unital_algebra, unital_algebra.zero()).sigma() == frozenset({F(0)})


@given(rationals)
def test_sigma_scales(alpha):
    alg = la.builtin("m3-reflection")
    a = vec([0, 1, 0])
    scaled = la.spectrum(alg, a.scale(alpha)).sigma()
    assert scaled == frozenset(alpha * s for s in la.spectrum(alg, a).sigma())


def test_nilpotent_spectrum():
    alg = la.builtin("upper2")
    result = la.spectrum(alg, vec([0, 1, 0]))
    assert result.sigma() == frozenset({F(0)})
    assert result.char_poly == (F(0), F(0), F(0), F(-1))  # −λ³


def test_reflection_spectrum():
    alg = la.builtin("m3-reflection")
    result = la.spectrum(alg, vec([0, 1, 0]))
    assert result.char_poly == (F(0), F(1), F(0), F(-1))  # −λ³ + λ
    assert result.sigma() == frozenset({F(-1), F(0), F(1)})


def test_irrational_roots_are_certified_numerically():
    # golden = E11 + E12 + E21 in the 2×2 matrix algebra:
    # char(L) = (λ² − λ − 1)², roots the golden ratio and its conjugate
    alg = la.builtin("m2-regular")
    result = la.spectrum(alg, vec([1, 1, 1, 0]))
    assert result.char_poly == (F(1), F(2), F(-1), F(-2), F(1))
    assert result.rational_roots == ()
    assert not result.all_roots_rational
    with pytest.raises(InputError):
        result.sigma()
    assert len(result.other_roots) == 2
    for root in result.other_roots:
        assert root.multiplicity == 2
        assert root.certified_real()
        assert root.radius < 1e-20
    radius = result.spectral_radius()
    assert isinstance(radius, ApproxReal)
    assert abs(radius.value - 1.618033988749895) < 1e-9
    assert result.sigma_in_nonneg_reals() is False


def test_rational_roots_helper():
    # (λ − 1/2)²·(λ + 3) = λ³ + 2λ² − 11/4·λ + 3/4
    coeffs = [F(3, 4), F(-11, 4), F(2), F(1)]
    roots, disks = rational_roots(coeffs)
    assert dict(roots) == {F(1, 2): 2, F(-3): 1}
    assert disks == []
    # λ² − 2 has no rational roots at all: both roots stay in real disks
    roots, disks = rational_roots([F(-2), F(0), F(1)])
    assert roots == []
    assert [(d.certified_real(), d.multiplicity) for d in disks] == [(True, 1), (True, 1)]
    assert disks[0].re < 0 < disks[1].re


def test_rational_root_must_lie_in_its_disk():
    # (λ − 3)(λ² − λ − 8) is one square-free factor.  3 is the nearest
    # integer to the disk of (1 + √33)/2 ≈ 3.372 and a root, but of another
    # disk: it is counted once, and both irrational roots keep their disks.
    coeffs = [F(24), F(-5), F(-4), F(1)]
    roots, disks = rational_roots(coeffs)
    assert roots == [(F(3), 1)]
    assert [(d.certified_real(), d.multiplicity) for d in disks] == [(True, 1), (True, 1)]
    for disk, root in zip(disks, ((1 - 33**0.5) / 2, (1 + 33**0.5) / 2)):
        assert abs(disk.value.real - root) < 1e-12
        assert disk.re - disk.bound > 3 or disk.re + disk.bound < 3


def test_each_yun_factor_is_isolated_once(monkeypatch):
    # (λ − 1)²(λ² − 2)²(λ + 1/2)(λ² + 1)³(λ − 5)³: Yun factors (λ + 1/2),
    # (λ − 1)(λ² − 2) and (λ² + 1)(λ − 5), each mixing rational and other roots
    isolated = []
    isolate = spectra._isolate
    monkeypatch.setattr(spectra, "_isolate", lambda q: isolated.append(q) or isolate(q))
    poly = [F(1)]
    factors = [[-1, 1]] * 2 + [[-2, 0, 1]] * 2 + [[F(1, 2), 1]] + [[1, 0, 1]] * 3 + [[-5, 1]] * 3
    for factor in factors:
        product = [F(0)] * (len(poly) + len(factor) - 1)
        for i, u in enumerate(poly):
            for j, v in enumerate(factor):
                product[i + j] += u * v
        poly = product
    roots, disks = rational_roots(poly)
    assert roots == [(F(-1, 2), 1), (F(1), 2), (F(5), 3)]
    assert sorted((d.certified_real(), d.multiplicity) for d in disks) == [
        (False, 3), (False, 3), (True, 2), (True, 2)
    ]
    assert sorted(isolated) == sorted(f for f, _ in square_free_factors(poly))
    assert len(isolated) == 3
    # spectrum isolates the golden element's one Yun factor, λ² − λ − 1, once
    isolated.clear()
    la.spectrum(la.builtin("m2-regular"), vec([1, 1, 1, 0]))
    assert isolated == [[-1, -1, 1]]


def test_square_free_factorization():
    # (λ² − 2)²(λ − 1) expands to λ⁵ − λ⁴ − 4λ³ + 4λ² + 4λ − 4
    coeffs = [F(-4), F(4), F(4), F(-4), F(-1), F(1)]
    factors = square_free_factors(coeffs)
    as_tuples = sorted((tuple(f), m) for f, m in factors)
    assert as_tuples == [
        ((F(-2), F(0), F(1)), 2),
        ((F(-1), F(1)), 1),
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3).map(vec))
def test_cayley_hamilton(a):
    alg = la.builtin("m3-reflection")
    result = la.spectrum(alg, a)
    assert evaluate_char_poly_at_element(alg, result, a).is_zero()


def test_oi_spectrum_is_zero_one(unital_algebra):
    e = unital_algebra.require_identity()
    for p in la.enumerate_order_idempotents(unital_algebra):
        if p.is_zero() or p == e:
            continue
        assert la.spectrum(unital_algebra, p).sigma() == frozenset({F(0), F(1)})


def test_norm_e_equals_spectral_radius_on_ideal(unital_algebra):
    rep = la.ck_representation(unital_algebra)
    samples = [
        rep.from_coords([F(2)] + [F(-1, 2)] * (rep.n_points - 1)),
        rep.from_coords([F(1, 3)] * rep.n_points),
    ]
    for x in samples:
        result = la.spectrum(unital_algebra, x)
        assert result.all_roots_rational
        assert result.spectral_radius() == rep.norm_e(x)


def test_check_bp_spectrum_cases():
    alg = la.builtin("upper2")
    # square-zero ray member: σ = {0}
    report = la.check_bp_spectrum(alg, vec([0, "7/3", 0]))
    assert report.ok and report.square_is_zero
    assert report.sigma == (F(0),)
    # order idempotent: radius 1 and ‖p²‖_e = 1
    report = la.check_bp_spectrum(alg, vec([1, 0, 0]))
    assert report.ok and not report.square_is_zero
    assert report.radius_is_one and report.square_norm_e == 1
    with pytest.raises(la.NotBandProjectionError):
        la.check_bp_spectrum(alg, vec([1, 1, 0]))


def test_check_bp_spectrum_all_grid_bps(unital_algebra):
    for p in la.search_band_projections(unital_algebra, GridSpec.from_resolution(2)):
        assert la.check_bp_spectrum(unital_algebra, p).ok


def test_positive_spectrum_center_check_cases():
    u = la.builtin("upper2")
    # a = 2e: both sides of the biconditional true
    report = la.positive_spectrum_center_check(u, u.require_identity().scale(2))
    assert report.applicable and report.ok
    assert report.in_ideal is True and report.sigma_nonneg is True
    # diagonal a = 2E11 + 3E22: applicable and consistent
    report = la.positive_spectrum_center_check(u, vec([2, 0, 3]))
    assert report.applicable and report.consistent is True
    # ck2 (1,3): everything in A_e
    ck = la.builtin("ck2")
    report = la.positive_spectrum_center_check(ck, vec([1, 3]))
    assert report.applicable and report.ok
    # m3-reflection p + 2e: inverse exists but is not positive → inapplicable
    m3 = la.builtin("m3-reflection")
    report = la.positive_spectrum_center_check(m3, vec([2, 1, 2]))
    assert not report.applicable
    assert report.failed_hypothesis == "inverse of a is not positive"
    assert report.ok  # vacuously
    # and a genuinely non-invertible element
    report = la.positive_spectrum_center_check(u, vec([1, 0, 0]))
    assert not report.applicable
    assert report.failed_hypothesis == "a is not invertible"


def test_shifted_idempotent_cases():
    u = la.builtin("upper2")
    e = u.require_identity()
    res = la.shifted_idempotent_check(u, e, 0)
    assert res.applicable and res.shifted == e
    res = la.shifted_idempotent_check(u, vec([2, 0, 3]), 2)
    assert res.applicable and res.shifted == vec([0, 0, 1])
    ck = la.builtin("ck2")
    res = la.shifted_idempotent_check(ck, vec([2, 3]), 2)
    assert res.applicable and res.shifted == vec([0, 1])
    # σ(a) ⊄ {λ, λ+1} for λ = 1 → inapplicable, hypothesis named
    res = la.shifted_idempotent_check(u, vec([2, 0, 3]), 1)
    assert not res.applicable
    assert "σ(a)" in res.failed_hypothesis
    res = la.shifted_idempotent_check(u, vec([2, 0, 3]), "-1")
    assert not res.applicable and res.failed_hypothesis == "λ is negative"


def test_only_real_disks_give_candidates(monkeypatch):
    # (λ² + 1)(λ² − 2λ + 5): no real root, so no candidate is evaluated,
    # although 0 and 1, the real parts of ±i and 1 ± 2i, are rational
    evaluations = []
    poly_eval = linalg.poly_eval
    monkeypatch.setattr(linalg, "poly_eval", lambda p, x: evaluations.append(x) or poly_eval(p, x))
    coeffs = [F(5), F(-2), F(6), F(-2), F(1)]
    roots, disks = rational_roots(coeffs)
    assert roots == []
    assert [(d.certified_nonreal(), d.multiplicity) for d in disks] == [(True, 1)] * 4
    assert evaluations == []


def test_spectrum_needs_no_mpmath():
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import latticealg as la\n"
        "from fractions import Fraction\n"
        "from latticealg.lattice import norm\n"
        "for name in la.BUILTIN_NAMES:\n"
        "    alg = la.builtin(name)\n"
        "    if alg.has_identity():\n"
        "        for x in [alg.require_identity(), *alg.elements.values()]:\n"
        "            la.spectrum(alg, x).spectral_radius()\n"
        "norm(la.vec([3, 4]), la.NormSpec(kind='p', p=Fraction(3, 2)))\n"
        "print('ok')\n"
    )
    src = str(Path(la.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
