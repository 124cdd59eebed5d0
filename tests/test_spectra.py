"""Characteristic polynomials, exact and numeric roots, spectral theorems."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import ApproxReal, GridSpec, InputError, linalg, spectra, vec
from latticealg.algebra import integer_form
from latticealg.spectra import rational_roots, square_free_factors

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
UNITAL_NAMES = [n for n in la.BUILTIN_NAMES if la.builtin(n).has_identity()]


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


def divided(disk, c):
    """The disk scaled by 1/c for an integer c > 0, one Fraction division per
    field: the reference for the disks that spectrum builds over d."""
    return spectra.NumericRoot(disk.re / c, disk.im / c, disk.bound / c, disk.multiplicity)


def expand(*factors):
    """The ascending coefficients of the product of ascending factors."""
    poly = [F(1)]
    for factor in factors:
        poly = [
            sum(poly[i] * factor[k - i] for i in range(len(poly)) if 0 <= k - i < len(factor))
            for k in range(len(poly) + len(factor) - 1)
        ]
    return poly


def group_algebra(n):
    """ℓ¹(ℤ_n): b_g∗b_h = b_{g+h mod n}, with identity b_0."""
    tensor = {(g, h, (g + h) % n): 1 for g in range(n) for h in range(n)}
    identity = vec([1] + [0] * (n - 1))
    return la.AlgebraSpec(dim=n, tensor=tensor, norm=la.NormSpec(kind="one"), identity=identity)


def q9_element(n):
    """n coordinates s/t with s in −9..9 and t in 1..9, from random.Random(5)."""
    rng = random.Random(5)
    return vec([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_char_poly_matches_fraction_reference(a):
    # the integer recursion on B = D·A, rescaled, against the Fraction recursion on A
    d = math.lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    assert linalg.char_poly_monic(b, d) == faddeev_leverrier(a)


@st.composite
def reducible_matrices(draw):
    """(B, d): an integer matrix with several strongly connected components
    and a denominator.  B is block upper triangular with 1×1 to 4×4 diagonal
    blocks, sparse entries and some zero rows, conjugated by a random
    permutation; the dimension is at most 12."""
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=12).filter(lambda s: sum(s) <= 12)
    )
    n = sum(sizes)
    block = [k for k, size in enumerate(sizes) for _ in range(size)]
    entries = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), min_size=n * n, max_size=n * n))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    a = [
        [entries[i * n + j] if block[i] <= block[j] and i not in zero_rows else 0 for j in range(n)]
        for i in range(n)
    ]
    order = draw(st.permutations(range(n)))
    return [[a[i][j] for j in order] for i in order], draw(st.integers(1, 9))


def reachable(b):
    """reach[i] = the set of j with a path i → … → j along nonzero entries (i included)."""
    n = len(b)
    reach = [{i} | {j for j in range(n) if b[i][j]} for i in range(n)]
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


@settings(max_examples=60, deadline=None)
@given(reducible_matrices())
def test_char_poly_of_reducible_matrices_matches_fraction_reference(case):
    # the product of the diagonal blocks' polynomials against the Fraction
    # recursion on the whole matrix
    b, d = case
    assert linalg.char_poly_monic(b, d) == faddeev_leverrier([[F(x, d) for x in row] for row in b])
    # the blocks are the strongly connected components: they partition the
    # indices, and i, j share a block exactly when each reaches the other
    blocks = linalg._blocks(b)
    assert sorted(i for block in blocks for i in block) == list(range(len(b)))
    reach = reachable(b)
    block_of = {i: k for k, block in enumerate(blocks) for i in block}
    for i in range(len(b)):
        for j in range(len(b)):
            assert (block_of[i] == block_of[j]) == (j in reach[i] and i in reach[j])


def test_blocks_need_no_recursion_at_the_dimension_limit():
    # one cycle 0 → 1 → … → 63 → 0 is a single block 64 frames deep, and a
    # chain without the closing edge is 64 blocks
    n = 64
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    assert linalg._blocks(cycle) == [list(range(n))]
    chain = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    assert sorted(linalg._blocks(chain)) == [[i] for i in range(n)]
    assert linalg.char_poly_monic(chain, 1) == [F(0)] * n + [F(1)]


def test_direct_sum_char_poly_is_the_product_of_the_blocks():
    # sixteen upper2 blocks make a dim-48 algebra whose L_a is block diagonal
    upper2 = la.builtin("upper2")
    alg = la.lp_sum([upper2] * 16)
    parts = [vec([k % 5 - 2, F(k, 3), F(1, k + 1)]) for k in range(16)]
    result = la.spectrum(alg, vec([c for part in parts for c in part.coords]))
    blocks = [la.spectrum(upper2, part).char_poly for part in parts]
    assert list(result.char_poly) == expand(*blocks)
    assert result.dim == 48


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


def test_modulus_bounds_of_an_exact_disk():
    # [[3, −1], [1, 3]] in m2-regular has σ = {3 ± i}, each in a disk of
    # radius 0 centred on an integer: |3 ± i| = √10 is bracketed at a scale
    # of 2^CERTIFY_BITS, not at the centre's denominator 1
    result = la.spectrum(la.builtin("m2-regular"), vec([3, -1, 1, 3]))
    assert [(d.re, d.im, d.bound) for d in result.other_roots] == [(3, -1, 0), (3, 1, 0)]
    for disk in result.other_roots:
        low, high = disk.modulus_bounds()
        assert low**2 <= 10 <= high**2 and high - low == F(1, 2**spectra.CERTIFY_BITS)
    radius = result.spectral_radius()
    assert abs(radius.value - 10**0.5) <= radius.error < 1e-15


def reference_modulus_bounds(disk):
    """modulus_bounds in Fractions: |centre|² as re² + im², bracketed at a
    scale of at least 2^CERTIFY_BITS."""
    square = disk.re**2 + disk.im**2
    scale = max(square.denominator, 1 << spectra.CERTIFY_BITS)
    root = math.isqrt(square.numerator * scale * scale // square.denominator)
    low = max(F(root, scale) - disk.bound, F(0))
    return low, F(root + 1, scale) + disk.bound


# Centres small, with long denominators, or past the range of doubles.
centres = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-10, max_value=10, max_denominator=2**140),
    st.builds(F, st.integers(-(10**400), 10**400), st.integers(1, 10**40)),
)
disks = st.builds(
    spectra.NumericRoot,
    centres,
    centres,
    st.builds(F, st.integers(0, 10**6), st.integers(1, 2**140)),
    st.integers(1, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(disks, min_size=1, max_size=4), st.lists(rationals, max_size=3))
def test_modulus_bounds_match_the_fraction_formula(others, exact):
    # |centre|² from the centre's integers with one gcd, against re² + im²;
    # spectral_radius, which reads the bounds, is the same with either, and
    # a centre past the doubles still gives an infinite value and error
    for disk in others:
        assert disk.modulus_bounds() == reference_modulus_bounds(disk)
    result = spectra.SpectrumResult(
        element=vec([0]),
        char_poly=(F(0), F(1)),
        rational_roots=tuple((root, 1) for root in sorted(set(exact))),
        other_roots=tuple(others),
    )
    radius = result.spectral_radius()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra.NumericRoot, "modulus_bounds", reference_modulus_bounds)
        assert radius == result.spectral_radius()
    if any(math.isinf(abs(disk.value)) for disk in others):
        assert radius == ApproxReal(math.inf, math.inf)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=8), rationals)
def test_poly_eval_is_the_scaled_value(q, x):
    # t^d·q(s/t) on integers, against Horner on fractions
    value = F(0)
    for c in reversed(q):
        value = value * x + c
    assert linalg.poly_eval(q, x.numerator, x.denominator) == value * x.denominator ** (len(q) - 1)


def test_spectrum_of_a_multiple_divides_the_disks():
    # golden/7 has golden's integer rows B and d = 7, so rational_roots
    # isolates the same block polynomials and spectrum divides their disks by
    # 7: the result is golden's disks divided by 7, field by field
    alg = la.builtin("m2-regular")
    golden = la.spectrum(alg, vec([1, 1, 1, 0]))
    seventh = la.spectrum(alg, vec([F(1, 7), F(1, 7), F(1, 7), 0]))
    assert seventh.other_roots == tuple(divided(disk, 7) for disk in golden.other_roots)


@st.composite
def integer_elements(draw):
    """(algebra, coordinates, k): a unital builtin or the lp_sum of two, an
    integer element, and k in 2..9 coprime to the element's content, so that
    a/k has the integer form (a, k)."""
    names = draw(st.lists(st.sampled_from(UNITAL_NAMES), min_size=1, max_size=2))
    alg = la.builtin(names[0]) if len(names) == 1 else la.lp_sum([la.builtin(n) for n in names])
    coords = draw(st.lists(st.integers(-4, 4), min_size=alg.dim, max_size=alg.dim))
    k = draw(st.integers(2, 9))
    assume(math.gcd(k, *coords) == 1)
    return alg, coords, k


@settings(max_examples=60, deadline=None)
@given(integer_elements())
def test_spectrum_of_a_multiple_is_divided_exactly(case):
    alg, coords, k = case
    whole = la.spectrum(alg, vec(coords))
    part = la.spectrum(alg, vec([F(c, k) for c in coords]))
    assert part.rational_roots == tuple((root / k, m) for root, m in whole.rational_roots)
    assert part.other_roots == tuple(divided(disk, k) for disk in whole.other_roots)


@st.composite
def unital_sum_elements(draw):
    """(algebra, element): a unital builtin or the lp_sum of two or three,
    and an element whose coordinates have denominators up to 9."""
    names = draw(st.lists(st.sampled_from(UNITAL_NAMES), min_size=1, max_size=3))
    alg = la.builtin(names[0]) if len(names) == 1 else la.lp_sum([la.builtin(n) for n in names])
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    return alg, vec(draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim)))


@settings(max_examples=80, deadline=None)
@given(unital_sum_elements())
def test_spectrum_matches_the_two_step_reference(case):
    # spectrum builds each root and disk once, over the factor's lead times
    # d; the reference finds them for the roots μ = d·λ and divides by d
    alg, a = case
    v, scale = integer_form(alg, a)
    kernel = alg.integer_tensor
    d = scale * kernel.den
    blocks = linalg.char_poly_blocks(kernel.left_matrix(v))
    exact, isolated = rational_roots(*blocks)
    sign = F(-1) ** alg.dim
    result = la.spectrum(alg, a)
    assert result.char_poly == tuple(sign * c for c in linalg.monic_product(blocks, d))
    assert result.rational_roots == tuple((root / d, m) for root, m in exact)
    assert result.other_roots == tuple(divided(disk, d) for disk in isolated)


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
    # read off, and (λ − 1)(λ² − 2) and (λ² + 1)(λ − 5), each mixing
    # rational and other roots, so each is isolated
    isolated = []
    isolate = spectra._isolate
    monkeypatch.setattr(spectra, "_isolate", lambda q, *args: isolated.append(q) or isolate(q, *args))
    factors = [[-1, 1]] * 2 + [[-2, 0, 1]] * 2 + [[F(1, 2), 1]] + [[1, 0, 1]] * 3 + [[-5, 1]] * 3
    poly = expand(*factors)
    roots, disks = rational_roots(poly)
    assert roots == [(F(-1, 2), 1), (F(1), 2), (F(5), 3)]
    assert sorted((d.certified_real(), d.multiplicity) for d in disks) == [
        (False, 3), (False, 3), (True, 2), (True, 2)
    ]
    assert sorted(isolated) == sorted(f for f, _ in square_free_factors(poly) if len(f) > 2)
    assert len(isolated) == 2
    # spectrum isolates the golden element's one Yun factor, λ² − λ − 1, once
    isolated.clear()
    la.spectrum(la.builtin("m2-regular"), vec([1, 1, 1, 0]))
    assert isolated == [[-1, -1, 1]]


def test_factors_shared_by_blocks_are_isolated_once(monkeypatch):
    # (λ² − λ − 1)(λ − 1) and λ² − λ − 1: refined to λ² − λ − 1 of
    # multiplicity 2 and λ − 1, read off; one isolation in all
    isolated = []
    isolate = spectra._isolate
    monkeypatch.setattr(spectra, "_isolate", lambda q, *args: isolated.append(q) or isolate(q, *args))
    golden = [F(-1), F(-1), F(1)]
    roots, disks = rational_roots(expand(golden, [F(-1), F(1)]), golden)
    assert roots == [(F(1), 1)]
    assert [(d.certified_real(), d.multiplicity) for d in disks] == [(True, 2), (True, 2)]
    assert isolated == [[-1, -1, 1]]
    assert rational_roots(expand(golden, golden, [F(-1), F(1)])) == (roots, disks)
    # two m2-regular copies holding the golden element: (λ² − λ − 1)⁴
    isolated.clear()
    alg = la.lp_sum([la.builtin("m2-regular")] * 2)
    result = la.spectrum(alg, vec([1, 1, 1, 0] * 2))
    assert result.rational_roots == ()
    assert [d.multiplicity for d in result.other_roots] == [4, 4]
    assert isolated == [[-1, -1, 1]]


def test_duplicate_blocks_are_factored_once(monkeypatch):
    # f = (λ² − 2)(λ − 3) twice and g = λ² − λ − 1: Yun runs once on f, its
    # multiplicities doubled, and once on g, and the roots are those of f·f·g
    calls = counting(monkeypatch, "square_free_factors")
    f = expand([F(-2), F(0), F(1)], [F(-3), F(1)])
    g = [F(-1), F(-1), F(1)]
    result = rational_roots(f, f, g)
    assert calls == {"square_free_factors": 2}
    assert result == rational_roots(expand(f, f, g))
    assert result[0] == [(F(3), 2)]
    assert [d.multiplicity for d in result[1]] == [2, 1, 2, 1]  # −√2, −1/φ, √2, φ
    # L_a of m2-regular's golden element has two equal blocks λ² − λ − 1,
    # factored once; the disks are those found when each block was factored
    calls["square_free_factors"] = 0
    alg = la.builtin("m2-regular")
    result = la.spectrum(alg, alg.elements["golden"])
    assert calls == {"square_free_factors": 1}
    bound = F(43886892181914712461662143838758837547, 2**256)
    assert result.rational_roots == ()
    assert result.other_roots == (
        spectra.NumericRoot(F(-52576517132350718291434092471003083277, 2**126), F(0), bound, 2),
        spectra.NumericRoot(F(137647108862585334157277744328945136141, 2**126), F(0), bound, 2),
    )


def test_far_cluster_is_certified_at_once():
    # (λ − 10^1000)² − 2 has two roots 2√2 apart, at 10^1000 ± √2: a
    # quadratic starts at its roots, so one level certifies them
    big = 10**1000
    start = time.perf_counter()
    roots, disks = rational_roots([F(big * big - 2), F(-2 * big), F(1)])
    elapsed = time.perf_counter() - start
    assert roots == [] and [d.certified_real() for d in disks] == [True, True]
    for disk, sign in zip(disks, (-1, 1)):
        low, high = sign * (disk.re - big) - disk.bound, sign * (disk.re - big) + disk.bound
        assert 0 < low and low**2 <= 2 <= high**2
    assert elapsed < 0.05


def test_one_by_one_root_shared_with_a_larger_block():
    # λ − 3 and (λ − 3)(λ² − λ − 8): 3 is read off the first and found
    # exactly in the second's one Yun factor, and reported once
    roots, disks = rational_roots([F(-3), F(1)], [F(24), F(-5), F(-4), F(1)])
    assert roots == [(F(3), 2)]
    assert [(d.certified_real(), d.multiplicity) for d in disks] == [(True, 1), (True, 1)]
    # the same through spectrum: (3, 5) in ck2 has two 1×1 blocks, and
    # [[2, 1], [1, 2]] in m2-regular two 2×2 blocks of polynomial
    # (λ − 3)(λ − 1), whose roots are found by the snap
    alg = la.lp_sum([la.builtin("ck2"), la.builtin("m2-regular")])
    result = la.spectrum(alg, vec([3, 5, 2, 1, 1, 2]))
    assert result.rational_roots == ((F(1), 2), (F(3), 3), (F(5), 1))
    assert result.other_roots == ()


def counting(monkeypatch, *names):
    """Wrap the functions of these names, spectra's or else linalg's;
    return their call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        module = spectra if hasattr(spectra, name) else linalg
        original = getattr(module, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_all_rational_factor_needs_no_certificate(monkeypatch):
    # (λ − 1)(λ − 2)(λ − 1/3), one square-free factor 3λ³ − 10λ² + 9λ − 2:
    # one Durand–Kerner level, three exact evaluations, no disk
    calls = counting(monkeypatch, "_durand_kerner", "_radii", "_certified", "_isolate", "poly_eval")
    roots, disks = rational_roots(expand([F(-1), F(1)], [F(-2), F(1)], [F(-1, 3), F(1)]))
    assert roots == [(F(1, 3), 1), (F(1), 1), (F(2), 1)]
    assert disks == []
    assert calls == {"_durand_kerner": 1, "_radii": 0, "_certified": 0, "_isolate": 1, "poly_eval": 3}


def test_all_rational_factor_with_a_large_lead_snaps_early(monkeypatch):
    # ∏_{k=2..8}(λ − 1/k) has the lead 8! = 40320, and the characteristic
    # polynomial of the dim-48 sum of upper2 blocks a degree-15 Yun factor
    # with a 45-bit lead whose roots are 1/2 … 1/16 and small integers.
    # Each factor is isolated as the monic polynomial whose roots are the
    # lead times its own: integers, which the snap finds after one
    # Durand–Kerner level per non-linear factor
    calls = counting(monkeypatch, "_durand_kerner", "_radii", "_certified")
    roots, disks = rational_roots(expand(*[[F(-1, k), F(1)] for k in range(2, 9)]))
    assert roots == [(F(1, k), 1) for k in range(8, 1, -1)] and disks == []
    assert calls == {"_durand_kerner": 1, "_radii": 0, "_certified": 0}
    # three denominators above 200, and a lead of 201·203·301: the first level too
    calls.update(dict.fromkeys(calls, 0))
    roots, disks = rational_roots(expand([F(-100, 201), F(1)], [F(-150, 203), F(1)], [F(75, 301), F(1)]))
    assert roots == [(F(-75, 301), 1), (F(100, 201), 1), (F(150, 203), 1)] and disks == []
    assert calls == {"_durand_kerner": 1, "_radii": 0, "_certified": 0}
    calls.update(dict.fromkeys(calls, 0))
    alg = la.lp_sum([la.builtin("upper2")] * 16)
    parts = [[k % 5 - 2, F(k, 3), F(1, k + 1)] for k in range(16)]
    result = la.spectrum(alg, vec([c for part in parts for c in part]))
    assert result.rational_roots == (
        (F(-2), 8), (F(-1), 6), (F(0), 6), *((F(1, k), 1) for k in range(16, 1, -1)), (F(1), 7), (F(2), 6)
    )
    assert result.other_roots == ()
    # L_a is triangular, so spectrum reads every root off a 1×1 block
    assert calls == {"_durand_kerner": 0, "_radii": 0, "_certified": 0}
    # the product of the blocks' polynomials, factored as a whole
    roots, disks = rational_roots(result.char_poly)
    assert tuple(roots) == result.rational_roots and disks == []
    assert calls == {"_durand_kerner": 2, "_radii": 0, "_certified": 0}



def test_snap_rounds_to_the_nearest_integer():
    # μ² − μ − 6 = (μ − 3)(μ + 2): points a grid unit below 3 and above −2
    # round to the roots, and a point past 3.5 rounds to 4, no root
    unit = 1 << 16
    assert spectra._snapped_roots([-6, -1, 1], [(3 * unit - 1, 0), (-2 * unit + 1, 5)], 16) == [-2, 3]
    assert spectra._snapped_roots([-6, -1, 1], [(3 * unit + unit // 2 + 1, 0), (-2 * unit, 0)], 16) is None

def test_linear_factor_is_read_off(monkeypatch):
    # (λ − 7/3)²(λ + 4): Yun factors 3λ − 7 and λ + 4, both linear
    calls = counting(monkeypatch, "_isolate", "_start", "_durand_kerner", "poly_eval")
    roots, disks = rational_roots(expand([F(-7, 3), F(1)], [F(-7, 3), F(1)], [F(4), F(1)]))
    assert roots == [(F(-4), 1), (F(7, 3), 2)]
    assert disks == []
    assert set(calls.values()) == {0}


def test_linear_factor_with_a_huge_lead_is_exact():
    # 3^1400·λ − 1: the lead has 2,219 bits; read off, the root needs no disk
    roots, disks = rational_roots([F(-1), F(3**1400)])
    assert roots == [(F(1, 3**1400), 1)] and disks == []


def test_huge_lead_does_not_raise_the_precision(monkeypatch):
    # 3^1400·λ² − 2 is isolated as μ² − 2·3^1400, whose real disks certify
    # once narrower than 1: at CERTIFY_BITS, where a rule on the lead would
    # need 2^-4438, past MAX_BITS.  A quadratic starts at its roots, so one
    # level does.  Divided by the lead, the disks hold ±√2/3^700
    levels = []
    durand_kerner = spectra._durand_kerner
    monkeypatch.setattr(
        spectra, "_durand_kerner", lambda q, zs, p: levels.append(p) or durand_kerner(q, zs, p)
    )
    roots, disks = rational_roots([F(-2), F(0), F(3**1400)])
    assert roots == [] and [d.certified_real() for d in disks] == [True, True]
    for disk, sign in zip(disks, (-1, 1)):
        low, high = sign * disk.re - disk.bound, sign * disk.re + disk.bound
        assert 0 < low and low**2 <= F(2, 3**1400) <= high**2
    assert levels == [spectra.CERTIFY_BITS]
    # 3^1400·λ³ − 2 starts from _start and climbs the levels p = 16, 32, 64
    # and 128; its real disk holds the cube root of 2/3^1400
    levels.clear()
    roots, disks = rational_roots([F(-2), F(0), F(0), F(3**1400)])
    assert roots == [] and sum(d.certified_real() for d in disks) == 1
    real = next(d for d in disks if d.certified_real())
    low, high = real.re - real.bound, real.re + real.bound
    assert 0 < low and low**3 <= F(2, 3**1400) <= high**3
    assert all(d.certified_nonreal() for d in disks if d is not real)
    assert levels == [16, 32, 64, 128]


def test_mixed_factor_keeps_its_disks(monkeypatch):
    # (λ − 1)(λ² − 2) is one Yun factor: 1 is not the only root, so the
    # snap fails at every level; the certified disks give 1 exactly and keep
    # the disks of ±√2
    calls = counting(monkeypatch, "_start", "_isolate")
    roots, disks = rational_roots([F(2), F(-2), F(-1), F(1)])
    assert roots == [(F(1), 1)]
    centre = F(240615969168004511545033772477625056927, 2**127)
    bound = F(1834027439966797131562139241364745005, 2**249)
    assert disks == [
        spectra.NumericRoot(-centre, F(0), bound, 1),
        spectra.NumericRoot(centre, F(0), bound, 1),
    ]
    assert calls == {"_start": 1, "_isolate": 1}
    exact, isolated = spectra._isolate([2, -2, -1, 1])
    assert exact == [F(1)] and sorted(isolated, key=lambda d: d.re) == disks


@pytest.mark.parametrize("n", [16, 32])
def test_isolation_runs_on_monic_polynomials(monkeypatch, n):
    # spectrum passes the blocks' det(μI − B_C), monic over ℤ, and _isolate
    # makes any other factor monic, so the loop sees no leading coefficient
    # but 1; its real disks certify once their radius is below 1/2, at
    # CERTIFY_BITS
    leads, levels = [], []
    start, durand_kerner = spectra._start, spectra._durand_kerner
    monkeypatch.setattr(spectra, "_start", lambda q: leads.append(q[-1]) or start(q))
    monkeypatch.setattr(spectra, "_durand_kerner", lambda q, zs, p: levels.append(p) or durand_kerner(q, zs, p))
    result = la.spectrum(group_algebra(n), q9_element(n))
    assert result.multiplicity_total() == n and result.other_roots
    assert leads and set(leads) == {1}
    assert max(levels) <= spectra.CERTIFY_BITS


def test_square_free_factorization():
    # (λ² − 2)²(λ − 1) expands to λ⁵ − λ⁴ − 4λ³ + 4λ² + 4λ − 4
    coeffs = [F(-4), F(4), F(4), F(-4), F(-1), F(1)]
    factors = square_free_factors(coeffs)
    as_tuples = sorted((tuple(f), m) for f, m in factors)
    assert as_tuples == [
        ((F(-2), F(0), F(1)), 2),
        ((F(-1), F(1)), 1),
    ]


def evaluate_char_poly_at_element(alg, result, a):
    """Σ_k c_k·a^k with a⁰ = e — zero by Cayley–Hamilton through L_a."""
    acc = alg.zero()
    power = alg.require_identity()
    for k, c in enumerate(result.char_poly):
        if k > 0:
            power = alg.multiply(power, a)
        if c != 0:
            acc = acc + power.scale(c)
    return acc


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
    for p, _left, _right in la.search_band_projections(unital_algebra, GridSpec.from_resolution(2)):
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
    monkeypatch.setattr(linalg, "poly_eval", lambda q, s, t: evaluations.append(F(s, t)) or poly_eval(q, s, t))
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
