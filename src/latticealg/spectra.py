"""Spectra of algebra elements via their left-multiplication matrices.

The spectrum of a is computed as the spectrum of the matrix L_a.  The
bridge is a small theorem not about matrices but about the representation:
in a unital finite-dimensional algebra the map a ↦ L_a is injective
(L_a(e) = a) and multiplicative, so a − λe is invertible in the algebra
exactly when L_{a−λe} = L_a − λI is an invertible matrix whose inverse is
again some L_b — which it is, because a right inverse y of a − λe found by
solving the linear system is automatically two-sided (see
operators.invert_element).  Hence σ(a) = σ(L_a), the root set of the
characteristic polynomial.

The characteristic polynomial is found block by block: in a direct sum L_a
is block diagonal up to a permutation of the basis, and in a triangular
algebra block triangular, so the determinant splits over the strongly
connected blocks of L_a's nonzero pattern.  With L_a = B/d for integer rows
B, linalg.char_poly_blocks gives det(μI − B_C) per block C, monic over ℤ
with roots μ = d·λ; their product is kept only for char_poly.  A 1×1
block's root is read off.  Equal block polynomials, such as the equal
blocks of L_a on the copies of a direct sum, are factored once, with their
multiplicities scaled by the count.  Every other block polynomial is split
by one pass of Yun's square-free factorization, and its factors are refined
against those of the earlier blocks by gcds, so that each distinct factor,
with its multiplicities summed, is isolated once.  A linear factor's root
is read off.  Every other factor is made monic over ℤ (_isolate), so that
its rational roots are integers, and isolated by one loop: Durand–Kerner on
Gaussian integers in units of 2^-p, doubling p from level to level.  A
quadratic starts at its roots, computed from its discriminant to
CERTIFY_BITS, and the roots of its monic form lie at least 1 apart, so one
level certifies them; a factor of higher degree starts on a circle at a
coarse precision.  After each level the integers nearest the points' real
parts are tried, and if they are distinct roots, they are all of them.
From CERTIFY_BITS on, the level is also certified: for a square-free monic
q of degree n the disk
|z − z_i| ≤ n·|q(z_i)| / |∏_{j≠i}(z_i − z_j)| (the Weierstrass radius,
bounded above by a rational) holds a root, and pairwise disjoint disks hold
exactly one each.  A disk centred on the real axis is its own mirror image,
so its root is real; no tolerance decides realness.  A real disk of radius
below 1/2 holds at most one integer, the one nearest its centre, and that
is a root when it lies in the disk and q vanishes on it exactly
(linalg.poly_eval).  The roots are λ = μ/d, so each root and each disk
is built once, over the factor's lead times d, from the integers of the
loop: the centres are exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .algebra import AlgebraSpec, integer_form
from .center import in_identity_ideal, norm_e
from .errors import CapExceededError, InputError, MathViolationError, NotBandProjectionError
from .lattice import ApproxReal, LatticeElement, as_scalar, float_above, to_float
from .operators import invert_element
from .projections import is_band_projection, is_order_idempotent

# Durand–Kerner finds the roots at FIRST_BITS of precision below their size
# bound, where its numbers are short, and doubles the precision until the
# disks certify, trying from CERTIFY_BITS of absolute precision on.  A
# quadratic needs no search: it starts at its roots, at CERTIFY_BITS.  Past
# MAX_BITS a polynomial is refused: its roots are too close together to
# isolate in bounded time.  SWEEPS bounds the iterations at one precision.
FIRST_BITS = 16
CERTIFY_BITS = 128
MAX_BITS = 1 << 12
SWEEPS = 200


@dataclass(frozen=True)
class NumericRoot:
    """A root in the disk |z − (re + i·im)| ≤ bound that holds no other root
    of its square-free factor.

    re and im are the exact rational centre and bound is an exact rational;
    value is the centre rounded to doubles and radius the bound rounded up.
    The predicates decide on the exact centre.  A disk centred on the real
    axis holds a real root, because the conjugate of its root lies in the
    mirror disk, which is the same disk.
    """

    re: Fraction
    im: Fraction
    bound: Fraction
    multiplicity: int

    @property
    def value(self) -> complex:
        return complex(to_float(self.re), to_float(self.im))

    @property
    def radius(self) -> float:
        return float_above(self.bound)

    def certified_real(self) -> bool:
        return self.im == 0

    def certified_nonreal(self) -> bool:
        return abs(self.im) > self.bound

    def certified_nonnegative(self) -> bool:
        return self.re - self.bound >= 0

    def certified_negative_real_part(self) -> bool:
        return self.re + self.bound < 0

    def modulus_bounds(self) -> tuple[Fraction, Fraction]:
        """Rationals lo ≤ |λ| ≤ hi for the root λ in the disk: |centre| ∓ the
        bound, with |centre| = √(num/den) bracketed by root/scale and
        (root + 1)/scale for root = ⌊√(num·scale²/den)⌋ at a scale of at least
        2^CERTIFY_BITS, so the bracket adds a negligible term even when the
        centre's denominator is small.  For re = a/b and im = c/f in lowest
        terms, |centre|² = ((a·f)² + (c·b)²)/(b·f)², brought to lowest terms
        num/den by one gcd."""
        a, b = self.re.numerator, self.re.denominator
        c, f = self.im.numerator, self.im.denominator
        num, den = (a * f) ** 2 + (c * b) ** 2, (b * f) ** 2
        g = math.gcd(num, den)
        num, den = num // g, den // g
        scale = max(den, 1 << CERTIFY_BITS)
        root = math.isqrt(num * scale * scale // den)
        low = max(Fraction(root, scale) - self.bound, Fraction(0))
        return low, Fraction(root + 1, scale) + self.bound


@dataclass(frozen=True)
class SpectrumResult:
    """Exact characteristic polynomial of L_a plus its factored root set.

    char_poly lists ascending coefficients of det(L_a − λI), so for the
    3-dimensional reflection fixture's p it reads [0, 1, 0, -1] = −λ³ + λ.
    rational_roots carries exact (root, multiplicity) pairs; other_roots
    covers the rest with certified disjoint disks.
    """

    element: LatticeElement
    char_poly: tuple[Fraction, ...]
    rational_roots: tuple[tuple[Fraction, int], ...]
    other_roots: tuple[NumericRoot, ...]

    @property
    def dim(self) -> int:
        return len(self.char_poly) - 1

    @property
    def all_roots_rational(self) -> bool:
        return not self.other_roots

    def sigma(self) -> frozenset[Fraction]:
        """The spectrum as an exact set; defined only when all roots are rational."""
        if self.other_roots:
            raise InputError("spectrum has irrational roots; no exact set is available")
        return frozenset(root for root, _ in self.rational_roots)

    def sigma_subset_of(self, allowed: Sequence) -> bool:
        """Exactly certified σ(a) ⊆ allowed (false when irrational roots exist)."""
        allowed_set = {as_scalar(v) for v in allowed}
        if self.other_roots:
            return False
        return all(root in allowed_set for root, _ in self.rational_roots)

    def sigma_in_nonneg_reals(self) -> Optional[bool]:
        """σ(a) ⊆ [0, ∞)?  True/False when certified either way, None if unclear."""
        if any(root < 0 for root, _ in self.rational_roots):
            return False
        for root in self.other_roots:
            if root.certified_nonreal() or root.certified_negative_real_part():
                return False
        if all(
            root.certified_real() and root.certified_nonnegative()
            for root in self.other_roots
        ):
            return True
        return None

    def spectral_radius(self):
        """max |λ| over σ(a): a Fraction when exact, else an ApproxReal whose
        error bounds the distance from its value to the true radius."""
        rational_max = max(
            (abs(root) for root, _ in self.rational_roots), default=None
        )
        if not self.other_roots:
            if rational_max is None:
                raise MathViolationError("characteristic polynomial with no roots")
            return rational_max
        floor = rational_max if rational_max is not None else Fraction(0)
        lows, highs = zip(*(root.modulus_bounds() for root in self.other_roots))
        lower, upper = max(floor, *lows), max(floor, *highs)
        if rational_max is not None and rational_max >= upper:
            return rational_max
        moduli = [math.hypot(root.value.real, root.value.imag) for root in self.other_roots]
        value = max(*moduli, to_float(floor))
        if value == math.inf:
            return ApproxReal(value=value, error=value)
        exact = Fraction(value)
        return ApproxReal(value=value, error=float_above(max(upper - exact, exact - lower)))

    def multiplicity_total(self) -> int:
        return sum(m for _, m in self.rational_roots) + sum(
            r.multiplicity for r in self.other_roots
        )


def rational_roots(
    *polys: Sequence[Fraction], scale: int = 1
) -> tuple[list[tuple[Fraction, int]], list[NumericRoot]]:
    """All roots of the product of polys, divided by the integer scale > 0,
    with multiplicities: the rational ones exactly, the others as certified
    disks.

    Equal arguments are taken once, in first-seen order, with their count:
    a linear one's root is read off, and every other argument is split by
    square_free_factors, its multiplicities scaled by the count.  Its
    factors are refined against those of the earlier arguments (_refine),
    so the factors left are pairwise coprime and carry summed
    multiplicities.  A linear factor's root is read off; every other factor
    is isolated once (_isolate), which builds each root and disk over the
    factor's lead times scale, with the factor's multiplicity.  A root read
    off is built over its lead times scale too, so every value is one
    Fraction.  Exact roots are merged by value, so a root shared by two
    arguments is reported once.
    """
    polys = [linalg.poly_trim(poly) for poly in polys]
    if not all(polys) or all(len(poly) == 1 for poly in polys):  # a constant product
        raise InputError("constant polynomial has no meaningful root set")
    found: dict[Fraction, int] = {}
    factors: list[tuple[list[int], int]] = []
    for poly, count in Counter(map(tuple, polys)).items():
        if len(poly) == 2:
            root = Fraction(-poly[0], poly[1] * scale)
            found[root] = found.get(root, 0) + count
        elif len(poly) > 2:
            factors = _refine(factors, [(f, m * count) for f, m in square_free_factors(poly)])
    disks: list[NumericRoot] = []
    for factor, multiplicity in factors:
        if len(factor) == 2:
            exact, isolated = [Fraction(-factor[0], factor[1] * scale)], []
        else:
            exact, isolated = _isolate(factor, scale, multiplicity)
        for root in exact:
            found[root] = found.get(root, 0) + multiplicity
        disks.extend(isolated)
    return sorted(found.items()), sorted(disks, key=lambda r: (r.re, r.im))


def _refine(factors: list[tuple[list[int], int]], new: list[tuple[list[int], int]]) -> list[tuple[list[int], int]]:
    """Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15,
    1993) of two lists of pairwise coprime square-free factors with
    multiplicities: each g of factors that shares h = gcd(f, g) with an f
    of new splits off h, of the summed multiplicity, and f continues as f/h.
    The factors returned are pairwise coprime, because f and g are
    square-free and the factors within each list were coprime."""
    new = list(new)
    out = []
    for g, n in factors:
        for i, (f, m) in enumerate(new):
            h = linalg.poly_gcd(f, g) if len(f) > 1 and len(g) > 1 else [1]
            if len(h) > 1:
                new[i] = linalg.poly_div_exact(f, h), m
                g = linalg.poly_div_exact(g, h)
                out.append((h, n + m))
        if len(g) > 1:
            out.append((g, n))
    return out + [(f, m) for f, m in new if len(f) > 1]


def square_free_factors(coeffs: Sequence[Fraction]) -> list[tuple[list[int], int]]:
    """Yun's square-free factorization of the primitive integer form of
    coeffs: [(factor, multiplicity)], each factor primitive with a positive
    leading coefficient."""
    poly = linalg.poly_trim(coeffs)
    if len(poly) <= 1:
        return []
    f = linalg.integer_poly(poly)
    g = linalg.poly_gcd(f, linalg.poly_derivative(f))
    w = linalg.poly_div_exact(f, g)
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(w) > 1:
        y = linalg.poly_gcd(w, g)
        factor = linalg.poly_div_exact(w, y)
        if len(factor) > 1:
            out.append((factor, i))
        w = y
        g = linalg.poly_div_exact(g, y)
        i += 1
    return out


# Gaussian integers (x, y) stand for (x + iy)/2^p below.
Gaussian = tuple[int, int]


def _scaled_value(q: Sequence[int], z: Gaussian, p: int) -> Gaussian:
    """2^(p·d)·q(z) for the integer polynomial q of degree d, by Horner."""
    x, y = z
    d = len(q) - 1
    re, im = q[-1], 0
    for k in range(d - 1, -1, -1):
        re, im = re * x - im * y + (q[k] << (p * (d - k))), re * y + im * x
    return re, im


def _scaled_product(zs: Sequence[Gaussian], i: int) -> Gaussian:
    """2^(p·(d−1))·∏_{j≠i}(z_i − z_j)."""
    x, y = zs[i]
    re, im = 1, 0
    for j, (u, v) in enumerate(zs):
        if j != i:
            dx, dy = x - u, y - v
            re, im = re * dx - im * dy, re * dy + im * dx
    return re, im


def _start(q: Sequence[int]) -> tuple[int, list[Gaussian]]:
    """The first precision and d points for the monic q of degree d, on a
    circle whose radius is the Fujiwara bound 2·max_k |a_k|^(1/(d−k)) (with
    a_0/2 for a_0), at angles (k + 1/4)·2π/d: not symmetric about the real
    axis, so the iteration can leave it.  The precision is FIRST_BITS finer
    than the bound, so that small roots are not all rounded to 0."""
    d = len(q) - 1
    exponent = 1 + max(
        (
            (math.log2(abs(c)) - (k == 0)) / (d - k)
            for k, c in enumerate(q[:-1])
            if c
        ),
        default=0.0,
    )
    p = FIRST_BITS + max(0, -math.floor(exponent))
    scale = exponent + p
    shift = max(math.floor(scale) - 60, 0)

    def scaled(t: float) -> int:
        return round(t * 2.0 ** (scale - shift)) << shift

    angles = [(k + 0.25) * 2 * math.pi / d for k in range(d)]
    return p, [(scaled(math.cos(a)), scaled(math.sin(a))) for a in angles]


def _quadratic_start(q: Sequence[int]) -> tuple[int, list[Gaussian]]:
    """CERTIFY_BITS and the roots of the monic μ² + bμ + c, rounded to the
    grid 2^-p, from one isqrt of |Δ|·2^(2p) for the discriminant
    Δ = b² − 4c: −b/2 ∓ √Δ/2 when Δ > 0, else −b/2 ∓ i·√−Δ/2."""
    c, b = q[0], q[1]
    p = CERTIFY_BITS
    disc = b * b - 4 * c
    half = (math.isqrt(abs(disc) << 2 * p) + 1) >> 1  # √|Δ|/2 in units of 2^-p
    centre = -b << (p - 1)
    if disc > 0:
        return p, [(centre - half, 0), (centre + half, 0)]
    return p, [(centre, -half), (centre, half)]


def _durand_kerner(q: Sequence[int], zs: list[Gaussian], p: int) -> None:
    """Iterate z_i ← z_i − q(z_i)/∏_{j≠i}(z_i − z_j) for the monic q, rounded
    to the grid 2^-p, until no step moves a point by more than one unit."""
    for _ in range(SWEEPS):
        moved = False
        for i, (x, y) in enumerate(zs):
            qr, qi = _scaled_value(q, (x, y), p)
            pr, pi = _scaled_product(zs, i)
            den = 2 * (pr * pr + pi * pi)
            if den == 0:  # two points coincide on the grid: separate them
                zs[i] = (x, y + 1)
                moved = True
                continue
            step_x = (2 * (qr * pr + qi * pi) + den // 2) // den
            step_y = (2 * (qi * pr - qr * pi) + den // 2) // den
            zs[i] = (x - step_x, y - step_y)
            moved = moved or abs(step_x) > 1 or abs(step_y) > 1
        if not moved:
            return


def _radii(q: Sequence[int], zs: Sequence[Gaussian], p: int) -> Optional[list[int]]:
    """Upper bounds, in units of 2^-2p, on the Weierstrass radii
    d·|q(z_i)| / |∏_{j≠i}(z_i − z_j)| of the monic q; None if two points
    coincide."""
    d = len(q) - 1
    out = []
    for i in range(d):
        qr, qi = _scaled_value(q, zs[i], p)
        pr, pi = _scaled_product(zs, i)
        den = pr * pr + pi * pi
        if den == 0:
            return None
        # radius·2^(2p) = d·|Q|·2^p / |P| for Q, P as scaled above.
        square = -(-(d * d * (qr * qr + qi * qi) << (2 * p)) // den)
        root = math.isqrt(square)
        out.append(root if root * root == square else root + 1)
    return out


def _certified(zs: Sequence[Gaussian], radii: Sequence[int], p: int) -> bool:
    """Disks pairwise disjoint, each centred on the real axis or missing it,
    and the real ones of radius below 1/2, so that each holds at most one
    integer."""
    unit = 1 << p
    for i, ((x, y), r) in enumerate(zip(zs, radii)):
        if y == 0:
            if 2 * r >= unit * unit:
                return False
        elif abs(y) * unit <= r:
            return False
        for (u, v), s in zip(zs[i + 1 :], radii[i + 1 :]):
            if ((x - u) ** 2 + (y - v) ** 2) * unit * unit <= (r + s) ** 2:
                return False
    return True


def _snapped_roots(q: Sequence[int], zs: Sequence[Gaussian], p: int) -> Optional[list[int]]:
    """All roots of the square-free monic q of degree d, exactly, when the
    points zs show them integers; else None.

    The integers nearest the points' real parts must be d distinct integers
    on each of which q vanishes exactly (linalg.poly_eval).  Distinctness is
    checked before any evaluation, and the evaluations run one at a time,
    so a failed snap stops at its first non-root.  A polynomial of degree d
    has no more than d roots, so these are all of them, however far the
    points were from converged.
    """
    half = 1 << (p - 1)
    snapped = {(x + half) >> p for x, _ in zs}
    if len(snapped) < len(zs) or any(linalg.poly_eval(q, s, 1) for s in snapped):
        return None
    return sorted(snapped)


def _isolate(
    q: Sequence[int], scale: int = 1, multiplicity: int = 1
) -> tuple[list[Fraction], list[NumericRoot]]:
    """The roots of the square-free primitive integer q of degree n ≥ 2 with
    leading coefficient c > 0, divided by the integer scale > 0: the
    rational ones exactly, the others in certified disjoint disks of the
    given multiplicity.

    The loop runs on the monic integer q̃(μ) = c^(n−1)·q(μ/c), whose roots
    are c times q's, so its rational roots are integers.  Durand–Kerner runs
    one level per precision p, from _start, or for a quadratic from its
    roots at CERTIFY_BITS (_quadratic_start), which the first level only
    polishes.  After each level q̃ is done when _snapped_roots shows all its
    roots integers.  From CERTIFY_BITS on, the centres whose disks meet the
    real axis are snapped onto it and the disks are certified (_certified).
    A real disk is narrower than 1, so the integer s nearest its centre is
    the only one it can hold: s is a root when it lies in the disk and
    linalg.poly_eval(q̃, s, 1) vanishes, and the disk is kept otherwise.
    If the disks fail, p doubles and the iteration continues from the
    current points; past MAX_BITS q is refused.  The roots of q/scale are
    those of q̃ over c·scale, so each root is one Fraction(s, c·scale) and
    each disk one NumericRoot whose centre and bound are the loop's integers
    over 2^p·c·scale and 2^(2p)·c·scale.
    """
    c, n = q[-1], len(q) - 1
    den = c * scale
    q = [a * c ** (n - 1 - k) for k, a in enumerate(q[:-1])] + [1]
    p, zs = _quadratic_start(q) if n == 2 else _start(q)
    while True:
        _durand_kerner(q, zs, p)
        exact = _snapped_roots(q, zs, p)
        if exact is not None:
            return [Fraction(s, den) for s in exact], []
        radii = _radii(q, zs, p) if p >= CERTIFY_BITS else None
        if radii is not None:
            unit = 1 << p
            snapped = [(x, 0) if abs(y) * unit <= r else (x, y) for (x, y), r in zip(zs, radii)]
            if snapped != zs:
                radii = _radii(q, snapped, p)
            if radii is not None and _certified(snapped, radii, p):
                found, disks = [], []
                for (x, y), r in zip(snapped, radii):
                    if y == 0:
                        # s lies in the disk when |s − x/unit| ≤ r/unit²
                        s = (x + unit // 2) >> p
                        if abs(s * unit - x) * unit <= r and linalg.poly_eval(q, s, 1) == 0:
                            found.append(Fraction(s, den))
                            continue
                    over = unit * den
                    disks.append(
                        NumericRoot(Fraction(x, over), Fraction(y, over), Fraction(r, unit * over), multiplicity)
                    )
                return found, disks
        if 2 * p > MAX_BITS:
            raise CapExceededError(
                f"isolating the roots of a degree-{n} factor "
                f"needs more than {MAX_BITS} bits"
            )
        zs = [(x << p, y << p) for x, y in zs]
        p *= 2


def spectrum(algebra: AlgebraSpec, a: LatticeElement) -> SpectrumResult:
    """σ(a) = σ(L_a): exact characteristic polynomial, factored root set."""
    algebra.require_identity()
    # L_a = B/(L·D) for a = v/L and the integer rows B = D·L_v
    v, scale = integer_form(algebra, a)
    kernel = algebra.integer_tensor
    d = scale * kernel.den
    blocks = linalg.char_poly_blocks(kernel.left_matrix(v))  # det(μI − B_C) per block
    monic = linalg.monic_product(blocks, d)  # det(λI − L_a)
    n = algebra.dim
    char = tuple(monic) if n % 2 == 0 else tuple(-c for c in monic)  # det(L_a − λI)
    exact, disks = rational_roots(*blocks, scale=d)  # the roots λ = μ/d
    result = SpectrumResult(
        element=a, char_poly=char, rational_roots=tuple(exact), other_roots=tuple(disks)
    )
    if result.multiplicity_total() != n:
        raise MathViolationError("root multiplicities do not sum to the dimension")
    return result


@dataclass
class BPSpectrumReport:
    """Spectral constraints satisfied by a band projection element p.

    σ(p) ⊆ {−1, 0, 1} always; when p∗p = 0 the spectrum collapses to {0},
    and otherwise the spectral radius is exactly 1 with ‖p∗p‖_e = 1.
    """

    element: LatticeElement
    sigma: tuple[Fraction, ...]
    subset_ok: bool
    square_is_zero: bool
    radius_is_one: Optional[bool] = None
    square_norm_e: Optional[Fraction] = None

    @property
    def ok(self) -> bool:
        if not self.subset_ok:
            return False
        if self.square_is_zero:
            return self.sigma == (Fraction(0),)
        return bool(self.radius_is_one) and self.square_norm_e == 1


def check_bp_spectrum(algebra: AlgebraSpec, p: LatticeElement) -> BPSpectrumReport:
    """Verify the spectrum constraints for p ∈ BP(A) in a unital algebra."""
    algebra.require_identity()
    if not is_band_projection(algebra, p):
        raise NotBandProjectionError(f"{p} is not a band projection")
    result = spectrum(algebra, p)
    subset_ok = result.sigma_subset_of([-1, 0, 1])
    sigma = tuple(sorted(result.sigma())) if result.all_roots_rational else ()
    psq = algebra.multiply(p, p)
    if psq.is_zero():
        return BPSpectrumReport(
            element=p, sigma=sigma, subset_ok=subset_ok, square_is_zero=True
        )
    radius = result.spectral_radius()
    return BPSpectrumReport(
        element=p,
        sigma=sigma,
        subset_ok=subset_ok,
        square_is_zero=False,
        radius_is_one=(radius == 1),
        square_norm_e=norm_e(algebra, psq),
    )


@dataclass
class CenterSpectrumReport:
    """Both sides of: a ∈ A_e ⟺ σ(a) ⊆ ℝ₊, for positive a with positive inverse.

    applicable is False (with the failed hypothesis named) when a is not
    positive, not invertible, or has a non-positive inverse; the
    biconditional is only a theorem under those hypotheses.
    """

    element: LatticeElement
    applicable: bool
    failed_hypothesis: Optional[str] = None
    in_ideal: Optional[bool] = None
    sigma_nonneg: Optional[bool] = None
    spectrum: Optional[SpectrumResult] = None

    @property
    def consistent(self) -> Optional[bool]:
        if not self.applicable or self.sigma_nonneg is None:
            return None
        return self.in_ideal == self.sigma_nonneg

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.consistent is True


def positive_spectrum_center_check(algebra: AlgebraSpec, a: LatticeElement) -> CenterSpectrumReport:
    """Test the membership/spectrum biconditional after verifying its hypotheses."""
    algebra.require_identity()
    if not a.is_positive():
        return CenterSpectrumReport(element=a, applicable=False, failed_hypothesis="a is not positive")
    inv = invert_element(algebra, a)
    if inv is None:
        return CenterSpectrumReport(element=a, applicable=False, failed_hypothesis="a is not invertible")
    if not inv.is_positive():
        return CenterSpectrumReport(
            element=a, applicable=False, failed_hypothesis="inverse of a is not positive"
        )
    result = spectrum(algebra, a)
    return CenterSpectrumReport(
        element=a,
        applicable=True,
        in_ideal=in_identity_ideal(algebra, a),
        sigma_nonneg=result.sigma_in_nonneg_reals(),
        spectrum=result,
    )


@dataclass
class ShiftedIdempotentResult:
    """a − λe, certified to be an order idempotent when the hypotheses hold."""

    element: LatticeElement
    lam: Fraction
    applicable: bool
    failed_hypothesis: Optional[str] = None
    shifted: Optional[LatticeElement] = None

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.shifted is not None


def shifted_idempotent_check(
    algebra: AlgebraSpec, a: LatticeElement, lam
) -> ShiftedIdempotentResult:
    """If a ≥ 0 is invertible with positive inverse and σ(a) ⊆ {λ, λ+1}, λ ≥ 0,
    then a − λe is an order idempotent; verified exactly and returned."""
    e = algebra.require_identity()
    lam = as_scalar(lam)

    def fail(reason: str) -> ShiftedIdempotentResult:
        return ShiftedIdempotentResult(
            element=a, lam=lam, applicable=False, failed_hypothesis=reason
        )

    if lam < 0:
        return fail("λ is negative")
    if not a.is_positive():
        return fail("a is not positive")
    inv = invert_element(algebra, a)
    if inv is None:
        return fail("a is not invertible")
    if not inv.is_positive():
        return fail("inverse of a is not positive")
    result = spectrum(algebra, a)
    if not result.sigma_subset_of([lam, lam + 1]):
        return fail("σ(a) is not contained in {λ, λ+1}")
    shifted = a - e.scale(lam)
    if not is_order_idempotent(algebra, shifted):
        raise MathViolationError(
            f"a − λe = {shifted} failed the order-idempotent test despite valid hypotheses"
        )
    return ShiftedIdempotentResult(
        element=a, lam=lam, applicable=True, shifted=shifted
    )
