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

Characteristic polynomials are exact; rational roots are extracted exactly
by divisor search; whatever remains is factored square-free (exact gcd)
and its roots found numerically with a posteriori Weierstrass error radii.
The fixtures keep every classification-relevant root rational, so the
numeric tolerances never decide a theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import mpmath

from . import linalg
from .algebra import AlgebraSpec
from .center import in_identity_ideal, norm_e
from .errors import InputError, MathViolationError, NotBandProjectionError
from .lattice import ApproxReal, LatticeElement, as_scalar
from .operators import invert_element, left_mult
from .projections import is_band_projection, is_order_idempotent

REAL_TOL = 1e-12


@dataclass(frozen=True)
class NumericRoot:
    """A root known only numerically: a disk |z − value| ≤ radius."""

    value: complex
    radius: float
    multiplicity: int

    def certified_real(self, tol: float = REAL_TOL) -> bool:
        return abs(self.value.imag) <= self.radius and 2 * self.radius < tol

    def certified_nonreal(self) -> bool:
        return abs(self.value.imag) > self.radius

    def certified_nonnegative(self, tol: float = REAL_TOL) -> bool:
        return self.value.real - self.radius > -tol

    def certified_negative_real_part(self) -> bool:
        return self.value.real + self.radius < 0


@dataclass(frozen=True)
class SpectrumResult:
    """Exact characteristic polynomial of L_a plus its factored root set.

    char_poly lists ascending coefficients of det(L_a − λI), so for the
    3-dimensional reflection fixture's p it reads [0, 1, 0, -1] = −λ³ + λ.
    rational_roots carries exact (root, multiplicity) pairs; other_roots
    covers the rest with certified error disks.
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
        """max |λ| over σ(a): a Fraction when exact, else an ApproxReal."""
        rational_max = max(
            (abs(root) for root, _ in self.rational_roots), default=None
        )
        if not self.other_roots:
            if rational_max is None:
                raise MathViolationError("characteristic polynomial with no roots")
            return rational_max
        best = max(self.other_roots, key=lambda r: abs(r.value))
        numeric_best = abs(best.value)
        if rational_max is not None and float(rational_max) >= numeric_best + best.radius:
            return rational_max
        value = max(numeric_best, float(rational_max) if rational_max is not None else 0.0)
        return ApproxReal(value=value, error=best.radius)

    def multiplicity_total(self) -> int:
        return sum(m for _, m in self.rational_roots) + sum(
            r.multiplicity for r in self.other_roots
        )


def _integer_clear(coeffs: Sequence[Fraction]) -> list[int]:
    """Scale a rational polynomial to integer coefficients (content kept)."""
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return [int(c * denom) for c in coeffs]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], list[Fraction]]:
    """Exact rational roots with multiplicities; also returns the root-free cofactor.

    Divisor search on the integer-cleared polynomial (candidates p/q with
    p | constant term, q | leading coefficient), with repeated synthetic
    division to count multiplicities.  One pass suffices: a rational root of
    a cofactor is a root of the polynomial the candidates came from, and each
    candidate is divided out as often as it divides when it is tested.
    """
    poly = linalg.poly_trim(coeffs)
    if len(poly) <= 1:
        raise InputError("constant polynomial has no meaningful root set")
    found: dict[Fraction, int] = {}
    # Roots at zero first.
    while len(poly) > 1 and poly[0] == 0:
        found[Fraction(0)] = found.get(Fraction(0), 0) + 1
        poly = poly[1:]
    if len(poly) > 1:
        ints = _integer_clear(poly)
        for p, q in itertools.product(_divisors(ints[0]), _divisors(ints[-1])):
            if gcd(p, q) != 1:
                continue
            for candidate in (Fraction(p, q), Fraction(-p, q)):
                while len(poly) > 1 and linalg.poly_eval(poly, candidate) == 0:
                    found[candidate] = found.get(candidate, 0) + 1
                    poly = linalg.poly_divmod_linear(poly, candidate)
            if len(poly) <= 1:
                break
    ordered = sorted(found.items(), key=lambda kv: kv[0])
    return ordered, poly


def square_free_factors(coeffs: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's square-free factorization over Q: [(factor, multiplicity)]."""
    poly = linalg.poly_trim(coeffs)
    if len(poly) <= 1:
        return []
    monic = [c / poly[-1] for c in poly]
    g = linalg.poly_gcd(monic, linalg.poly_derivative(monic))
    if len(g) <= 1:
        return [(monic, 1)]
    out: list[tuple[list[Fraction], int]] = []
    w = linalg.poly_div_exact(monic, g)
    i = 1
    while len(w) > 1:
        y = linalg.poly_gcd(w, g)
        f = linalg.poly_div_exact(w, y)
        if len(f) > 1:
            out.append((f, i))
        w = y
        g = linalg.poly_div_exact(g, y)
        i += 1
    return out


def _numeric_roots(factor: list[Fraction], multiplicity: int) -> list[NumericRoot]:
    """Roots of a square-free rational polynomial with Weierstrass radii.

    For monic square-free q of degree d and approximations z_i, each disk
    |z − z_i| ≤ d·|q(z_i)| / ∏_{j≠i} |z_i − z_j| contains a true root.
    """
    degree = len(factor) - 1
    with mpmath.workdps(60):
        coeffs_desc = [
            mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(factor)
        ]
        zs = mpmath.polyroots(coeffs_desc, maxsteps=200, extraprec=120)

        def q_at(z):
            acc = mpmath.mpc(0)
            for c in coeffs_desc:
                acc = acc * z + c
            return acc

        out = []
        for i, z in enumerate(zs):
            prod = mpmath.mpf(1)
            for j, w in enumerate(zs):
                if j != i:
                    prod *= abs(z - w)
            radius = degree * abs(q_at(z)) / prod if prod != 0 else mpmath.inf
            out.append(
                NumericRoot(
                    value=complex(z),
                    radius=float(radius),
                    multiplicity=multiplicity,
                )
            )
    return sorted(out, key=lambda r: (r.value.real, r.value.imag))


def spectrum(algebra: AlgebraSpec, a: LatticeElement) -> SpectrumResult:
    """σ(a) = σ(L_a): exact characteristic polynomial, factored root set."""
    algebra.require_identity()
    if a.dim != algebra.dim:
        raise InputError("element dimension does not match algebra")
    la = left_mult(algebra, a)
    monic = linalg.char_poly_monic(la.rows_list())  # det(λI − L_a), ascending
    n = algebra.dim
    sign = Fraction(-1) ** n
    char = tuple(sign * c for c in monic)  # det(L_a − λI)
    rr, cofactor = rational_roots(monic)
    numeric: list[NumericRoot] = []
    for factor, mult in square_free_factors(cofactor):
        numeric.extend(_numeric_roots(factor, mult))
    numeric.sort(key=lambda r: (r.value.real, r.value.imag))
    result = SpectrumResult(
        element=a,
        char_poly=char,
        rational_roots=tuple(rr),
        other_roots=tuple(numeric),
    )
    if result.multiplicity_total() != n:
        raise MathViolationError("root multiplicities do not sum to the dimension")
    return result


def evaluate_char_poly_at_element(
    algebra: AlgebraSpec, result: SpectrumResult, a: LatticeElement
) -> LatticeElement:
    """Σ_k c_k·a^k with a⁰ = e — zero by Cayley–Hamilton through L_a."""
    e = algebra.require_identity()
    acc = algebra.zero()
    power = e
    for k, c in enumerate(result.char_poly):
        if k > 0:
            power = algebra.multiply(power, a)
        if c != 0:
            acc = acc + power.scale(c)
    return acc


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
