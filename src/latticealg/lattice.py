"""Exact-rational vectors with coordinatewise lattice structure and lattice norms.

Every finite-dimensional Archimedean vector lattice is lattice-isomorphic to
some R^n with the coordinatewise order, so this module fixes that model once
and for all: elements are vectors of ``fractions.Fraction``, the lattice
operations are coordinatewise, and norms are weighted sup / one / p norms of
the coordinates.  All downstream predicates (idempotence, order bounds) are
equality-sensitive, hence everything here is exact; floats appear only in the
general-p norm, which returns a float with a proved error bound.
"""

from __future__ import annotations

import decimal
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import CapExceededError, DimensionMismatchError, InputError

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]


def int_digit_limit() -> int:
    """Python's limit on the digits of an int converted from or to text: 0
    when there is none (interpreters before 3.10.7 have none)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def digit_limit_error() -> CapExceededError:
    """The refusal for an exact result that has an integer past int_digit_limit()."""
    return CapExceededError(
        f"an exact result has an integer of more than {int_digit_limit()} digits, "
        "the most Python converts to text"
    )


# The decimal form with an exponent that Fraction(text) accepts: sign,
# integer part, fractional part, exponent.  Fraction builds 10**|exponent|
# and the scaled numerator and denominator before it normalizes, so a large
# exponent costs time and memory even when the value is small.
_EXPONENT_FORM = re.compile(
    r"[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?e([-+]?\d+(?:_\d+)*)",
    re.IGNORECASE,
)


def _exponent_too_long(text: str, limit: int) -> bool:
    """Whether Fraction(text) would build an integer of more than `limit`
    digits from the exponent of a decimal form: 10**|exp|, the numerator
    times 10**exp, or the denominator times 10**-exp."""
    m = _EXPONENT_FORM.fullmatch(text)
    if m is None:
        return False
    whole, fraction = m[1].replace("_", ""), (m[2] or "").replace("_", "")
    if len(whole) > limit or len(fraction) > limit:
        return False  # Fraction refuses these digits itself, before the exponent
    exp = int(m[3])
    numerator = len((whole + fraction).lstrip("0")) + exp
    return max(numerator, len(fraction) - exp + 1, abs(exp) + 1) > limit


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce int / "num/den" string / Fraction to an exact Fraction.

    The wire's canonical strings "n", "-n" and "n/d" (ASCII digits, d ≠ 0)
    are read with int(); any other string goes through Fraction(text),
    after a check that its exponent, if any, makes no integer longer than
    int_digit_limit() digits.  Floats are rejected: they would silently
    poison exact predicates.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num.startswith("-") else num
        try:
            if digits.isascii() and digits.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isascii() and den.isdigit():
                    n, d = int(num), int(den)
                    if d:
                        return Fraction(n, d)
            text = value.strip().replace("−", "-")  # tolerate unicode minus
            limit = int_digit_limit()
            if limit and _exponent_too_long(text, limit):
                raise InputError(
                    f"cannot parse scalar {value!r}: its exponent makes an integer "
                    f"of more than {limit} digits"
                )
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse scalar {value!r}: {exc}") from None
    # str, bool and int before Fraction: isinstance against the abstract
    # numbers.Rational behind Fraction is slow for anything but a Fraction.
    if isinstance(value, bool):
        raise InputError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise InputError(f"not an exact scalar: {value!r} (floats are rejected)")


def format_scalar(q: Fraction) -> str:
    """Render a Fraction in the wire format "num/den" (integers plain)."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:  # an integer past int_digit_limit()
        raise digit_limit_error() from None


@dataclass(frozen=True)
class LatticeElement:
    """A vector in Q^dim with the coordinatewise lattice order."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise InputError("dimension must be positive")
        for c in self.coords:
            if not isinstance(c, Fraction):
                raise InputError(f"coordinate {c!r} is not an exact Fraction")

    @property
    def dim(self) -> int:
        return len(self.coords)

    # -- vector space structure -------------------------------------------------

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        _check_dims(self, other)
        return LatticeElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        _check_dims(self, other)
        return LatticeElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(tuple(-a for a in self.coords))

    def scale(self, t: ScalarLike) -> "LatticeElement":
        t = as_scalar(t)
        return LatticeElement(tuple(t * a for a in self.coords))

    __rmul__ = scale

    # -- lattice structure --------------------------------------------------------

    def sup(self, other: "LatticeElement") -> "LatticeElement":
        """Coordinatewise maximum: the least upper bound of the pair."""
        _check_dims(self, other)
        return LatticeElement(tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def inf(self, other: "LatticeElement") -> "LatticeElement":
        """Coordinatewise minimum: the greatest lower bound of the pair."""
        _check_dims(self, other)
        return LatticeElement(tuple(min(a, b) for a, b in zip(self.coords, other.coords)))

    def abs(self) -> "LatticeElement":
        return LatticeElement(tuple(a if a >= 0 else -a for a in self.coords))

    __abs__ = abs

    def pos_part(self) -> "LatticeElement":
        """x ∨ 0."""
        return LatticeElement(tuple(a if a > 0 else Fraction(0) for a in self.coords))

    def neg_part(self) -> "LatticeElement":
        """(−x) ∨ 0, so that x = pos_part(x) − neg_part(x) exactly."""
        return LatticeElement(tuple(-a if a < 0 else Fraction(0) for a in self.coords))

    def leq(self, other: "LatticeElement") -> bool:
        """Coordinatewise order x ≤ y."""
        _check_dims(self, other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def is_positive(self) -> bool:
        """x ≥ 0, i.e. x lies in the positive cone."""
        return all(a >= 0 for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def is_disjoint(self, other: "LatticeElement") -> bool:
        """|x| ∧ |y| = 0: the two elements live on disjoint coordinates."""
        _check_dims(self, other)
        return all(a == 0 or b == 0 for a, b in zip(self.coords, other.coords))

    def support(self) -> frozenset[int]:
        """Indices of the nonzero coordinates."""
        return frozenset(i for i, a in enumerate(self.coords) if a != 0)

    def __repr__(self) -> str:
        return "(" + ", ".join(format_scalar(c) for c in self.coords) + ")"


def vec(values: Iterable[ScalarLike]) -> LatticeElement:
    """Build a LatticeElement from ints / "num/den" strings / Fractions."""
    return LatticeElement(tuple(as_scalar(v) for v in values))


def zero(dim: int) -> LatticeElement:
    return LatticeElement((Fraction(0),) * dim)


def unit(dim: int, i: int) -> LatticeElement:
    """The i-th atom (coordinate direction) of R^dim."""
    if not 0 <= i < dim:
        raise InputError(f"atom index {i} out of range for dim {dim}")
    return LatticeElement(tuple(Fraction(1 if j == i else 0) for j in range(dim)))


def _check_dims(x: LatticeElement, y: LatticeElement) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimension mismatch: {x.dim} vs {y.dim}")


# -- norms -------------------------------------------------------------------------


# The largest numerator or denominator of a p-norm exponent p = a/b.  The
# exact bracket raises each coordinate to the a-th power and takes b-th and
# a-th integer roots of numbers about 64·max(a, b) bits long, by Newton steps
# whose count grows with the root's degree: at 101/100 a norm of 64
# coordinates takes about 0.03 s, at 1001/1000 about 10 s.
MAX_P_TERM = 100


class ApproxReal(NamedTuple):
    """A real number known only up to an explicit absolute error bound."""

    value: float
    error: float


def to_float(x: Fraction) -> float:
    """The double nearest x, or ±inf outside the range of doubles."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def format_real(x: Fraction, spec: str = "") -> str:
    """format(to_float(x), spec), which is repr for the empty spec.  Outside
    the range of doubles, where that reads ±inf, x itself: rounded by decimal
    to the significant digits of spec, a "[+].<digits>g", or to 17 for the
    empty spec."""
    f = to_float(x)
    if not math.isinf(f):
        return format(f, spec)
    spec = spec or ".17g"
    context = decimal.Context(prec=int(spec[spec.index(".") + 1 : -1]), Emax=decimal.MAX_EMAX)
    value = context.divide(decimal.Decimal(x.numerator), x.denominator)
    return format(value.normalize(context), spec)


def float_above(num: int, den: int) -> float:
    """The least double ≥ num/den for integers num ≥ 0 and den > 0, or inf
    outside the range of doubles: num/den rounds to nearest, so at most one
    step up, decided on integers from the double's as_integer_ratio()."""
    try:
        f = num / den
    except OverflowError:
        return math.inf
    m, e = f.as_integer_ratio()
    return f if m * den >= num * e else math.nextafter(f, math.inf)


def _iroot(n: int, k: int) -> int:
    """⌊n^(1/k)⌋ for n ≥ 0 by Newton's method on integers, which decreases
    to the floor of the root from any start above it."""
    r = 1 << -(-n.bit_length() // k)  # ≥ the root
    while n:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt
    return 0


def _root_bracket(x: Fraction, k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo ≤ x^(1/k) < hi = lo + 2^-bits for x ≥ 0."""
    r = _iroot((x.numerator << (bits * k)) // x.denominator, k)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


@dataclass(frozen=True)
class NormSpec:
    """A lattice norm on the coordinates.

    kind "sup": ‖x‖ = max_i w_i·|x_i| (exact); kind "one": ‖x‖ = Σ_i w_i·|x_i|
    (exact); kind "p": ‖x‖ = (Σ_i w_i·|x_i|^p)^(1/p) for rational p ≥ 1 whose
    numerator and denominator are at most MAX_P_TERM (a float with a proved
    error bound).  Missing weights mean unit weights.
    """

    kind: str = "sup"
    p: Optional[Fraction] = None
    weights: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.kind not in ("sup", "one", "p"):
            raise InputError(f"unknown norm kind {self.kind!r}")
        if self.kind == "p":
            if self.p is None or self.p.numerator < self.p.denominator:
                raise InputError("p-norm requires rational p >= 1")
            if max(self.p.numerator, self.p.denominator) > MAX_P_TERM:
                raise InputError(
                    f"p-norm exponent {self.p} has a numerator or denominator above {MAX_P_TERM}"
                )
        elif self.p is not None:
            raise InputError(f"norm kind {self.kind!r} does not take a p value")
        if self.weights is not None:
            if not self.weights:
                raise InputError("weights must be nonempty when present")
            if any(w.numerator <= 0 for w in self.weights):
                raise InputError("all norm weights must be strictly positive")

    def weight_vector(self, dim: int) -> tuple[Fraction, ...]:
        if self.weights is None:
            return (Fraction(1),) * dim
        if len(self.weights) != dim:
            raise DimensionMismatchError(
                f"norm has {len(self.weights)} weights but element has dim {dim}"
            )
        return self.weights

    def is_exact(self) -> bool:
        return self.kind in ("sup", "one")


def norm(x: LatticeElement, spec: NormSpec) -> Union[Fraction, ApproxReal]:
    """The lattice norm of x under spec: exact for sup/one, bounded for p."""
    w = spec.weight_vector(x.dim)
    if spec.kind == "sup":
        return max(wi * abs(a) for wi, a in zip(w, x.coords))
    if spec.kind == "one":
        return sum((wi * abs(a) for wi, a in zip(w, x.coords)), Fraction(0))
    # General p = a/b: ‖x‖ = (Σ_i w_i·(|x_i|^a)^(1/b))^(b/a), bracketed between
    # rationals with integer k-th roots; the bits double until the bracket is
    # narrow relative to its lower end.
    a, b = spec.p.numerator, spec.p.denominator
    if x.is_zero():
        return ApproxReal(0.0, 0.0)
    bits = 64
    while True:
        terms = [_root_bracket(abs(c) ** a, b, bits) for c in x.coords]
        lo = _root_bracket(sum(wi * t[0] for wi, t in zip(w, terms)) ** b, a, bits)[0]
        hi = _root_bracket(sum(wi * t[1] for wi, t in zip(w, terms)) ** b, a, bits)[1]
        if lo > 0 and hi - lo <= lo / (1 << 60):
            break
        bits *= 2
    value = to_float((lo + hi) / 2)
    if value == math.inf:
        return ApproxReal(value, value)
    exact = Fraction(value)
    return ApproxReal(value, float_above(*max(hi - exact, exact - lo).as_integer_ratio()))
