"""Operators on a coordinatewise-ordered R^n and their lattice structure.

Operators are exact rational matrices acting on column vectors:
(T·x)_k = Σ_i entries[k][i] · x_i.  On these spaces every matrix is a
regular operator and the lattice operations are entrywise, which gives a
cheap route to suprema.  The expensive route — evaluating the supremum
formula (S ∨ T)(x) = sup{S·u + T·v : u, v ≥ 0, u + v = x} by enumerating
the vertices of the splitting box — is kept deliberately separate in
rk_oracle so the two can be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .algebra import AlgebraSpec, integer_form
from .errors import CapExceededError, DimensionMismatchError, InputError
from .lattice import LatticeElement, as_scalar

RK_DIM_CAP = 12
# The zero entry diagonal, compose and _accumulate share: as_mask compares
# rows with rows of it, and tuple comparison passes over the same object
# with no Fraction test.
_ZERO = Fraction(0)


@dataclass(frozen=True)
class OperatorMatrix:
    """An exact rational matrix as an operator on R^n (rows = output coords)."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0 or set(map(len, self.entries)) != {n}:
            raise InputError("operator matrix must be square and nonempty")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "OperatorMatrix":
        return OperatorMatrix(tuple(tuple(as_scalar(v) for v in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "OperatorMatrix":
        return OperatorMatrix(
            tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(n: int) -> "OperatorMatrix":
        return OperatorMatrix(tuple((Fraction(0),) * n for _ in range(n)))

    @staticmethod
    def diagonal(values: Sequence) -> "OperatorMatrix":
        vals = [as_scalar(v) for v in values]
        zeros = (_ZERO,) * len(vals)
        return OperatorMatrix(
            tuple(zeros[:i] + (v,) + zeros[i + 1 :] for i, v in enumerate(vals))
        )

    def as_mask(self) -> Optional[frozenset[int]]:
        """supp(M) when M is a 0/1 diagonal mask, and None otherwise.

        Entrywise, 0 ≤ M ≤ I forces the off-diagonal entries to 0 and the
        diagonal into [0, 1]; M² = M then forces the diagonal into {0, 1}.
        So M is a mask exactly when it is a band projection operator, and
        the test runs in O(n²) without a matrix product.
        """
        zeros = (_ZERO,) * self.dim
        support = []
        for i, row in enumerate(self.entries):
            if row == zeros:
                continue
            if row != zeros[:i] + (1,) + zeros[i + 1 :]:
                return None
            support.append(i)
        return frozenset(support)

    # -- action and arithmetic -------------------------------------------

    def apply(self, x: LatticeElement) -> LatticeElement:
        if x.dim != self.dim:
            raise DimensionMismatchError("operator/vector dimension mismatch")
        return LatticeElement(
            tuple(sum((r * c for r, c in zip(row, x.coords)), Fraction(0)) for row in self.entries)
        )

    def __call__(self, x: LatticeElement) -> LatticeElement:
        return self.apply(x)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self ∘ other as matrices (apply other first)."""
        if other.dim != self.dim:
            raise DimensionMismatchError("operator dimension mismatch")
        # Each entry starts at its first term, not at a Fraction(0) plus it:
        # an entry that is still the shared `zero` object has no term yet.
        zero = _ZERO
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [zero] * len(row)
            for c, terms in zip(row, sparse):
                if c:
                    for j, v in terms:
                        old = acc[j]
                        acc[j] = c * v if old is zero else old + c * v
            out.append(tuple(acc))
        return OperatorMatrix(tuple(out))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self.compose(other)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.dim != self.dim:
            raise DimensionMismatchError("operator dimension mismatch")
        return OperatorMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.dim != self.dim:
            raise DimensionMismatchError("operator dimension mismatch")
        return OperatorMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def scale(self, c) -> "OperatorMatrix":
        q = as_scalar(c)
        return OperatorMatrix(tuple(tuple(q * v for v in row) for row in self.entries))

    # -- order structure ---------------------------------------------------

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.entries for v in row)

    def leq(self, other: "OperatorMatrix") -> bool:
        """Entrywise order, which is the operator order on these lattices."""
        if other.dim != self.dim:
            raise DimensionMismatchError("operator dimension mismatch")
        return all(
            a <= b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )


def op_sup(s: OperatorMatrix, t: OperatorMatrix) -> OperatorMatrix:
    """S ∨ T entrywise — the operator supremum on a coordinatewise lattice."""
    if s.dim != t.dim:
        raise DimensionMismatchError("operator dimension mismatch")
    return OperatorMatrix(
        tuple(tuple(max(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(s.entries, t.entries))
    )


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(v, d) with values = v/d, d the lcm of the denominators."""
    pairs = [q.as_integer_ratio() for q in values]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def rk_oracle(s: OperatorMatrix, t: OperatorMatrix, x: LatticeElement) -> LatticeElement:
    """(S ∨ T)(x) for x ≥ 0 straight from the supremum formula.

    Evaluates sup{S·u + T·(x − u) : 0 ≤ u ≤ x} by enumerating the 2^n
    vertices u_i ∈ {0, x_i} of the splitting box.  Per coordinate the
    objective is linear in u, so the supremum over the box is attained at
    a vertex and the enumeration is exact.

    At the vertex with u_i = x_i for i ∈ U, coordinate k of the objective
    is (T·x)_k + Σ_{i∈U} (S − T)_ki·x_i.  With S, T and x each scaled to
    integers over its own lcm denominator, the list of all 2^n such sums
    for one k is built by doubling: start from [(T·x)_k] and, for each i,
    append every sum so far plus the step (S − T)_ki·x_i, zero steps
    included.  The coordinate's value is the list's maximum.  Every vertex
    is still evaluated and no entrywise maximum of S and T is taken, so
    the result stays independent of op_sup.
    """
    if s.dim != t.dim or s.dim != x.dim:
        raise DimensionMismatchError("operator/vector dimension mismatch")
    xs, x_den = _over_lcm(x.coords)
    if min(xs) < 0:
        raise InputError("rk_oracle requires x >= 0")
    n = x.dim
    if n > RK_DIM_CAP:
        raise CapExceededError(f"rk_oracle enumerates 2^{n} vertices; cap is dim <= {RK_DIM_CAP}")
    s_flat, s_den = _over_lcm([v for row in s.entries for v in row])
    t_flat, t_den = _over_lcm([v for row in t.entries for v in row])
    # Everything below is over the common denominator s_den·t_den·x_den.
    best = []
    for k in range(0, n * n, n):
        s_row, t_row = s_flat[k : k + n], t_flat[k : k + n]
        sums = [s_den * sum(b * x_i for b, x_i in zip(t_row, xs))]
        for a, b, x_i in zip(s_row, t_row, xs):
            step = (t_den * a - s_den * b) * x_i
            sums += [w + step for w in sums]
        best.append(max(sums))
    den = s_den * t_den * x_den
    return LatticeElement(tuple(Fraction(b, den) for b in best))


def is_band_projection_op(m: OperatorMatrix) -> bool:
    """True iff 0 ≤ M ≤ I and M² = M (an order projection onto a band),
    i.e. iff M is a 0/1 diagonal mask (see OperatorMatrix.as_mask)."""
    return m.as_mask() is not None


# -- multiplication operators -------------------------------------------


def _accumulate(
    algebra: AlgebraSpec, a: LatticeElement, left: bool
) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of L_a (left) or R_a: entry (k, q) of L_a sums a_i·c[i, q, k],
    and entry (k, p) of R_a sums a_j·c[p, j, k].  Each entry starts at its
    first term, not at a Fraction(0) plus it: an entry that is still the
    shared `zero` object has no term yet."""
    if a.dim != algebra.dim:
        raise DimensionMismatchError("element dimension does not match algebra")
    n, coords, zero = algebra.dim, a.coords, _ZERO
    rows = [[zero] * n for _ in range(n)]
    for (p, q, k), c in algebra.tensor.items():
        x, col = (coords[p], q) if left else (coords[q], p)
        if x:
            row = rows[k]
            old = row[col]
            row[col] = x * c if old is zero else old + x * c
    return tuple(map(tuple, rows))


def left_mult(algebra: AlgebraSpec, a: LatticeElement) -> OperatorMatrix:
    """L_a: x ↦ a ∗ x as a matrix."""
    return OperatorMatrix(_accumulate(algebra, a, left=True))


def right_mult(algebra: AlgebraSpec, b: LatticeElement) -> OperatorMatrix:
    """R_b: x ↦ x ∗ b as a matrix."""
    return OperatorMatrix(_accumulate(algebra, b, left=False))


def mult_op(algebra: AlgebraSpec, a: LatticeElement, b: LatticeElement) -> OperatorMatrix:
    """M_{a,b}: x ↦ a ∗ x ∗ b, i.e. L_a ∘ R_b (the order of composition
    is immaterial since L_a and R_b commute by associativity)."""
    return left_mult(algebra, a).compose(right_mult(algebra, b))


def invert_element(algebra: AlgebraSpec, a: LatticeElement) -> Optional[LatticeElement]:
    """The two-sided inverse of a, or None if a is not invertible.

    Solves a ∗ y = e exactly on the integer kernel: with a = v/L and
    e = u/M (the identity's kept form), L_a = B/(L·D) for the integer rows
    B = D·L_v, so L_a·y = e exactly when y = (L·D/M)·z for a solution z of
    B·z = u, which linalg.solve finds by fraction-free elimination as z/m.
    So y is (L·D·z)/(M·m) in integer form, and its Fractions are built once,
    on return.  In a unital finite-dimensional algebra a right inverse is
    automatically two-sided (L_a·L_y = I forces L_y·L_a = I for square
    matrices, and x ↦ L_x is injective when an identity exists); both sides
    are still verified, a∗y = e and y∗a = e on the integer kernel
    (IntegerTensor.product_is) with no product built.
    """
    e_form = algebra.solve_identity().form
    kernel = algebra.integer_tensor
    a_form = v, scale = integer_form(algebra, a)
    solution = linalg.solve(kernel.left_matrix(v), e_form[0])
    if solution is None:
        return None
    z, z_scale = solution
    inv_form = [c * scale * kernel.den for c in z], e_form[1] * z_scale
    if kernel.product_is(a_form, inv_form, e_form) and kernel.product_is(inv_form, a_form, e_form):
        return LatticeElement(tuple(Fraction(c, inv_form[1]) for c in inv_form[0]))
    return None
