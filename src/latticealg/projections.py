"""Element-level projection classes and their interrelations.

Four classes of positive elements are distinguished:

  OI    order idempotents: p² = p with 0 ≤ p ≤ e (needs an identity);
  BP    band projections: x ↦ a∗x∗a is a band projection operator;
  BP_l  left band projections: x ↦ a∗x is a band projection operator;
  BP_r  right band projections: x ↦ x∗a is one.

BP_l ∩ BP_r ⊆ BP always, and in a unital algebra BP_l = OI = BP_r
(evaluate the left-multiplication projection at e).  BP itself can be
strictly larger — it may contain whole rays — so its membership test is
exact but enumeration is only offered for OI, where the atom picture of
A_e makes the list provably complete.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import AlgebraSpec, IntegerForm, integer_form
from .center import ck_representation, in_identity_ideal, norm_e
from .errors import (
    CapExceededError,
    InputError,
    MathViolationError,
    NoIdentityError,
    NotBandProjectionError,
    NotOrderIdempotentError,
)
from .lattice import LatticeElement, as_scalar, norm
# mult_op stays in this namespace: code reaches it as projections.mult_op.
from .operators import invert_element, mult_op  # noqa: F401

GRID_POINT_CAP = 250_000


def check_grid_size(values: int, dim: int) -> None:
    """Refuse a grid of values^dim points past GRID_POINT_CAP, so that a
    caller can refuse before it builds the values."""
    if values > GRID_POINT_CAP:  # values^dim may be too long to print
        raise CapExceededError(f"grid has {values}^{dim} points; the limit is {GRID_POINT_CAP}")
    if values**dim > GRID_POINT_CAP:
        raise CapExceededError(f"grid has {values**dim} points; the limit is {GRID_POINT_CAP}")


def is_order_idempotent(algebra: AlgebraSpec, p: LatticeElement) -> bool:
    """p² = p and 0 ≤ p ≤ e, all tested exactly.

    Raises NoIdentityError when the algebra has no identity — the notion
    is undefined there, and callers that want a soft answer use classify().
    """
    e = algebra.require_identity()
    return (
        p.is_positive()
        and (e - p).is_positive()
        and algebra.multiply(p, p) == p
    )


def mask_support(
    algebra: AlgebraSpec, left: Optional[IntegerForm], right: Optional[IntegerForm]
) -> Optional[frozenset[int]]:
    """supp(M) when M is a 0/1 diagonal mask, else None.

    M is x ↦ l∗x∗r, or x ↦ l∗x when right is None, or x ↦ x∗r when left
    is None; l and r enter in integer form.  Band projection operators on
    the coordinatewise R^n are exactly the 0/1 masks, so this decides
    whether M is one.  Column q of M is l∗(b_q∗r) — R_r applied before
    L_l, as in mult_op, so a non-associative tensor gets the verdict of the
    matrix L_l·R_r — and must be 0 or e_q; q is in the support when it is
    e_q.  The columns are tested in order and the first failing one
    returns None.
    """
    kernel = algebra.integer_tensor
    unit = 1
    if left is not None:
        unit *= left[1] * kernel.den
    if right is not None:
        unit *= right[1] * kernel.den
    support = []
    for q in range(algebra.dim):
        if left is None:
            col = kernel.right_column(right[0], q)
        elif right is None:
            col = kernel.left_column(left[0], q)
        else:
            col = kernel.product(left[0], kernel.right_column(right[0], q))
        if col[q] == unit:
            support.append(q)
        elif col[q] != 0:
            return None
        col[q] = 0
        if any(col):
            return None
    return frozenset(support)


def is_band_projection(algebra: AlgebraSpec, a: LatticeElement) -> bool:
    """a ≥ 0 and x ↦ a∗x∗a is a band projection operator (0 ≤ M ≤ I, M² = M).

    Decided exactly as "M = L_a·R_a is a 0/1 diagonal mask" (mask_support).
    Nonpositive input returns False: the class is defined inside the
    positive cone, and a total predicate keeps grid searches simple.
    """
    if not a.is_positive():
        return False
    form = integer_form(algebra, a)
    return mask_support(algebra, form, form) is not None


def is_left_bp(algebra: AlgebraSpec, a: LatticeElement) -> bool:
    """a ≥ 0 and x ↦ a∗x is a band projection operator.

    Decided exactly as "L_a is a 0/1 diagonal mask" (mask_support).
    """
    if not a.is_positive():
        return False
    return mask_support(algebra, integer_form(algebra, a), None) is not None


def is_right_bp(algebra: AlgebraSpec, a: LatticeElement) -> bool:
    """a ≥ 0 and x ↦ x∗a is a band projection operator.

    Decided exactly as "R_a is a 0/1 diagonal mask" (mask_support).
    """
    if not a.is_positive():
        return False
    return mask_support(algebra, None, integer_form(algebra, a)) is not None


@dataclass(frozen=True)
class ProjectionClassification:
    """Verdicts of every projection-class predicate for one element.

    is_oi is None when the algebra has no identity (the notion does not
    apply); all other fields are total.
    """

    element: LatticeElement
    nonnegative: bool
    is_oi: Optional[bool]
    is_bp: bool
    is_left_bp: bool
    is_right_bp: bool

    def check_internal_consistency(self) -> bool:
        if self.is_left_bp and self.is_right_bp and not self.is_bp:
            return False
        if self.is_oi is not None and self.is_oi != (self.is_left_bp and self.is_right_bp):
            return False
        return True


def classify(algebra: AlgebraSpec, a: LatticeElement) -> ProjectionClassification:
    """Run every membership predicate on a; is_oi is None without identity."""
    try:
        oi: Optional[bool] = is_order_idempotent(algebra, a)
    except NoIdentityError:
        oi = None
    return ProjectionClassification(
        element=a,
        nonnegative=a.is_positive(),
        is_oi=oi,
        is_bp=is_band_projection(algebra, a),
        is_left_bp=is_left_bp(algebra, a),
        is_right_bp=is_right_bp(algebra, a),
    )


def enumerate_order_idempotents(algebra: AlgebraSpec) -> list[LatticeElement]:
    """All order idempotents, exactly — the 2^m subset sums of the atoms of A_e.

    Completeness: any p with 0 ≤ p ≤ e is supported in supp(e), hence lies
    in A_e, where the coordinate map is multiplicative; p² = p then forces
    each K-coordinate into {0, 1}, i.e. p is a sum of atoms.  Every such
    sum is verified against is_order_idempotent before being returned.
    Output is sorted by coordinates for determinism.
    """
    rep = ck_representation(algebra)
    out = []
    for bits in itertools.product((Fraction(0), Fraction(1)), repeat=rep.n_points):
        candidate = rep.from_coords(list(bits))
        if not is_order_idempotent(algebra, candidate):
            raise MathViolationError(
                f"atom subset sum {candidate} is not an order idempotent"
            )
        out.append(candidate)
    return sorted(out, key=lambda x: x.coords)


class OIBoolean(NamedTuple):
    join: LatticeElement
    meet: LatticeElement
    complement_p: LatticeElement


def oi_boolean(algebra: AlgebraSpec, p: LatticeElement, q: LatticeElement) -> OIBoolean:
    """Boolean operations on order idempotents: p∨q = p+q−p∗q, p∧q = p∗q, eーp.

    The results are verified to be order idempotents again and to coincide
    with the lattice sup/inf of p and q; a failure raises, since it would
    contradict the Boolean-algebra structure of OI(A).
    """
    e = algebra.require_identity()
    for name, x in (("p", p), ("q", q)):
        if not is_order_idempotent(algebra, x):
            raise NotOrderIdempotentError(f"{name} = {x} is not an order idempotent")
    pq = algebra.multiply(p, q)
    join = p + q - pq
    meet = pq
    complement_p = e - p
    for x in (join, meet, complement_p):
        if not is_order_idempotent(algebra, x):
            raise MathViolationError(f"Boolean combination {x} left OI(A)")
    if join != p.sup(q) or meet != p.inf(q):
        raise MathViolationError("algebraic join/meet disagree with lattice sup/inf on OI")
    return OIBoolean(join=join, meet=meet, complement_p=complement_p)


@dataclass(frozen=True)
class EquivalenceCheck:
    """The four equivalent characterizations of order idempotency for p ∈ BP.

    (i) p is an order idempotent; (ii) p² = p; (iii) p ∈ A_e;
    (iv) (λe + p) has a positive inverse for some λ > ‖p‖.
    """

    element: LatticeElement
    is_oi: bool
    squares_to_self: bool
    in_identity_ideal: bool
    positive_inverse: bool
    lambda_used: Optional[Fraction] = None
    lambdas_sampled: tuple[Fraction, ...] = ()

    @property
    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return (self.is_oi, self.squares_to_self, self.in_identity_ideal, self.positive_inverse)

    @property
    def all_equal(self) -> bool:
        return len(set(self.verdicts)) == 1


def check_equivalences(algebra: AlgebraSpec, p: LatticeElement) -> EquivalenceCheck:
    """Evaluate all four characterizations on a band projection p.

    Condition (iv) hides an existential over λ; it is decided finitely:
    when p ∈ A_e the positive inverse is tested at the single witness
    λ = ‖p‖_e + 2 (the Neumann-series construction makes that λ work
    whenever any λ works), and when p ∉ A_e a finite sample of λ > ‖p‖ is
    tried — sound because (iv) provably fails along with (iii).
    """
    e = algebra.require_identity()
    if not is_band_projection(algebra, p):
        raise NotBandProjectionError(f"{p} is not a band projection")
    cond_i = is_order_idempotent(algebra, p)
    cond_ii = algebra.multiply(p, p) == p
    cond_iii = in_identity_ideal(algebra, p)

    def positive_inverse_at(lam: Fraction) -> bool:
        inv = invert_element(algebra, e.scale(lam) + p)
        return inv is not None and inv.is_positive()

    lambda_used: Optional[Fraction] = None
    sampled: tuple[Fraction, ...] = ()
    if cond_iii:
        lambda_used = norm_e(algebra, p) + 2
        cond_iv = positive_inverse_at(lambda_used)
    else:
        bound = norm(p, algebra.norm)
        if not isinstance(bound, Fraction):  # inexact norm: use a safe coordinate bound
            bound = sum((abs(c) for c in p.coords), Fraction(0))
        sampled = tuple(bound + k for k in (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(5)))
        cond_iv = any(positive_inverse_at(lam) for lam in sampled)
    return EquivalenceCheck(
        element=p,
        is_oi=cond_i,
        squares_to_self=cond_ii,
        in_identity_ideal=cond_iii,
        positive_inverse=cond_iv,
        lambda_used=lambda_used,
        lambdas_sampled=sampled,
    )


@dataclass
class CommutationReport:
    """Commutation behaviour of a candidate pool of elements.

    Everything in BP_l ∩ BP_r must commute pairwise; general band
    projections need not, and a witness pair is reported when one exists
    in the pool.
    """

    core_members: list[LatticeElement]  # candidates in BP_l ∩ BP_r
    core_commutes: bool
    core_failures: list[tuple[LatticeElement, LatticeElement]] = field(default_factory=list)
    noncommuting_bp_pair: Optional[tuple[LatticeElement, LatticeElement]] = None


def commutation_check(
    algebra: AlgebraSpec, candidates: Sequence[LatticeElement]
) -> CommutationReport:
    """Check a∗b = b∗a on candidates ∩ BP_l ∩ BP_r; hunt a non-commuting BP pair."""
    core = [a for a in candidates if is_left_bp(algebra, a) and is_right_bp(algebra, a)]
    failures = []
    for a, b in itertools.combinations(core, 2):
        if algebra.multiply(a, b) != algebra.multiply(b, a):
            failures.append((a, b))
    witness = None
    bps = [a for a in candidates if is_band_projection(algebra, a)]
    for a, b in itertools.combinations(bps, 2):
        if algebra.multiply(a, b) != algebra.multiply(b, a):
            witness = (a, b)
            break
    return CommutationReport(
        core_members=core,
        core_commutes=not failures,
        core_failures=failures,
        noncommuting_bp_pair=witness,
    )


@dataclass(frozen=True)
class GridSpec:
    """A rational sampling grid: every element of values^dim is tested."""

    values: tuple[Fraction, ...]

    @staticmethod
    def from_resolution(n: int) -> "GridSpec":
        if n < 1:
            raise InputError("grid resolution must be >= 1")
        return GridSpec(values=tuple(Fraction(k, n) for k in range(n + 1)))

    @staticmethod
    def from_values(values: Sequence) -> "GridSpec":
        vals = tuple(sorted({as_scalar(v) for v in values}))
        if not vals:
            raise InputError("grid needs at least one value")
        return GridSpec(values=vals)

    def points(self, dim: int):
        return itertools.product(self.values, repeat=dim)

    def size(self, dim: int) -> int:
        return len(self.values) ** dim


def search_band_projections(algebra: AlgebraSpec, grid: GridSpec) -> list[LatticeElement]:
    """Exhaustively certify band projections on a rational grid.

    Returns exactly the grid points passing is_band_projection, in
    lexicographic grid order.  This is a search aid, not an enumeration of
    BP(A): the class may contain whole rays that no finite grid exhausts.
    """
    check_grid_size(len(grid.values), algebra.dim)
    # Points with a negative coordinate are not positive, and dropping them
    # keeps the rest in lexicographic order.
    values = [v for v in grid.values if v >= 0]
    scale = math.lcm(*(v.denominator for v in values))
    by_int = {v.numerator * (scale // v.denominator): v for v in values}
    found = []
    for point in itertools.product(by_int, repeat=algebra.dim):
        form = (point, scale)
        if mask_support(algebra, form, form) is not None:
            found.append(LatticeElement(tuple(by_int[x] for x in point)))
    return found
