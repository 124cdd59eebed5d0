"""Element-level projection classes and their interrelations.

Four classes of positive elements are distinguished:

  OI    order idempotents: p² = p with 0 ≤ p ≤ e (needs an identity);
  BP    band projections: x ↦ a∗x∗a is a band projection operator;
  BP_l  left band projections: x ↦ a∗x is a band projection operator;
  BP_r  right band projections: x ↦ x∗a is one.

BP_l ∩ BP_r ⊆ BP always; each operator is a band projection exactly when
it is a 0/1 mask (mask_support), and side_masks reads L_a and R_a.  The grid
search gives all three verdicts from one walk: it reads L_a·R_a off the
column forms the integer kernel keeps (IntegerTensor.column_form), and
reads L_a and R_a of each hit off the kernel's linear columns.  With a
positive identity BP_l ⊆ OI and BP_r ⊆ OI (evaluate the mask at e); the
converse, and so BP_l = OI = BP_r, needs a nonnegative associative tensor,
which classify does not check: with b0∗b0 = b0, b1∗b1 = b1 and b0∗b2 =
b1∗b2 = b2∗b0 = b2∗b1 = ½·b2, the order idempotent b0 is in neither, as
L_{b0} halves b2.  BP itself can be strictly larger — it may contain whole
rays — so its membership test is exact but enumeration is only offered
for OI, where the atom picture of A_e makes the list provably complete.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import AlgebraSpec, IntegerForm, IntegerTensor, integer_form
from .center import ck_representation, in_identity_ideal, norm_e
from .errors import (
    CapExceededError,
    InputError,
    MathViolationError,
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
    """p² = p and 0 ≤ p ≤ e, all tested exactly: the order coordinate by
    coordinate, and p∗p = p on the integer kernel (IntegerTensor.product_is)
    with no product built.

    Raises NoIdentityError when the algebra has no identity — the notion
    is undefined there, and callers that want a soft answer use classify().
    """
    e = algebra.require_identity()
    if not (p.is_positive() and p.leq(e)):
        return False
    form = integer_form(algebra, p)
    return algebra.integer_tensor.product_is(form, form, form)


def _linear_mask(
    columns: list[list[tuple[int, int, int]]], v: Sequence[int], unit: int
) -> Optional[frozenset[int]]:
    """supp(M) when M is unit times a 0/1 diagonal mask, else None, for the
    integer operator M whose column q is Σ v_i·C·e_k over columns[q] =
    [(i, k, C)]: D·L_v from kernel.second, D·R_v from kernel.first.  The
    columns are tested in order and the first failing one returns None."""
    n = len(columns)
    support = []
    for q, entries in enumerate(columns):
        col = [0] * n
        for i, k, c in entries:
            col[k] += v[i] * c
        if col[q] == unit:
            support.append(q)
        elif col[q] != 0:
            return None
        col[q] = 0
        if any(col):
            return None
    return frozenset(support)


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

    This evaluates each column directly and builds nothing, which is what
    a single element wants: is_band_projection (and check_bp_spectrum
    through it), classify and side_masks.  The grid search reads L_a·R_a
    off column forms instead, which pay only when many points share them,
    and L_a and R_a of each hit with _linear_mask, as this routine does;
    the tests check both against this routine.
    """
    kernel = algebra.integer_tensor
    if right is None:
        return _linear_mask(kernel.second, left[0], left[1] * kernel.den)
    if left is None:
        return _linear_mask(kernel.first, right[0], right[1] * kernel.den)
    unit = left[1] * right[1] * kernel.den**2
    support = []
    for q in range(algebra.dim):
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


def side_masks(
    algebra: AlgebraSpec, a: LatticeElement
) -> tuple[Optional[frozenset[int]], Optional[frozenset[int]]]:
    """(supp L_a, supp R_a), each None when that operator is not a 0/1
    mask (mask_support), and both None when a ≱ 0: the one reader of BP_l
    and BP_r."""
    if not a.is_positive():
        return None, None
    form = integer_form(algebra, a)
    return mask_support(algebra, form, None), mask_support(algebra, None, form)


def is_left_bp(algebra: AlgebraSpec, a: LatticeElement) -> bool:
    """a ≥ 0 and x ↦ a∗x is a band projection operator (side_masks)."""
    return side_masks(algebra, a)[0] is not None


def is_right_bp(algebra: AlgebraSpec, a: LatticeElement) -> bool:
    """a ≥ 0 and x ↦ x∗a is a band projection operator (side_masks)."""
    return side_masks(algebra, a)[1] is not None


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


def classify(algebra: AlgebraSpec, a: LatticeElement) -> ProjectionClassification:
    """Every membership verdict on a; is_oi is None without identity.

    The verdicts of is_order_idempotent, is_band_projection and side_masks,
    from one positivity test and one integer form: OI from a ≤ e and
    IntegerTensor.product_is, BP from the two-sided mask_support, BP_l and
    BP_r from the one-sided ones.  No product is built.
    """
    nonnegative = a.is_positive()
    oi: Optional[bool] = None
    bp = left = right = None
    if nonnegative:
        form = integer_form(algebra, a)
        bp = mask_support(algebra, form, form)
        left = mask_support(algebra, form, None)
        right = mask_support(algebra, None, form)
    if algebra.has_identity():
        oi = (
            nonnegative
            and a.leq(algebra.require_identity())
            and algebra.integer_tensor.product_is(form, form, form)
        )
    return ProjectionClassification(
        element=a,
        nonnegative=nonnegative,
        is_oi=oi,
        is_bp=bp is not None,
        is_left_bp=left is not None,
        is_right_bp=right is not None,
    )


def enumerate_order_idempotents(algebra: AlgebraSpec) -> list[LatticeElement]:
    """All order idempotents, exactly — the 2^m subset sums of the atoms of A_e.

    Read off the certificate of ck_representation: its atoms p_i are > 0,
    pairwise disjoint and Σ p_i = e by construction, and it checks
    p_i∗p_j = δ_ij·p_i once.  By
    bilinearity alone a subset sum s = Σ_{i∈I} p_i has s∗s = Σ_{i,j∈I}
    p_i∗p_j = s, and e − s is the sum of the other atoms, so 0 ≤ s ≤ e.
    Complete too: 0 ≤ p ≤ e makes p = Σ c_i·p_i with 0 ≤ c_i ≤ 1, and
    p∗p = Σ c_i²·p_i = p forces every c_i into {0, 1}.  Neither step needs
    associativity or a nonnegative tensor.  Each atom is e on one coordinate
    of supp(e), so the sums are built with no product, and as every e_i > 0
    the product over (0, e_i) lists them in ascending coordinate order.
    """
    e = ck_representation(algebra).identity
    choices = [(Fraction(0), c) if c else (Fraction(0),) for c in e.coords]
    return [LatticeElement(coords) for coords in itertools.product(*choices)]


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
    cond_ii = algebra.product_is(p, p, p)
    cond_i = cond_ii and p.is_positive() and p.leq(e)  # is_order_idempotent
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
    """Check a∗b = b∗a on candidates ∩ BP_l ∩ BP_r; hunt a non-commuting BP pair.

    a∗b and b∗a share the scale L_a·L_b·D, so they are equal exactly when
    the kernel's integer products of the integer forms are.
    """
    kernel = algebra.integer_tensor

    def noncommuting(pool: list[LatticeElement]):
        vectors = [integer_form(algebra, a)[0] for a in pool]
        for (a, v), (b, w) in itertools.combinations(zip(pool, vectors), 2):
            if kernel.product(v, w) != kernel.product(w, v):
                yield a, b

    core = [a for a in candidates if None not in side_masks(algebra, a)]
    failures = list(noncommuting(core))
    bps = [a for a in candidates if is_band_projection(algebra, a)]
    return CommutationReport(
        core_members=core,
        core_commutes=not failures,
        core_failures=failures,
        noncommuting_bp_pair=next(noncommuting(bps), None),
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


class GridHit(NamedTuple):
    """A grid point in BP, with supp L_a and supp R_a, each None when that
    operator is not a 0/1 mask (as side_masks reads them)."""

    element: LatticeElement
    left: Optional[frozenset[int]]
    right: Optional[frozenset[int]]


def _square_is_mask(
    kernel: IntegerTensor, forms: list, v: Sequence[int], unit: int
) -> bool:
    """mask_support(v, v) is not None, read off the column forms: column q
    of D²·L_v·R_v is Σ C·v_i·v_j over kernel.column_form(q), taken from the
    kernel when a point first reaches column q and kept in the search's own
    list, as asking the kernel for every column costs about a tenth of the
    walk."""
    n = kernel.dim
    for q in range(n):
        terms = forms[q]
        if terms is None:
            terms = forms[q] = kernel.column_form(q)
        col = [0] * n
        for i, j, by_k in terms:
            f = v[i] * v[j]
            if f:
                for k, c in by_k:
                    col[k] += f * c
        if col[q] != unit and col[q] != 0:
            return False
        col[q] = 0
        if any(col):
            return False
    return True


def search_band_projections(algebra: AlgebraSpec, grid: GridSpec) -> list[GridHit]:
    """Exhaustively certify band projections on a rational grid.

    Returns a GridHit for exactly the grid points passing is_band_projection,
    in lexicographic grid order, each with the supports of L_a and R_a read
    on the integer point already at hand: BP, BP_l and BP_r from one walk.
    This is a search aid, not an enumeration of BP(A): the class may
    contain whole rays that no finite grid exhausts.

    Column q of L_a·R_a is read off IntegerTensor.column_form(q), the
    integers mask_support computes, in the same column order and with the
    same early exit.  supp L_a and supp R_a of a hit are read off the
    linear columns kernel.second[q] and kernel.first[q] by _linear_mask,
    as the one-sided mask_support reads them.  A form costs up to n direct
    evaluations of its column and pays only when many points share it, so
    a grid of one point (one nonnegative value) is decided by mask_support,
    and the zero point, a hit with empty masks, reads no column at all.
    """
    # Points with a negative coordinate are not positive, and dropping them
    # keeps the rest in lexicographic order; only the points walked count
    # towards the cap.
    values = [v for v in grid.values if v >= 0]
    check_grid_size(len(values), algebra.dim)
    scale = math.lcm(*(v.denominator for v in values))
    by_int = {v.numerator * (scale // v.denominator): v for v in values}
    kernel = algebra.integer_tensor
    side_unit = scale * kernel.den
    unit = side_unit**2
    forms: list = [None] * algebra.dim
    found = []
    for point in itertools.product(by_int, repeat=algebra.dim):
        if any(point):
            if len(by_int) == 1:
                hit = mask_support(algebra, (point, scale), (point, scale)) is not None
            else:
                hit = _square_is_mask(kernel, forms, point, unit)
            if not hit:
                continue
            left = _linear_mask(kernel.second, point, side_unit)
            right = _linear_mask(kernel.first, point, side_unit)
        else:
            left = right = frozenset()  # L_0 = R_0 = 0, the empty mask: no column to read
        found.append(GridHit(LatticeElement(tuple(by_int[x] for x in point)), left, right))
    return found
