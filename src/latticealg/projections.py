"""Element-level projection classes and their interrelations.

Four classes of positive elements are distinguished:

  OI    order idempotents: p² = p with 0 ≤ p ≤ e (needs an identity);
  BP    band projections: x ↦ a∗x∗a is a band projection operator;
  BP_l  left band projections: x ↦ a∗x is a band projection operator;
  BP_r  right band projections: x ↦ x∗a is one.

BP_l ∩ BP_r ⊆ BP always; each operator is a band projection exactly when
it is a 0/1 mask (mask_support), and side_masks reads L_a and R_a.  The grid
search gives all three verdicts from one depth-first walk over the
coordinates: each column of L_a·R_a (read off the column forms the integer
kernel keeps, IntegerTensor.column_form), of L_a and of R_a is decided once
per prefix that fixes it, and a failing column of L_a·R_a rules out every
point below that prefix.  With a
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
from typing import Callable, NamedTuple, Optional, Sequence

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
    through it), classify and side_masks.  The grid walk computes the same
    columns one prefix at a time instead, those of L_a·R_a off column
    forms, which pay only when many points share them, and those of L_a and
    R_a as this routine does; the tests check it against this routine.
    """
    kernel = algebra.integer_tensor
    if right is None:
        unit = left[1] * kernel.den
        columns = (kernel.left_column(left[0], q) for q in range(algebra.dim))
    elif left is None:
        unit = right[1] * kernel.den
        columns = (kernel.right_column(right[0], q) for q in range(algebra.dim))
    else:
        unit = left[1] * right[1] * kernel.den**2
        columns = (
            kernel.product(left[0], kernel.right_column(right[0], q)) for q in range(algebra.dim)
        )
    support = []
    for q, col in enumerate(columns):
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
        if not isinstance(bound, Fraction):
            # p kind: ‖p‖ ≤ Σ_i w_i^(1/p)·|p_i| ≤ Σ_i max(1, w_i)·|p_i|, exactly
            weights = algebra.norm.weight_vector(p.dim)
            bound = sum((max(w, 1) * abs(c) for w, c in zip(weights, p.coords)), Fraction(0))
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


def _decided_columns(kernel: IntegerTensor) -> list[tuple[list[int], list[int], list[int]]]:
    """For each coordinate d, the columns of L_a·R_a, of L_a and of R_a whose
    largest read coordinate is d, in ascending order: fixing a_0, …, a_d
    fixes them.  Column q of L_a reads the a_i of kernel.second[q], column q
    of R_a the a_j of kernel.first[q], and column q of L_a·R_a, a∗(b_q∗a),
    the a_j of first[q] and the a_i of second[r] for each r that first[q]
    reaches.  The depths come from the index lists, so no form is built; a
    column with no entries is 0 and is decided by no coordinate."""
    left = [max([i for i, _, _ in column], default=-1) for column in kernel.second]
    right = [max([j for j, _, _ in column], default=-1) for column in kernel.first]
    decided: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in left]
    for q, column in enumerate(kernel.first):
        square = max([right[q]] + [left[r] for _, r, _ in column])
        for side, depth in enumerate((square, left[q], right[q])):
            if depth >= 0:
                decided[depth][side].append(q)
    return decided


def search_band_projections(algebra: AlgebraSpec, grid: GridSpec) -> list[GridHit]:
    """Exhaustively certify band projections on a rational grid.

    Returns a GridHit for exactly the grid points passing is_band_projection,
    in lexicographic grid order, each with supp L_a and supp R_a as
    side_masks reads them: BP, BP_l and BP_r from one walk.  This is a search
    aid, not an enumeration of BP(A): the class may contain whole rays that
    no finite grid exhausts.

    The walk sets a_0, a_1, … in turn, depth first over the nonnegative grid
    values, and when it sets a_d it decides the columns that read no later
    coordinate (_decided_columns), once for the prefix and so for every point
    below it.  The columns are the integers mask_support computes: column q
    of L_a·R_a is read off IntegerTensor.column_form(q), and column q of
    L_a and of R_a is kernel.left_column and kernel.right_column.  A
    failing column of L_a·R_a drops the subtree; a failing column of L_a or
    R_a makes that side None for it, and passing ones add to the supports
    carried down.  A prefix of zeros decides nothing, as every column it
    fixes is 0, so a form is taken from the kernel only when a prefix with a
    nonzero coordinate first reaches its column, and kept in the walk's own
    list, as asking the kernel for every column costs about a tenth of the
    walk.
    """
    # Points with a negative coordinate are not positive, and dropping them
    # keeps the rest in lexicographic order; only the points walked count
    # towards the cap.
    values = [v for v in grid.values if v >= 0]
    n = algebra.dim
    check_grid_size(len(values), n)
    scale = math.lcm(*(v.denominator for v in values))
    ints = [(v.numerator * (scale // v.denominator), v) for v in values]
    kernel = algebra.integer_tensor
    side_unit = scale * kernel.den
    unit = side_unit**2
    decided = _decided_columns(kernel)
    forms: list = [None] * n
    point = [0] * n
    last = n - 1
    found: list[GridHit] = []

    def squares_pass(columns: list[int]) -> bool:
        """Each column q of D²·L_a·R_a is 0 or unit·e_q."""
        for q in columns:
            terms = forms[q]
            if terms is None:
                terms = forms[q] = kernel.column_form(q)
            col = [0] * n
            for i, j, by_k in terms:
                f = point[i] * point[j]
                if f:
                    for k, c in by_k:
                        col[k] += f * c
            if col[q] != unit and col[q] != 0:
                return False
            col[q] = 0
            if any(col):
                return False
        return True

    def with_columns(
        columns: list[int], column: Callable[[list[int], int], list[int]], support: frozenset[int]
    ) -> Optional[frozenset[int]]:
        """support plus the columns q of D·L_a or D·R_a that are side_unit·e_q,
        or None when one is neither that nor 0."""
        added = []
        for q in columns:
            col = column(point, q)
            if col[q] == side_unit:
                added.append(q)
            elif col[q]:
                return None
            col[q] = 0
            if any(col):
                return None
        return support.union(added) if added else support

    def walk(
        d: int,
        coords: tuple[Fraction, ...],
        nonzero: int,
        left: Optional[frozenset[int]],
        right: Optional[frozenset[int]],
    ) -> None:
        squares, lefts, rights = decided[d]
        for x, value in ints:
            point[d] = x
            here = x or nonzero
            l, r = left, right
            if here:
                if squares and not squares_pass(squares):
                    continue
                if l is not None and lefts:
                    l = with_columns(lefts, kernel.left_column, l)
                if r is not None and rights:
                    r = with_columns(rights, kernel.right_column, r)
            if d == last:
                found.append(GridHit(LatticeElement(coords + (value,)), l, r))
            else:
                walk(d + 1, coords + (value,), here, l, r)

    walk(0, (), 0, frozenset(), frozenset())
    return found
