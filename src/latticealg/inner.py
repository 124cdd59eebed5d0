"""Inner band projections built from orthogonal projection families.

Given a finite family {p_α}_{α∈Λ} of elements of BP_l ∩ BP_r with
p_α ∗ p_β = δ_αβ · p_α, every subset Γ ⊆ Λ×Λ induces the operator

    P_Γ : x ↦ Σ_{(α,β)∈Γ} p_α ∗ x ∗ p_β,

which is a band projection (in finite dimensions the defining supremum of
the summands is attained and equals the sum, because the ranges of the
distinct two-sided multiplications are pairwise disjoint bands).

validate_family and find_families record supp L_{p_α} and supp R_{p_α}
of every member as projections.side_masks reads them.  Each summand
L_{p_α}R_{p_β} is a product of those 0/1 diagonal masks, hence the mask
on their intersection; the family derives these summand supports once
(ProjectionFamily.summand_supports) and checks that the nonzero ones are
pairwise disjoint.  So P_Γ is the mask of the union of Γ's supports, and
a mask is all its support says: inner_bp and enumerate_inner return
supp P_Γ as a frozenset.  The image of Γ ↦ P_Γ is exactly the 2^k unions
of the k nonzero supports, and "M is inner" is a subset test on supp(M)
(inner_witness; is_inner reads the support of a matrix first).
After validation only inner_bp's independent audit computes a product,
and no walk over the 2^(|Λ|²) subsets runs; only enumerate_inner, whose
output has up to 2^(|Λ|²) entries, takes a cap.  The map Γ ↦ P_Γ is a
Boolean-algebra homomorphism onto its image; a band projection need not
be of this form at all — the 3-dimensional identityless fixture carries
a witness.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional, Sequence

from .algebra import AlgebraSpec
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    FamilyError,
    MathViolationError,
    NotBandProjectionError,
)
from .lattice import LatticeElement
from .operators import OperatorMatrix, mult_op
from .projections import side_masks

ENUM_CAP_DEFAULT = 16  # maximum |Λ|² accepted by enumerate_inner


@dataclass(frozen=True)
class ProjectionFamily:
    """A δ-orthogonal family {p_α} ⊆ BP_l ∩ BP_r with its masks left[α] =
    supp L_{p_α} and right[α] = supp R_{p_α}, as side_masks read them in
    validate_family or find_families, which build it by the same δ rule."""

    members: tuple[LatticeElement, ...]
    left: tuple[frozenset[int], ...]
    right: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> LatticeElement:
        return self.members[index]

    @functools.cached_property
    def summand_supports(self) -> tuple[frozenset[int], ...]:
        """supp(L_{p_α}R_{p_β}) = left[α] ∩ right[β] for every (α, β) ∈ Λ×Λ,
        in sorted pair order: a product of two masks is the mask on the
        intersection.  Derived once per family from the recorded masks.
        The nonzero supports must be pairwise disjoint (on an associative
        tensor L_{p_α}L_{p_γ} = L_{p_α∗p_γ} = 0 for α ≠ γ makes them so); an
        overlap raises MathViolationError, on every access."""
        supports: list[frozenset[int]] = []
        covered: set[int] = set()
        for a, b in itertools.product(range(len(self)), repeat=2):
            support = self.left[a] & self.right[b]
            if covered & support:
                raise MathViolationError(
                    f"summand ({a},{b}) overlaps another summand on coordinates "
                    f"{sorted(covered & support)}"
                )
            covered |= support
            supports.append(support)
        return tuple(supports)


@dataclass(frozen=True)
class GammaSet:
    """A subset Γ of Λ×Λ, indexing the summands of an inner projection, as
    its distinct pairs in sorted order (so equal sets compare equal).  Only
    `of` takes pairs from outside, checks them against range(n_members)²
    and sorts them; everything else here builds the tuple in order."""

    pairs: tuple[tuple[int, int], ...]
    n_members: int

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]], n_members: int) -> "GammaSet":
        """Γ from any pairs, each checked to index a family of n_members."""
        checked = {(a, b) for a, b in pairs}
        for alpha, beta in checked:
            if not (0 <= alpha < n_members and 0 <= beta < n_members):
                raise FamilyError(
                    f"pair ({alpha}, {beta}) out of range for a family of size {n_members}"
                )
        return GammaSet(pairs=tuple(sorted(checked)), n_members=n_members)

    @staticmethod
    def full(n_members: int) -> "GammaSet":
        return GammaSet(tuple(itertools.product(range(n_members), repeat=2)), n_members)

    @staticmethod
    def empty(n_members: int) -> "GammaSet":
        return GammaSet((), n_members)

    def union(self, other: "GammaSet") -> "GammaSet":
        self._require_same_family(other)
        merged = dict.fromkeys(heapq.merge(self.pairs, other.pairs))
        return GammaSet(tuple(merged), self.n_members)

    def intersection(self, other: "GammaSet") -> "GammaSet":
        self._require_same_family(other)
        kept = set(other.pairs)
        return GammaSet(tuple(p for p in self.pairs if p in kept), self.n_members)

    def complement(self) -> "GammaSet":
        dropped = set(self.pairs)
        full = GammaSet.full(self.n_members).pairs
        return GammaSet(tuple(p for p in full if p not in dropped), self.n_members)

    def _require_same_family(self, other: "GammaSet") -> None:
        if self.n_members != other.n_members:
            raise FamilyError("Γ sets index families of different sizes")


def validate_family(algebra: AlgebraSpec, members: Sequence[LatticeElement]) -> ProjectionFamily:
    """Check both family invariants exactly; raise FamilyError with a witness.

    Every member must lie in BP_l(A) ∩ BP_r(A): side_masks must find L_p
    and R_p to be 0/1 masks (left first), whose supports the family keeps.
    By bilinearity alone p_α ∗ p_β is p_β restricted to left[α], so
    δ-orthogonality (p_α ∗ p_β = δ_αβ·p_α) holds when supp p_β ∩ left[α] is
    supp p_β for α = β and empty otherwise.  No product is computed.
    """
    members = tuple(members)
    left, right = [], []
    for idx, p in enumerate(members):
        if p.dim != algebra.dim:
            raise FamilyError(f"member {idx} has wrong dimension", witness=idx)
        left_support, right_support = side_masks(algebra, p)
        if left_support is None:
            raise FamilyError(f"member {idx} is not a left band projection", witness=idx)
        if right_support is None:
            raise FamilyError(f"member {idx} is not a right band projection", witness=idx)
        left.append(left_support)
        right.append(right_support)
    supports = [p.support() for p in members]
    for i, j in itertools.product(range(len(members)), repeat=2):
        if supports[j] & left[i] != (supports[j] if i == j else frozenset()):
            q = members[j]
            product = LatticeElement(tuple(c * (k in left[i]) for k, c in enumerate(q.coords)))
            raise FamilyError(
                f"members {i}, {j} violate p_α∗p_β = δ_αβ·p_α (got {product})",
                witness=(i, j),
            )
    return ProjectionFamily(members=members, left=tuple(left), right=tuple(right))


def _gamma_union(supports: Sequence[frozenset[int]], gamma: GammaSet) -> frozenset[int]:
    """supp P_Γ; the pair (α, β) sits at α·|Λ| + β in the sorted pair order."""
    n = gamma.n_members
    return frozenset().union(*(supports[a * n + b] for a, b in gamma.pairs))


def _require_family_size(family: ProjectionFamily, gamma: GammaSet) -> None:
    if gamma.n_members != len(family):
        raise FamilyError(
            f"Γ indexes a family of size {gamma.n_members}, got one of size {len(family)}"
        )


def inner_bp(algebra: AlgebraSpec, family: ProjectionFamily, gamma: GammaSet) -> frozenset[int]:
    """supp P_Γ for P_Γ = Σ_{(α,β)∈Γ} (x ↦ p_α ∗ x ∗ p_β), with its certificate.

    P_Γ is the mask of the union of Γ's summand supports.  As an audit
    independent of the integer kernel and of the masks the family
    recorded, each summand is also built as a rational matrix with
    mult_op, and must be a 0/1 mask; the masks must have pairwise disjoint
    supports whose union is the recorded one.  Disjoint
    masks take at most one nonzero value per coordinate, so their
    coordinatewise supremum equals their sum on every x ≥ 0 — the exact
    finite-dimensional form of the defining supremum.  A failed check
    raises; it would mean the family or the algebra is invalid, and must
    never produce silent output.
    """
    _require_family_size(family, gamma)
    union = _gamma_union(family.summand_supports, gamma)
    covered: set[int] = set()
    for a, b in gamma.pairs:
        support = mult_op(algebra, family[a], family[b]).as_mask()
        if support is None:
            raise MathViolationError(f"summand matrix ({a},{b}) is not a 0/1 mask")
        if covered & support:
            raise MathViolationError(
                f"summand matrix ({a},{b}) overlaps another summand on coordinates "
                f"{sorted(covered & support)}"
            )
        covered |= support
    if covered != union:
        raise MathViolationError("the summand matrices' supports differ from the kernel's union")
    return union


@dataclass
class BooleanLawsReport:
    """The three Boolean identities for inner projections:
    P_Γ·P_Δ = P_{Γ∩Δ},  P_Γ + P_Δ − P_{Γ∩Δ} = P_{Γ∪Δ},  P_full − P_Γ = P_{Γ̄}."""

    meet_ok: bool
    join_ok: bool
    complement_ok: bool

    @property
    def ok(self) -> bool:
        return self.meet_ok and self.join_ok and self.complement_ok


def boolean_laws(
    algebra: AlgebraSpec,
    family: ProjectionFamily,
    gamma: GammaSet,
    delta: GammaSet,
) -> BooleanLawsReport:
    """Check the meet/join/complement laws for P_Γ and P_Δ over one family.

    Each P is the mask of a union of summand supports, so the laws are the
    set identities U∩V = supp P_{Γ∩Δ}, U∪V = supp P_{Γ∪Δ} and
    supp P_full ∖ U = supp P_{Γ̄}, for U = supp P_Γ and V = supp P_Δ.
    """
    _require_family_size(family, gamma)
    _require_family_size(family, delta)
    supports = family.summand_supports
    u = _gamma_union(supports, gamma)
    v = _gamma_union(supports, delta)
    full = _gamma_union(supports, GammaSet.full(gamma.n_members))
    return BooleanLawsReport(
        meet_ok=(u & v == _gamma_union(supports, gamma.intersection(delta))),
        join_ok=(u | v == _gamma_union(supports, gamma.union(delta))),
        complement_ok=(full - u == _gamma_union(supports, gamma.complement())),
    )


def enumerate_inner(
    algebra: AlgebraSpec, family: ProjectionFamily, cap: int = ENUM_CAP_DEFAULT
) -> list[tuple[GammaSet, frozenset[int]]]:
    """All distinct inner projections over the family as (witness Γ, supp P_Γ).

    The nonzero summand supports are pairwise disjoint, so the image of
    Γ ↦ P_Γ is exactly the 2^k masks of unions of the k nonzero supports.
    The witness of a union is the set of its nonzero summands — the first
    Γ in bit-mask order over the sorted pair list that produces it — and
    the results come in the order of their witnesses.  The (witness, union)
    list is built by doubling: starting from (∅, ∅), each nonzero summand in
    sorted pair order appends every entry so far extended by its pair and
    its support, so entry number `bits` holds the summands of `bits`, each
    union is one set operation, and each witness lists its pairs in sorted
    order, as GammaSet keeps them, because the entries it extends hold only
    earlier pairs.  No Γ walk runs, but the output has up to 2^(|Λ|²)
    entries: families with |Λ|² > cap are refused (CapExceededError).
    """
    n = len(family)
    if n * n > cap:
        raise CapExceededError(
            f"family of size {n} has |Λ|² = {n * n} pairs; cap is |Λ|² ≤ {cap}"
        )
    subsets: list[tuple[tuple[tuple[int, int], ...], frozenset[int]]] = [((), frozenset())]
    for pair, support in zip(itertools.product(range(n), repeat=2), family.summand_supports):
        if support:
            subsets += [(chosen + (pair,), union | support) for chosen, union in subsets]
    return [(GammaSet(chosen, n), union) for chosen, union in subsets]


def inner_witness(family: ProjectionFamily, support: AbstractSet[int]) -> Optional[GammaSet]:
    """A witness Γ with supp P_Γ = support, or None: that mask is certifiably
    not inner for this family.  It is inner exactly when support is a union
    of summand supports; the witness is the set of nonzero summands inside
    it, the first such Γ in bit-mask order.  One pass over the |Λ|² supports
    decides it, so no cap applies."""
    supports = family.summand_supports
    inside = [t for t, s in enumerate(supports) if s and s <= support]
    if frozenset().union(*(supports[t] for t in inside)) != support:
        return None
    return GammaSet(tuple(divmod(t, len(family)) for t in inside), len(family))


def is_inner(
    algebra: AlgebraSpec, family: ProjectionFamily, m: OperatorMatrix
) -> Optional[GammaSet]:
    """inner_witness for the support of M, which must be a band projection
    operator (a 0/1 mask, as_mask) on the algebra's space; else it raises."""
    if m.dim != algebra.dim:
        raise DimensionMismatchError("operator dimension does not match algebra")
    target = m.as_mask()
    if target is None:
        raise NotBandProjectionError("is_inner expects a band projection operator")
    return inner_witness(family, target)


def _maximal_cliques(adjacent: Sequence[AbstractSet[int]]) -> list[tuple[int, ...]]:
    """Every maximal clique of the graph on range(len(adjacent)), each sorted.

    Bron–Kerbosch with a pivot (CACM 1973, Algorithm 457): every maximal
    clique that extends the current one holds the pivot u or a candidate
    outside u's neighbourhood, so only those candidates are branched on.
    """
    cliques: list[tuple[int, ...]] = []

    def expand(clique: list[int], candidates: frozenset[int], excluded: frozenset[int]) -> None:
        if not candidates and not excluded:
            cliques.append(tuple(sorted(clique)))
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & adjacent[u]))
        for v in sorted(candidates - adjacent[pivot]):
            expand(clique + [v], candidates & adjacent[v], excluded & adjacent[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    if adjacent:
        expand([], frozenset(range(len(adjacent))), frozenset())
    return cliques


def find_families(
    algebra: AlgebraSpec, candidate_pool: Sequence[LatticeElement]
) -> list[ProjectionFamily]:
    """Maximal orthogonal families assembled from a pool, deterministically.

    side_masks reads each distinct nonzero pool member once (zero adds
    nothing to any P_Γ).  As in validate_family, p is kept when it is in
    BP_l ∩ BP_r with supp p ⊆ left[p] (p∗p = p), and p ⊥ q (orthogonal)
    when supp p ∩ supp q = ∅.  That one intersection decides p∗q = 0 and
    q∗p = 0: by bilinearity p∗q = L_p q is q restricted to left[p], and
    p∗q = R_q p is p restricted to right[q], so p∗q vanishes off
    supp p ∩ supp q; on it p∗q equals q, because supp p ⊆ left[p].  So
    supp(p∗q) = supp p ∩ supp q, and supp(q∗p) is the same set by the same
    argument with supp q ⊆ left[q].
    More than 20 kept members are refused.  Each maximal clique of ⊥
    (_maximal_cliques) is a family built from the recorded masks, sorted by
    decreasing size, then by coords.
    """
    eligible, seen_coords = [], set()
    for p in candidate_pool:
        if p.is_zero() or p.coords in seen_coords:
            continue
        seen_coords.add(p.coords)
        left, right = side_masks(algebra, p)
        if left is not None and right is not None and p.support() <= left:
            eligible.append((p, left, right))
    eligible.sort(key=lambda entry: entry[0].coords)
    k = len(eligible)
    if k > 20:
        raise CapExceededError(f"candidate pool of {k} eligible members is too large")
    supports = [p.support() for p, _, _ in eligible]
    adjacent: list[set[int]] = [set() for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        if not supports[i] & supports[j]:
            adjacent[i].add(j)
            adjacent[j].add(i)
    cliques = _maximal_cliques(adjacent)
    cliques.sort(key=lambda c: (-len(c), [eligible[i][0].coords for i in c]))
    # An entry (p, left, right) has the field order of ProjectionFamily.
    return [ProjectionFamily(*zip(*(eligible[i] for i in c))) for c in cliques]
