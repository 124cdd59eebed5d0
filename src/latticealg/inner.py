"""Inner band projections built from orthogonal projection families.

Given a finite family {p_α}_{α∈Λ} of elements of BP_l ∩ BP_r with
p_α ∗ p_β = δ_αβ · p_α, every subset Γ ⊆ Λ×Λ induces the operator

    P_Γ : x ↦ Σ_{(α,β)∈Γ} p_α ∗ x ∗ p_β,

which is a band projection (in finite dimensions the defining supremum of
the summands is attained and equals the sum, because the ranges of the
distinct two-sided multiplications are pairwise disjoint bands).  The map
Γ ↦ P_Γ is a Boolean-algebra homomorphism onto its image; the image can
be smaller than 2^(Λ×Λ), and a band projection need not be of this form
at all — the 3-dimensional identityless fixture carries a witness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import AlgebraSpec
from .errors import CapExceededError, FamilyError, MathViolationError, NotBandProjectionError
from .lattice import LatticeElement
from .operators import OperatorMatrix, is_band_projection_op, mult_op
from .projections import is_left_bp, is_right_bp

ENUM_CAP_DEFAULT = 16  # maximum |Λ|² for exhaustive Γ enumeration


@dataclass(frozen=True)
class ProjectionFamily:
    """A validated orthogonal family {p_α} ⊆ BP_l ∩ BP_r (see validate_family)."""

    members: tuple[LatticeElement, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> LatticeElement:
        return self.members[index]


@dataclass(frozen=True)
class GammaSet:
    """A subset Γ of Λ×Λ, indexing the summands of an inner projection."""

    pairs: frozenset[tuple[int, int]]
    n_members: int

    def __post_init__(self) -> None:
        for alpha, beta in self.pairs:
            if not (0 <= alpha < self.n_members and 0 <= beta < self.n_members):
                raise FamilyError(
                    f"pair ({alpha}, {beta}) out of range for a family of size {self.n_members}"
                )

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]], n_members: int) -> "GammaSet":
        return GammaSet(pairs=frozenset((a, b) for a, b in pairs), n_members=n_members)

    @staticmethod
    def full(n_members: int) -> "GammaSet":
        return GammaSet(
            pairs=frozenset(itertools.product(range(n_members), repeat=2)),
            n_members=n_members,
        )

    @staticmethod
    def empty(n_members: int) -> "GammaSet":
        return GammaSet(pairs=frozenset(), n_members=n_members)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def union(self, other: "GammaSet") -> "GammaSet":
        self._require_same_family(other)
        return GammaSet(pairs=self.pairs | other.pairs, n_members=self.n_members)

    def intersection(self, other: "GammaSet") -> "GammaSet":
        self._require_same_family(other)
        return GammaSet(pairs=self.pairs & other.pairs, n_members=self.n_members)

    def complement(self) -> "GammaSet":
        return GammaSet(
            pairs=GammaSet.full(self.n_members).pairs - self.pairs,
            n_members=self.n_members,
        )

    def _require_same_family(self, other: "GammaSet") -> None:
        if self.n_members != other.n_members:
            raise FamilyError("Γ sets index families of different sizes")


def validate_family(algebra: AlgebraSpec, members: Sequence[LatticeElement]) -> ProjectionFamily:
    """Check both family invariants exactly; raise FamilyError with a witness.

    Every member must lie in BP_l(A) ∩ BP_r(A), and the family must be
    δ-orthogonal: p_α ∗ p_β = p_α when α = β and 0 otherwise.
    """
    members = tuple(members)
    for idx, p in enumerate(members):
        if p.dim != algebra.dim:
            raise FamilyError(f"member {idx} has wrong dimension", witness=idx)
        if not is_left_bp(algebra, p):
            raise FamilyError(
                f"member {idx} is not a left band projection", witness=idx
            )
        if not is_right_bp(algebra, p):
            raise FamilyError(
                f"member {idx} is not a right band projection", witness=idx
            )
    for (i, p), (j, q) in itertools.product(enumerate(members), repeat=2):
        product = algebra.multiply(p, q)
        expected = p if i == j else algebra.zero()
        if product != expected:
            raise FamilyError(
                f"members {i}, {j} violate p_α∗p_β = δ_αβ·p_α (got {product})",
                witness=(i, j),
            )
    return ProjectionFamily(members=members)


def inner_bp(
    algebra: AlgebraSpec,
    family: ProjectionFamily,
    gamma: GammaSet,
    samples: int = 3,
    seed: int = 7,
) -> OperatorMatrix:
    """P_Γ = Σ_{(α,β)∈Γ} (x ↦ p_α ∗ x ∗ p_β) as a matrix, with its certificates.

    Asserts that the sum is a band projection operator, and that on sample
    positive vectors the coordinatewise supremum of the individual summand
    values equals the sum — the finite-dimensional form of the defining
    supremum.  A failed assertion raises; it would mean the family or the
    algebra is invalid, and must never produce silent output.
    """
    if gamma.n_members != len(family):
        raise FamilyError(
            f"Γ indexes a family of size {gamma.n_members}, got one of size {len(family)}"
        )
    n = algebra.dim
    summands = [
        mult_op(algebra, family[a], family[b]) for a, b in gamma.sorted_pairs()
    ]
    total = OperatorMatrix.zero(n)
    for s in summands:
        total = total + s
    if not is_band_projection_op(total):
        raise MathViolationError("P_Γ is not a band projection operator")
    rng = random.Random(seed)
    for _ in range(samples):
        x = LatticeElement(
            tuple(Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(n))
        )
        pieces = [s.apply(x) for s in summands]
        sup = algebra.zero()
        for piece in pieces:
            sup = sup.sup(piece)
        if sup != total.apply(x):
            raise MathViolationError(
                "supremum of the summands differs from their sum on a positive vector"
            )
    return total


@dataclass
class BooleanLawsReport:
    """The three Boolean identities for inner projections, checked exactly:
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
    """Check the meet/join/complement laws for P_Γ and P_Δ over one family."""
    p_gamma = inner_bp(algebra, family, gamma)
    p_delta = inner_bp(algebra, family, delta)
    p_meet = inner_bp(algebra, family, gamma.intersection(delta))
    p_join = inner_bp(algebra, family, gamma.union(delta))
    p_full = inner_bp(algebra, family, GammaSet.full(gamma.n_members))
    p_comp = inner_bp(algebra, family, gamma.complement())
    return BooleanLawsReport(
        meet_ok=(p_gamma.compose(p_delta) == p_meet),
        join_ok=(p_gamma + p_delta - p_meet == p_join),
        complement_ok=(p_full - p_gamma == p_comp),
    )


def all_gamma_sets(n_members: int, cap: int = ENUM_CAP_DEFAULT) -> list[GammaSet]:
    """Every Γ ⊆ Λ×Λ in a fixed deterministic order (bit masks over the
    lexicographically sorted pair list).  Refuses when |Λ|² exceeds the cap."""
    n_pairs = n_members * n_members
    if n_pairs > cap:
        raise CapExceededError(
            f"family of size {n_members} needs 2^{n_pairs} subsets; cap is |Λ|² ≤ {cap}"
        )
    all_pairs = sorted(itertools.product(range(n_members), repeat=2))
    gammas = []
    for bits in range(1 << n_pairs):
        pairs = frozenset(p for t, p in enumerate(all_pairs) if bits >> t & 1)
        gammas.append(GammaSet(pairs=pairs, n_members=n_members))
    return gammas


def enumerate_inner(
    algebra: AlgebraSpec, family: ProjectionFamily, cap: int = ENUM_CAP_DEFAULT
) -> list[tuple[GammaSet, OperatorMatrix]]:
    """All inner projections over the family, duplicates merged exactly.

    Enumerates every Γ ⊆ Λ×Λ (hence 2^(|Λ|²) candidates — capped), keeps
    the first Γ producing each distinct matrix, and returns them in the
    deterministic enumeration order.  The count may be smaller than the
    subset count: distinct Γ often collapse when cross terms vanish.

    Equal summand matrices are grouped first, so each Γ's sum is determined
    by the count of members it takes from each group; only the first Γ per
    distinct count profile computes a matrix, and the full inner_bp
    certification runs once per distinct matrix, on its first witness Γ.
    """
    gammas = all_gamma_sets(len(family), cap)
    all_pairs = sorted(itertools.product(range(len(family)), repeat=2))
    summands = [mult_op(algebra, family[a], family[b]) for a, b in all_pairs]
    zero = OperatorMatrix.zero(algebra.dim)
    group_bits: list[int] = []
    group_matrices: list[OperatorMatrix] = []
    group_of: dict[tuple[tuple[Fraction, ...], ...], int] = {}
    for t, s in enumerate(summands):
        if s == zero:
            continue
        g = group_of.get(s.entries)
        if g is None:
            g = len(group_matrices)
            group_of[s.entries] = g
            group_matrices.append(s)
            group_bits.append(0)
        group_bits[g] |= 1 << t
    out: list[tuple[GammaSet, OperatorMatrix]] = []
    seen_counts: set[tuple[int, ...]] = set()
    seen_entries: set[tuple[tuple[Fraction, ...], ...]] = set()
    for bits, gamma in enumerate(gammas):
        counts = tuple(bin(bits & mask).count("1") for mask in group_bits)
        if counts in seen_counts:
            continue
        seen_counts.add(counts)
        matrix = zero
        for g, k in enumerate(counts):
            if k:
                matrix = matrix + (group_matrices[g] if k == 1 else group_matrices[g].scale(k))
        if matrix.entries in seen_entries:
            continue
        seen_entries.add(matrix.entries)
        certified = inner_bp(algebra, family, gamma)
        if certified != matrix:
            raise MathViolationError("grouped subset sum disagrees with direct sum")
        out.append((gamma, certified))
    return out


def is_inner(
    algebra: AlgebraSpec,
    family: ProjectionFamily,
    m: OperatorMatrix,
    cap: int = ENUM_CAP_DEFAULT,
) -> Optional[GammaSet]:
    """A witness Γ with P_Γ = M, or None: M is certifiably not inner for
    this family (the search over all Γ ⊆ Λ×Λ is exhaustive)."""
    if not is_band_projection_op(m):
        raise NotBandProjectionError("is_inner expects a band projection operator")
    for gamma, matrix in enumerate_inner(algebra, family, cap=cap):
        if matrix == m:
            return gamma
    return None


def find_families(
    algebra: AlgebraSpec, candidate_pool: Sequence[LatticeElement]
) -> list[ProjectionFamily]:
    """Maximal orthogonal families assembled from a pool, deterministically.

    Pool members are filtered to nonzero idempotent elements of
    BP_l ∩ BP_r (zero is excluded: it satisfies the invariants vacuously
    but contributes nothing to any P_Γ), then maximal cliques of the
    pairwise-orthogonality graph are enumerated exhaustively.  Families
    are sorted by decreasing size, then by member coordinates.
    """
    eligible = []
    seen_coords = set()
    for p in candidate_pool:
        if p.is_zero() or p.coords in seen_coords:
            continue
        if not (is_left_bp(algebra, p) and is_right_bp(algebra, p)):
            continue
        if algebra.multiply(p, p) != p:
            continue
        seen_coords.add(p.coords)
        eligible.append(p)
    eligible.sort(key=lambda p: p.coords)
    k = len(eligible)
    orthogonal = [
        [
            algebra.multiply(eligible[i], eligible[j]).is_zero()
            and algebra.multiply(eligible[j], eligible[i]).is_zero()
            for j in range(k)
        ]
        for i in range(k)
    ]
    cliques: list[tuple[int, ...]] = []
    if k > 20:
        raise CapExceededError(f"candidate pool of {k} eligible members is too large")
    for bits in range(1, 1 << k):
        members = [i for i in range(k) if bits >> i & 1]
        if all(orthogonal[i][j] for i, j in itertools.combinations(members, 2)):
            cliques.append(tuple(members))
    maximal = [
        c
        for c in cliques
        if not any(set(c) < set(d) for d in cliques if d != c)
    ]
    families = [
        ProjectionFamily(members=tuple(eligible[i] for i in clique))
        for clique in sorted(maximal, key=lambda c: (-len(c), [eligible[i].coords for i in c]))
    ]
    # Re-validate each (cheap, and guards the clique construction).
    return [validate_family(algebra, f.members) for f in families]
