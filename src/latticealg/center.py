"""Principal ideals, the identity ideal A_e, and its function representation.

A_e is the order ideal generated by the identity, {x : |x| ≤ λ|e| for some
λ ≥ 0}; in the coordinatewise model this is the span of the coordinate
directions where e is nonzero.  It is simultaneously a
projection band (its band projection is the 0/1 diagonal mask on supp(e),
IdealBasis.project), an inverse-closed subalgebra, and — through its
atoms — a finite function algebra: the map x ↦ (x_i / e_i)_{i ∈ supp(e)}
is a lattice and algebra isomorphism onto functions on the finite set K
of atoms, isometric for the order-unit norm ‖x‖_e = inf{λ : |x| ≤ λ|e|}.

The support, the projection and the atoms are all read off e, so none of
them is checked again; only the atoms' products depend on the tensor, and
ck_representation checks those exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import AlgebraSpec
from .errors import DimensionMismatchError, InputError, UnsupportedNormError
from .lattice import LatticeElement, norm
from .operators import invert_element


@dataclass(frozen=True)
class IdealBasis:
    """A support-spanned ideal: exactly the elements supported inside `support`."""

    support: frozenset[int]
    generator: LatticeElement

    def contains(self, x: LatticeElement) -> bool:
        return x.support() <= self.support

    def sorted_support(self) -> list[int]:
        return sorted(self.support)

    def project(self, x: LatticeElement) -> LatticeElement:
        """x on the support and 0 off it: the band projection onto the ideal."""
        if x.dim != self.generator.dim:
            raise DimensionMismatchError("element dimension does not match the ideal")
        return LatticeElement(tuple(c * (i in self.support) for i, c in enumerate(x.coords)))


def principal_ideal(algebra: AlgebraSpec, a: LatticeElement) -> IdealBasis:
    """The smallest order ideal containing a that is a two-sided ring ideal.

    Computed as a support-closure fixpoint: start from supp(|a|) and, while
    anything changes, add every k with a tensor entry c[(i, j, k)] whose i
    or j is already in the support — the supports of b_i ∗ b_j and b_j ∗ b_i.
    With an identity present this is {x : |x| ≤ r∗|a|∗r′ for some r, r′ ≥ 0}.
    """
    if a.dim != algebra.dim:
        raise InputError("element dimension does not match algebra")
    support = set(abs(a).support())
    while True:
        grown = {k for i, j, k in algebra.tensor if i in support or j in support}
        if grown <= support:
            break
        support |= grown
    return IdealBasis(support=frozenset(support), generator=a)


def identity_ideal(algebra: AlgebraSpec) -> IdealBasis:
    """A_e as an IdealBasis.

    A_e is the order ideal generated by e: the span of the coordinates
    where e is nonzero.  On a coordinatewise lattice it is also the band
    generated by e, and its band projection is the 0/1 diagonal mask on
    supp(e), so both are read off e with nothing left to check.  The
    decomposition A = A_e ⊕ A_e^d holds for every x: project(x) keeps the
    coordinates of x on supp(e) and x − project(x) the rest, which is
    disjoint from e.
    """
    e = algebra.require_identity()
    return IdealBasis(support=e.support(), generator=e)


def in_identity_ideal(algebra: AlgebraSpec, x: LatticeElement) -> bool:
    """x ∈ A_e, i.e. |x| ≤ λ|e| for some λ (supp(x) ⊆ supp(e))."""
    e = algebra.require_identity()
    return x.support() <= e.support()


def norm_e(algebra: AlgebraSpec, x: LatticeElement) -> Fraction:
    """Order-unit norm ‖x‖_e = inf{λ ≥ 0 : |x| ≤ λ|e|}, exact on A_e."""
    e = algebra.require_identity()
    if not in_identity_ideal(algebra, x):
        raise InputError("‖·‖_e is only finite on the ideal A_e generated by e")
    values = [abs(x.coords[i] / e.coords[i]) for i in sorted(e.support())]
    return max(values, default=Fraction(0))


@dataclass(frozen=True)
class CKRepresentation:
    """A_e as functions on the finite set K of its atoms.

    atoms[t] is e restricted to its t-th supporting coordinate, so the
    atoms are pairwise disjoint, multiply by a_i ∗ a_j = δ_ij · a_i, and
    sum to e.  coords() is the resulting algebra/lattice isomorphism onto
    K-indexed tuples, with ‖x‖_e = max_t |coords(x)_t|.
    """

    atoms: tuple[LatticeElement, ...]
    support: tuple[int, ...]  # coordinate index of each atom, ascending
    identity: LatticeElement

    @property
    def n_points(self) -> int:
        return len(self.atoms)

    def coords(self, x: LatticeElement) -> tuple[Fraction, ...]:
        if not x.support() <= set(self.support):
            raise InputError("element is not in A_e; its K-coordinates are undefined")
        return tuple(x.coords[i] / self.identity.coords[i] for i in self.support)

    def from_coords(self, values: Sequence[Fraction]) -> LatticeElement:
        if len(values) != self.n_points:
            raise InputError(f"expected {self.n_points} coordinates, got {len(values)}")
        out = [Fraction(0)] * self.identity.dim
        for v, i in zip(values, self.support):
            out[i] = v * self.identity.coords[i]
        return LatticeElement(tuple(out))

    def norm_e(self, x: LatticeElement) -> Fraction:
        return max((abs(c) for c in self.coords(x)), default=Fraction(0))


def ck_representation(algebra: AlgebraSpec) -> CKRepresentation:
    """Compute and verify the atom representation of A_e.

    Each atom is e on one coordinate of supp(e); given e ≥ 0 (checked),
    the atoms are strictly positive, pairwise disjoint and sum to e by
    construction.  Only the tensor decides their products, so
    δ-orthogonality (a_i ∗ a_j = δ_ij · a_i for every pair) is checked
    exactly; by bilinearity it proves the coordinate map multiplicative on
    all of A_e.  The check reads the kernel's product index and builds no
    product: the atoms for i, j ∈ supp(e) are e_i·b_i and e_j·b_j, whose
    product is e_i·e_j·Σ_k (C_ijk/D)·b_k, and e_i > 0, so it is δ_ij·e_i·b_i
    exactly when e_j·C_ijk = D·[i = j]·[k = i] for every k.  Raises
    InputError if either check fails, naming the first failing pair and its
    product, since that would mean the input is not a lattice algebra
    (nonnegative associative tensor with positive identity) to begin with.
    """
    e = algebra.require_identity()
    if not e.is_positive():
        raise InputError("identity is not positive; A_e has no atom representation")
    support = tuple(sorted(e.support()))
    atoms = []
    for i in support:
        coords = [Fraction(0)] * algebra.dim
        coords[i] = e.coords[i]
        atoms.append(LatticeElement(tuple(coords)))
    kernel = algebra.integer_tensor
    for (t, i), (s, j) in itertools.product(enumerate(support), repeat=2):
        # e_j·C_ijk = D·[i = j]·[k = i], both sides times the denominator of e_j.
        e_j = e.coords[j]
        scaled = [(k, e_j.numerator * c) for k, c in kernel.pairs.get((i, j), ())]
        if scaled != ([(i, kernel.den * e_j.denominator)] if i == j else []):
            product = algebra.multiply(atoms[t], atoms[s])
            raise InputError(f"atoms {t}, {s} violate a_i∗a_j = δ_ij·a_i: got {product}")
    return CKRepresentation(atoms=tuple(atoms), support=support, identity=e)


@dataclass
class TruncationReport:
    """Behaviour of the truncations a_n = a ∧ n·e of a positive element."""

    element: LatticeElement
    projection: LatticeElement  # band projection of a onto the band of e
    n_checked: int
    monotone: bool
    bound_holds: bool  # ‖a_m − a_n‖ ≤ n⁻¹·‖a‖² for all checked n ≤ m
    stabilized_at: Optional[int]  # least checked n with a_n equal to projection
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.monotone and self.bound_holds and self.stabilized_at is not None


def truncation_cauchy_check(
    algebra: AlgebraSpec, a: LatticeElement, n_max: int = 20
) -> TruncationReport:
    """Check the Cauchy bound and stabilization of a_n = a ∧ n·e, a ≥ 0.

    Asserts monotonicity a_n ≤ a_m for n ≤ m, the bound
    ‖a_m − a_n‖ ≤ n⁻¹·‖a‖² for all checked pairs, and that the sequence
    stabilizes at the band projection of a onto the band of e (finite
    dimension: the supremum is attained).  The check range is extended
    beyond n_max when a's coordinates over supp(e) need larger n.
    """
    e = algebra.require_identity()
    if not a.is_positive():
        raise InputError("truncation_cauchy_check requires a >= 0")
    if not algebra.norm.is_exact():
        raise UnsupportedNormError("truncation bound check needs an exact (sup/one) norm")
    projection = identity_ideal(algebra).project(a)
    # Smallest n with a_n already equal to the band component of a.
    ratios = [a.coords[i] / e.coords[i] for i in sorted(e.support())]
    n_star = max((int(r) + (0 if r.denominator == 1 else 1) for r in ratios), default=0)
    top = max(n_max, n_star + 1)
    truncations = {n: a.inf(e.scale(n)) for n in range(1, top + 1)}
    failures: list[str] = []
    monotone = True
    for n in range(1, top):
        if not truncations[n].leq(truncations[n + 1]):
            monotone = False
            failures.append(f"a_{n} is not below a_{n + 1}")
    norm_a = norm(a, algebra.norm)
    assert isinstance(norm_a, Fraction)
    bound_holds = True
    for n in range(1, top + 1):
        cap = norm_a * norm_a / n
        for m in range(n, top + 1):
            gap = norm(truncations[m] - truncations[n], algebra.norm)
            assert isinstance(gap, Fraction)
            if gap > cap:
                bound_holds = False
                failures.append(f"‖a_{m} − a_{n}‖ = {gap} exceeds ‖a‖²/{n} = {cap}")
    stabilized_at = next(
        (n for n in range(1, top + 1) if truncations[n] == projection), None
    )
    if stabilized_at is None:
        failures.append("truncations never reach the band component of a")
    else:
        for n in range(stabilized_at, top + 1):
            if truncations[n] != projection:
                failures.append(f"a_{n} left the stable value again")
                stabilized_at = None
                break
    return TruncationReport(
        element=a,
        projection=projection,
        n_checked=top,
        monotone=monotone,
        bound_holds=bound_holds,
        stabilized_at=stabilized_at,
        failures=failures,
    )


@dataclass
class InverseClosedReport:
    """Outcome of inverting an element of A_e inside the full algebra."""

    element: LatticeElement
    invertible: bool
    inverse: Optional[LatticeElement] = None
    inverse_in_ideal: Optional[bool] = None
    two_sided: Optional[bool] = None

    @property
    def ok(self) -> bool:
        # Non-invertibility is a legitimate outcome, not a failure.
        return not self.invertible or bool(self.inverse_in_ideal and self.two_sided)


def inverse_closed_check(algebra: AlgebraSpec, a: LatticeElement) -> InverseClosedReport:
    """Invert a ∈ A_e inside A and confirm the inverse lands back in A_e."""
    e = algebra.require_identity()
    if not in_identity_ideal(algebra, a):
        raise InputError("inverse_closed_check requires a ∈ A_e")
    inv = invert_element(algebra, a)
    if inv is None:
        return InverseClosedReport(element=a, invertible=False)
    return InverseClosedReport(
        element=a,
        invertible=True,
        inverse=inv,
        inverse_in_ideal=in_identity_ideal(algebra, inv),
        two_sided=(algebra.product_is(a, inv, e) and algebra.product_is(inv, a, e)),
    )
