"""Finite-dimensional lattice-ordered algebras given by structure constants.

An algebra lives on R^n with coordinatewise order.  The product of basis
vectors is encoded by a sparse nonnegative tensor c[(i, j, k)] meaning
b_i ∗ b_j = Σ_k c[(i,j,k)] · b_k.  Nonnegativity of the tensor makes the
product positive (x, y ≥ 0 implies x∗y ≥ 0), which is what ties the ring
structure to the lattice structure throughout this package.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import linalg
from .errors import CapExceededError, DimensionMismatchError, InputError, NoIdentityError
from .lattice import LatticeElement, NormSpec, as_scalar, vec, zero

TensorKey = tuple[int, int, int]

# The largest `dim` an algebra file may declare (io.algebra_from_dict).  It
# bounds the work verify does for any tensor: the n forced rows of the
# identity solve (n + 1 exact columns each), the n identity-check columns of
# n coordinates and the per-coordinate output.  At 64 an empty tensor
# verifies in under 0.01 s in-process and about 0.16 s as a CLI subprocess
# on a shared 2-core Xeon; the limit is four times the largest dimension the
# benchmark generates (16) and ten times the largest builtin (6).
MAX_DIM = 64
# The most integer products IntegerTensor.associativity_failures may make,
# counted before it makes any.  A dense tensor of dim n needs 2n⁵: in-process
# on the same machine (`verify` on a file with all n³ entries in
# {1, 2, 3, 1/2, 2/3}), dim 16 (2.1M products) loads and verifies in
# 0.7–1.2 s, dim 20 (6.4M) in 2.1–3.6 s and dim 24 (15.9M) in 5.8–8.7 s;
# dim 25 (19.5M) is refused in 0.1 s, most of it reading the file.
# A product is charged 1 + w²/32 when the kernel's largest entry has w
# 64-bit words: 1 up to 5 words.  On dense dim-6 and dim-10 tensors of
# random b-bit entries the check takes, relative to 8-bit entries, 3.1× at
# b = 512 (charge 3), 7.0× at 1024 (9), 17× at 2048 (33), 45–50× at 4096
# (129) and 500× at 16384 (2049), so the charge is never far below the cost
# and overstates it only where the entries are long.  A dim-3 tensor whose
# 27 entries are 1/(10⁴²⁹⁹ + 2k + 1) has a common denominator of 116,059
# digits and 5,801-word entries; it is refused in about 0.5 s as a CLI
# subprocess, most of it the lcm.
MAX_ASSOCIATIVITY_PRODUCTS = 1 << 24
# The most bits the distinct denominators of the tensor's entries may have
# in all, checked by IntegerTensor before it takes their lcm, whose length
# the sum bounds.  In-process on the same machine the kernel of a tensor of
# entries 1/(10^d + 2t + 1) is built in 0.52 s for 27 entries of d = 4299
# (385,587 bits), 0.9–1.1 s for 36–39 such entries (514,116–556,959 bits) and
# for 64 entries of d = 2400 (510,272 bits).  The 64-entry dim-4 file with
# d = 4299 (913,984 bits) would take 3.0 s to build and is refused before
# the lcm, in about 0.2 s as a CLI subprocess.
MAX_DENOMINATOR_BITS = 1 << 19


@dataclass
class AxiomReport:
    """Per-axiom verdicts for an algebra: tensor positivity, associativity,
    identity laws, and a norm-submultiplicativity verdict.

    The first three are exact; submultiplicativity is certified by a
    sufficient condition and reported as "proved" or "unknown" — never a
    guessed number.  An "unknown" does not make the report fail.
    """

    nonnegative: bool
    associative: bool
    # Witnesses are (i, j, k) basis index triples / tensor keys.
    negative_entries: list[TensorKey] = field(default_factory=list)
    associativity_failures: list[TensorKey] = field(default_factory=list)
    has_identity: bool = False
    # The identity, or a declared candidate that fails the laws (then
    # has_identity is False and identity_laws_ok False); None when neither.
    identity: Optional[LatticeElement] = None
    identity_laws_ok: Optional[bool] = None  # None when identity is None
    identity_positive: Optional[bool] = None
    identity_norm_one: Optional[bool] = None  # None when undecided (p-kind norms)
    submultiplicativity: str = "unknown"  # "proved" | "unknown"
    submultiplicativity_detail: str = ""

    @property
    def ok(self) -> bool:
        return self.nonnegative and self.associative and self.identity_laws_ok is not False


@dataclass
class IdentityResult:
    """A two-sided multiplicative identity together with its basic order data.

    form is e's integer form (v, L), e = v/L, as the identity check read it.
    is_positive is e ≥ 0 and norm_one is ‖e‖ = 1, both decided exactly on
    it (_norm_is_one); norm_one is None when the algebra norm is inexact
    (p-kind), whatever e is.  A False value is reported, not raised — it
    flags a tensor/norm combination that cannot be a lattice algebra with
    normalized identity.
    """

    element: LatticeElement
    form: "IntegerForm"
    is_positive: bool
    norm_one: Optional[bool] = None


class IntegerTensor:
    """The structure tensor over one common denominator D: c = C/D, C integer.

    Band projection operators on the coordinatewise R^n are exactly the 0/1
    diagonal masks (forced by 0 ≤ M ≤ I and M² = M), so the projection
    predicates test operator columns one at a time (projections.mask_support),
    and so does the identity check.  An element a enters as v/L with v an
    integer vector (integer_form), and the columns below are integers scaled
    by a known power of L·D.  Associativity is checked on the same integers
    by contracting the tensor with itself, and AlgebraSpec.multiply and
    basis_product read `pairs`, the one product index of the tensor; so
    does product_is, which decides x∗y = z without building the product.
    The exact solves take their integer rows from here too: the identity
    solve from `second`, spectra and inverses from left_matrix.  The grid
    walk reads column_form, the columns of L_l·R_r as quadratic forms, each
    built the first time it is asked for and kept, and the columns of L_a
    and R_a from left_column and right_column; it decides each column once
    the coordinates `first` and `second` say it reads are set.
    """

    def __init__(self, algebra: "AlgebraSpec") -> None:
        n = algebra.dim
        denominators = {c.denominator for c in algebra.tensor.values()}
        bits = sum(d.bit_length() for d in denominators)
        if bits > MAX_DENOMINATOR_BITS:
            raise CapExceededError(
                f"the tensor's distinct denominators have {bits} bits in all; "
                f"the limit is {MAX_DENOMINATOR_BITS}"
            )
        den = math.lcm(*denominators)
        self.dim = n
        self.den = den
        # q → [(j, k, C)] for the entries c[(q, j, k)], and [(i, k, C)] for c[(i, q, k)].
        self.first: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self.second: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        # (i, j) → [(k, C)]: b_i ∗ b_j = Σ_k (C/D)·b_k, for the pairs with entries.
        self.pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (i, j, k), c in algebra.tensor.items():
            big_c = c.numerator * (den // c.denominator)
            self.first[i].append((j, k, big_c))
            self.second[j].append((i, k, big_c))
            self.pairs.setdefault((i, j), []).append((k, big_c))
        self._forms: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}

    def left_column(self, v: Sequence[int], q: int) -> list[int]:
        """D·(v ∗ b_q): column q of L_v."""
        col = [0] * self.dim
        for i, k, big_c in self.second[q]:
            col[k] += v[i] * big_c
        return col

    def left_matrix(self, v: Sequence[int]) -> list[list[int]]:
        """D·L_v as integer rows, from its columns."""
        return [list(row) for row in zip(*(self.left_column(v, q) for q in range(self.dim)))]

    def right_column(self, v: Sequence[int], q: int) -> list[int]:
        """D·(b_q ∗ v): column q of R_v."""
        col = [0] * self.dim
        for j, k, big_c in self.first[q]:
            col[k] += v[j] * big_c
        return col

    def product(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """D·(x ∗ y) on integer vectors."""
        out = [0] * self.dim
        for (i, j), terms in self.pairs.items():
            f = x[i] * y[j]
            if f:
                for k, big_c in terms:
                    out[k] += f * big_c
        return out

    def product_is(self, x: "IntegerForm", y: "IntegerForm", z: "IntegerForm") -> bool:
        """x ∗ y = z for elements in integer form, with no Fraction built:
        with x = v/L_x, y = w/L_y and z = u/L_z, D·(v ∗ w)·L_z = u·L_x·L_y·D
        coordinate by coordinate."""
        (v, x_scale), (w, y_scale), (u, z_scale) = x, y, z
        scale = x_scale * y_scale * self.den
        return all(c * z_scale == t * scale for c, t in zip(self.product(v, w), u))

    def column_form(self, q: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """Column q of D²·L_l·R_r as a quadratic form: [(i, j, [(k, C)])],
        whose entry k is Σ C·l_i·r_j.

        C = Σ_r C_qjr·C_irk, since D·(b_q ∗ r) has entry Σ_j C_qjr·r_j at r
        (right_column) and l ∗ b_r has entry Σ_i l_i·C_irk at k: the same
        column as product(l, right_column(r, q)), with no associativity and
        no sign assumed.  Terms that cancel to 0 are dropped, and the terms
        are grouped by (i, j), so that an evaluation skips l_i·r_j = 0 as
        product does.  A form costs up to n times one direct evaluation of
        the column, so it is built the first time it is asked for and kept;
        the grid walk asks for it only when a prefix with a nonzero
        coordinate sets the last coordinate the column reads.
        """
        form = self._forms.get(q)
        if form is None:
            terms: defaultdict[tuple[int, int], defaultdict[int, int]] = defaultdict(
                lambda: defaultdict(int)
            )
            for j, r, c_qjr in self.first[q]:
                for i, k, c_irk in self.second[r]:
                    terms[i, j][k] += c_qjr * c_irk
            form = self._forms[q] = [
                (i, j, nonzero)
                for (i, j), by_k in terms.items()
                if (nonzero := [(k, c) for k, c in by_k.items() if c])
            ]
        return form

    def associativity_failures(self) -> list[TensorKey]:
        """The basis triples (i, j, k) with (b_i b_j) b_k ≠ b_i (b_j b_k), sorted.

        D²·(b_i b_j) b_k = Σ_r C_ijr Σ_s C_rks b_s and
        D²·b_i (b_j b_k) = Σ_r C_jkr Σ_s C_irs b_s.  Each entry C_pqr meets
        the entries that start at r (the left side, with (i, j) = (p, q)) and
        those whose middle index is r (the right side, with (j, k) = (p, q)),
        so the cost is Σ_r (entries ending in r)·(entries starting at r or
        with middle index r), not n³ products.  Both sides are sparse dicts
        over (i, j, k, s); associativity extends bilinearly from the basis, so
        the list is empty exactly when the product is associative.  Past
        MAX_ASSOCIATIVITY_PRODUCTS products, each weighted by the length of
        the kernel's largest entry, the check is refused before it starts.
        """
        count = sum(
            len(self.first[r]) + len(self.second[r])
            for terms in self.pairs.values()
            for r, _ in terms
        )
        # Each product is charged for the length of the largest entry (see
        # MAX_ASSOCIATIVITY_PRODUCTS): 1 + w²/32 for entries of w 64-bit words.
        bits = max(
            (abs(c).bit_length() for terms in self.pairs.values() for _, c in terms), default=0
        )
        words = (bits + 63) // 64
        work = (1 + words * words // 32) * count
        if work > MAX_ASSOCIATIVITY_PRODUCTS:
            size = f" ({count} products of {words}-word entries)" if work > count else ""
            raise CapExceededError(
                f"the associativity check needs {work} tensor products{size}; "
                f"the limit is {MAX_ASSOCIATIVITY_PRODUCTS}"
            )
        lhs: defaultdict[tuple[int, int, int, int], int] = defaultdict(int)
        rhs: defaultdict[tuple[int, int, int, int], int] = defaultdict(int)
        for (p, q), terms in self.pairs.items():
            for r, c_pqr in terms:
                for k, s, c_rks in self.first[r]:
                    lhs[p, q, k, s] += c_pqr * c_rks
                for i, s, c_irs in self.second[r]:
                    rhs[i, p, q, s] += c_pqr * c_irs
        # Terms of opposite sign can cancel to an explicit zero; drop them.
        left = {key: c for key, c in lhs.items() if c}
        right = {key: c for key, c in rhs.items() if c}
        differ = {key[:3] for key in left.keys() | right.keys() if left.get(key) != right.get(key)}
        return sorted(differ)


IntegerForm = tuple[Sequence[int], int]  # (v, L) stands for the element v/L


def integer_form(algebra: "AlgebraSpec", a: LatticeElement) -> IntegerForm:
    """(v, L) with a = v/L, L the lcm of the coordinate denominators."""
    if a.dim != algebra.dim:
        raise DimensionMismatchError("element dimension does not match algebra")
    scale = math.lcm(*(c.denominator for c in a.coords))
    return [c.numerator * (scale // c.denominator) for c in a.coords], scale


def _weight_form(spec: NormSpec, n: int) -> IntegerForm:
    """The norm weights over their common denominator: (ω, W) with
    w_i = ω_i/W, or n ones over 1 when the weights are unit."""
    if spec.weights is None:
        return [1] * n, 1
    common = math.lcm(*(w.denominator for w in spec.weights))
    return [w.numerator * (common // w.denominator) for w in spec.weights], common


def _norm_is_one(spec: NormSpec, v: Sequence[int], scale: int) -> Optional[bool]:
    """‖v/L‖ = 1 for the integer vector v and L = scale, decided on integers
    for the sup and one kinds: with the weights w_i = ω_i/W over their
    common denominator W, ‖v/L‖ = 1 exactly when max_i ω_i·|v_i| (sup) or
    Σ_i ω_i·|v_i| (one) equals L·W.  None for the p kind, whose norm is
    inexact.  lattice.norm is the Fraction reference."""
    if spec.kind == "p":
        return None
    omega, common = _weight_form(spec, len(v))
    terms = [w * abs(x) for w, x in zip(omega, v)]
    return (max(terms) if spec.kind == "sup" else sum(terms)) == scale * common


@dataclass(frozen=True)
class AlgebraSpec:
    """A finite-dimensional algebra on R^n with coordinatewise lattice order.

    `tensor` maps (i, j, k) → coefficient of b_k in b_i ∗ b_j.  Missing keys
    are zero.  Construction only checks shapes; run verify_axioms() (or
    validate()) to check nonnegativity and associativity.

    A spec is immutable: its fields cannot be reassigned and `tensor` and
    `elements` are read-only mappings (use dataclasses.replace for a
    changed copy).  `identity` is the declared identity, if any;
    solve_identity() finds the identity either way.  The data derived from
    the tensor — the integer kernel and the identity solve — is computed on
    first use, once per spec.
    """

    dim: int
    tensor: Mapping[TensorKey, Fraction]
    norm: NormSpec = field(default_factory=NormSpec)
    identity: Optional[LatticeElement] = None
    name: str = ""
    elements: Mapping[str, LatticeElement] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise InputError(f"dimension must be positive, got {self.dim}")
        n = self.dim
        clean: dict[TensorKey, Fraction] = {}
        for key, value in self.tensor.items():
            i, j, k = key
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise InputError(f"tensor index {key} out of range for dim {self.dim}")
            q = value if isinstance(value, Fraction) else as_scalar(value)
            if q.numerator:
                clean[(i, j, k)] = q
        object.__setattr__(self, "tensor", MappingProxyType(clean))
        object.__setattr__(self, "elements", MappingProxyType(dict(self.elements)))
        if self.norm.weights is not None and len(self.norm.weights) != self.dim:
            raise DimensionMismatchError(
                f"norm weights have length {len(self.norm.weights)}, expected {self.dim}"
            )
        if self.identity is not None and self.identity.dim != self.dim:
            raise DimensionMismatchError("identity element has wrong dimension")
        for label, elem in self.elements.items():
            if elem.dim != self.dim:
                raise DimensionMismatchError(f"element {label!r} has wrong dimension")

    @functools.cached_property
    def integer_tensor(self) -> IntegerTensor:
        """The tensor over one common denominator: the product and mask kernel."""
        return IntegerTensor(self)

    # -- ring structure ------------------------------------------------

    def multiply(self, x: LatticeElement, y: LatticeElement) -> LatticeElement:
        """x ∗ y on the integer kernel: with x = v/L_x and y = w/L_y,
        x ∗ y = D·(v ∗ w) / (L_x·L_y·D)."""
        kernel = self.integer_tensor
        v, x_scale = integer_form(self, x)
        w, y_scale = integer_form(self, y)
        scale = x_scale * y_scale * kernel.den
        return LatticeElement(tuple(Fraction(c, scale) for c in kernel.product(v, w)))

    def product_is(self, x: LatticeElement, y: LatticeElement, z: LatticeElement) -> bool:
        """x ∗ y = z, decided on the integer kernel (IntegerTensor.product_is)
        without building x ∗ y: the test for every product identity, where
        multiply is for when the value of the product is needed."""
        return self.integer_tensor.product_is(
            integer_form(self, x), integer_form(self, y), integer_form(self, z)
        )

    def basis_product(self, i: int, j: int) -> LatticeElement:
        """b_i ∗ b_j directly from the tensor."""
        kernel = self.integer_tensor
        out = [Fraction(0)] * self.dim
        for k, big_c in kernel.pairs.get((i, j), ()):
            out[k] = Fraction(big_c, kernel.den)
        return LatticeElement(tuple(out))

    def power(self, x: LatticeElement, n: int) -> LatticeElement:
        if n < 1:
            raise InputError("power requires n >= 1")
        acc = x
        for _ in range(n - 1):
            acc = self.multiply(acc, x)
        return acc

    # -- axioms ----------------------------------------------------------

    def verify_axioms(self) -> AxiomReport:
        """Check the algebra axioms: positivity, associativity, identity, norm.

        Tensor nonnegativity and associativity on all basis triples are
        exact and complete (associativity extends bilinearly from the
        basis); both are read off the integer kernel c = C/D, D > 0: the
        negative entries are the C < 0, and associativity is decided by
        IntegerTensor's contraction.  The identity laws e∗b = b∗e = b were
        checked on the basis when the identity was found, so an identity
        here has identity_laws_ok True, and the (is_positive, ‖e‖ = 1)
        flags come with it.  A declared identity that fails the laws is
        reported with identity_laws_ok False and its own flags, and fails
        the report; absence of an identity is noted, not an error.  Norm
        submultiplicativity gets a {proved, unknown} verdict from
        check_submultiplicativity.
        """
        negative = sorted(
            (i, j, k)
            for (i, j), terms in self.integer_tensor.pairs.items()
            for k, big_c in terms
            if big_c < 0
        )
        failures = self.integer_tensor.associativity_failures()
        report = AxiomReport(
            nonnegative=not negative,
            associative=not failures,
            negative_entries=negative,
            associativity_failures=failures,
        )
        identity = find_identity(self)
        if identity is not None:
            report.has_identity = True
            report.identity = identity.element
            report.identity_laws_ok = True
            report.identity_positive = identity.is_positive
            report.identity_norm_one = identity.norm_one
        elif self.identity is not None:
            v, scale = integer_form(self, self.identity)
            report.identity = self.identity
            report.identity_laws_ok = False
            report.identity_positive = min(v) >= 0
            report.identity_norm_one = _norm_is_one(self.norm, v, scale)
        verdict, detail = check_submultiplicativity(self)
        report.submultiplicativity = verdict
        report.submultiplicativity_detail = detail
        return report

    def validate(self) -> None:
        """Raise InputError unless the axioms hold."""
        report = self.verify_axioms()
        if not report.ok:
            parts = []
            if report.negative_entries:
                parts.append(f"negative tensor entries at {report.negative_entries[:3]}")
            if report.associativity_failures:
                parts.append(
                    f"associativity fails at basis triples {report.associativity_failures[:3]}"
                )
            raise InputError("; ".join(parts))

    # -- identity ----------------------------------------------------------

    @functools.cached_property
    def _identity(self) -> Union[IdentityResult, str]:
        """The identity solve, run once: its result, or why there is none.

        e is a left identity iff Σ_j e_j·c[(j,i,k)] = δ_ik for all i, k — a
        linear system in the coordinates of e.  A two-sided identity is the
        only left identity (f = f∗e = e), so when one exists the system has
        exactly that solution; the column check below decides two-sidedness.
        The solve returns e's integer form (v, L), from which e's Fractions
        are built once.  A declared identity replaces the solve, enters by
        integer_form, and gets the same check.  The flags e ≥ 0 and ‖e‖ = 1
        are then read off (v, L): v ≥ 0, and _norm_is_one.
        """
        kernel = self.integer_tensor
        if self.identity is not None:
            e = self.identity
            form = integer_form(self, e)
            failure = "candidate identity fails e∗b = b∗e = b on the basis"
        else:
            n = self.dim
            failure = f"algebra {self.name or '<unnamed>'} has no identity"
            # Row (i, k) of D·(e ∗ b_i) = D·b_i, only where some entry
            # C[(j,i,k)] touches it, and always (i, i): untouched, it reads 0 = D.
            rows = {(i, i): [0] * n for i in range(n)}
            for i, entries in enumerate(kernel.second):
                for j, k, big_c in entries:
                    rows.setdefault((i, k), [0] * n)[j] = big_c
            form = linalg.solve(list(rows.values()), [kernel.den * (i == k) for i, k in rows])
            if form is None:
                return failure
            e = LatticeElement(tuple(Fraction(c, form[1]) for c in form[0]))
        # Check e∗b_q = b_q∗e = b_q column by column (guards a declared
        # identity too): with e = v/L both columns must be L·D·e_q.
        v, scale = form
        for q in range(self.dim):
            unit = [0] * self.dim
            unit[q] = scale * kernel.den
            if kernel.left_column(v, q) != unit or kernel.right_column(v, q) != unit:
                return failure
        norm_one = _norm_is_one(self.norm, v, scale)
        return IdentityResult(element=e, form=form, is_positive=min(v) >= 0, norm_one=norm_one)

    def solve_identity(self) -> IdentityResult:
        """The two-sided identity; raise NoIdentityError if none exists."""
        result = self._identity
        if isinstance(result, str):
            raise NoIdentityError(result)
        return result

    def require_identity(self) -> LatticeElement:
        return self.solve_identity().element

    def has_identity(self) -> bool:
        return not isinstance(self._identity, str)

    # -- conveniences ----------------------------------------------------

    def basis_element(self, i: int) -> LatticeElement:
        if not 0 <= i < self.dim:
            raise InputError(f"basis index {i} out of range")
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return LatticeElement(tuple(coords))

    def zero(self) -> LatticeElement:
        return zero(self.dim)

    def element(self, values: Iterable) -> LatticeElement:
        x = vec(values)
        if x.dim != self.dim:
            raise DimensionMismatchError(f"expected {self.dim} coordinates, got {x.dim}")
        return x


def find_identity(algebra: AlgebraSpec) -> Optional[IdentityResult]:
    """The two-sided identity with its (is_positive, norm_one) flags, or None.

    Flag violations are reported, not raised: an identity that is not
    positive or not of norm one signals a tensor/norm pair that cannot
    satisfy the lattice-algebra axioms, and callers decide what to do.
    """
    try:
        return algebra.solve_identity()
    except NoIdentityError:
        return None


def check_submultiplicativity(algebra: AlgebraSpec) -> tuple[str, str]:
    """("proved" | "unknown", detail) for ‖x∗y‖ ≤ ‖x‖·‖y‖.

    Sufficient conditions, exact where applicable:
    - sup kind, weights w: |c|(u, u) ≤ u for the unit-ball corner
      u_i = 1/w_i, where |c|(x, y)_k = Σ_ij |c_ijk|·x_i·y_j (any x, y in the
      unit ball satisfy |x∗y| ≤ |c|(|x|, |y|) ≤ |c|(u, u)); for a
      nonnegative tensor |c|(u, u) is u∗u, and the details say so;
    - one kind: ‖b_i ∗ b_j‖ ≤ ‖b_i‖·‖b_j‖ for all basis pairs (the unit
      ball is the convex hull of ±b_i/w_i, and the product is bilinear);
    - p kind: no exact certificate is attempted — always "unknown".

    Both conditions are decided on the integer kernel c = C/D.  Sup: with
    w_i = a_i/d_i in lowest terms, u = v/L for L = lcm(a) and
    v_i = d_i·L/a_i, and |c|(u, u) ≤ u is Σ_ij |C_ijk|·v_i·v_j ≤ L·D·v_k.
    One: with w_i = ω_i/W over the weights' common denominator, the pair
    (i, j) holds when Σ_k ω_k·|C_ijk|·W ≤ ω_i·ω_j·D.  Fractions are built
    only for the detail of a failure.

    "unknown" is a verdict about the certificate, not a claimed failure;
    the detail names the first violated coordinate or pair when the
    sufficient condition itself fails.
    """
    spec = algebra.norm
    if spec.kind == "sup":
        kernel = algebra.integer_tensor
        weights = spec.weight_vector(algebra.dim)
        scale = math.lcm(*(w.numerator for w in weights))
        v = [w.denominator * (scale // w.numerator) for w in weights]
        bound = scale * kernel.den
        uu = [0] * algebra.dim
        signed = False
        for (i, j), terms in kernel.pairs.items():
            for k, big_c in terms:
                uu[k] += v[i] * v[j] * abs(big_c)
                signed = signed or big_c < 0
        product = "|c|(u, u)" if signed else "u∗u"
        bad = next((k for k, (c, x) in enumerate(zip(uu, v)) if c > bound * x), None)
        if bad is None:
            return "proved", f"{product} ≤ u for the unit-ball corner u"
        return (
            "unknown",
            f"sufficient condition fails at coordinate {bad}: "
            f"({product})_{bad} = {Fraction(uu[bad], scale * bound)} > "
            f"u_{bad} = {Fraction(v[bad], scale)}",
        )
    if spec.kind == "one":
        kernel = algebra.integer_tensor
        omega, common = _weight_form(spec, algebra.dim)
        # A pair without entries has b_i ∗ b_j = 0, which cannot fail.
        for i, j in sorted(algebra.integer_tensor.pairs):
            prod = sum(omega[k] * abs(big_c) for k, big_c in kernel.pairs[i, j])
            if prod * common > omega[i] * omega[j] * kernel.den:
                return (
                    "unknown",
                    f"sufficient condition fails at basis pair ({i}, {j}): "
                    f"‖b_{i}∗b_{j}‖ = {Fraction(prod, common * kernel.den)} > "
                    f"{Fraction(omega[i] * omega[j], common * common)}",
                )
        return "proved", "‖b_i∗b_j‖ ≤ ‖b_i‖·‖b_j‖ on all basis pairs"
    return "unknown", f"no exact certificate for norm kind {spec.kind!r}"


def lp_sum(parts: list[AlgebraSpec], name: str = "") -> AlgebraSpec:
    """Direct sum of algebras with componentwise product and blockwise order.

    The factors must share the norm kind (sup or one, both unweighted); the
    sum carries the same kind.  A sup-kind sum of unital factors is unital
    with identity the concatenation of the factor identities.
    """
    if not parts:
        raise InputError("lp_sum requires at least one factor")
    kind = parts[0].norm.kind
    if kind not in ("sup", "one"):
        raise InputError(f"lp_sum supports sup/one norm kinds, got {kind!r}")
    for part in parts:
        if part.norm.kind != kind or part.norm.weights is not None:
            raise InputError("lp_sum factors must share an unweighted sup/one norm")
        report = part.verify_axioms()
        if not report.ok:
            raise InputError(f"lp_sum factor {part.name or '<unnamed>'} fails the axioms")
    offsets: list[int] = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.dim
    tensor: dict[TensorKey, Fraction] = {}
    for part, off in zip(parts, offsets):
        for (i, j, k), c in part.tensor.items():
            tensor[(i + off, j + off, k + off)] = c
    identity = None
    if kind == "sup" and all(p.has_identity() for p in parts):
        identity = LatticeElement(tuple(c for p in parts for c in p.require_identity().coords))
    return AlgebraSpec(
        dim=total,
        tensor=tensor,
        norm=NormSpec(kind=kind),
        identity=identity,
        name=name or "+".join(p.name or "?" for p in parts),
    )
