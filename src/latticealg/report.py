"""Deterministic markdown reports: one self-contained document per algebra.

Every number in a report is recomputed from the algebra on each call with
fixed orderings and no timestamps, so two runs over the same input produce
byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .algebra import AlgebraSpec
from .center import ck_representation, identity_ideal
from .errors import CapExceededError
from .fixtures import BuiltinMeta
from .inner import GammaSet, enumerate_inner, is_inner, validate_family
from .lattice import ApproxReal, LatticeElement, format_real, format_scalar
from .operators import diagonal_mask_operator
from .projections import (
    GRID_POINT_CAP,
    GridSpec,
    enumerate_order_idempotents,
    search_band_projections,
)
from .spectra import SpectrumResult, spectrum


def fmt_element(x: LatticeElement) -> str:
    return "(" + ", ".join(format_scalar(c) for c in x.coords) + ")"


def fmt_combo(x: LatticeElement, labels: Sequence[str]) -> str:
    """Render an element as a signed combination of basis labels."""
    terms = []
    for c, label in zip(x.coords, labels):
        if c == 0:
            continue
        if c == 1:
            terms.append(label)
        else:
            terms.append(f"{format_scalar(c)}·{label}")
    return " + ".join(terms) if terms else "0"


def fmt_poly(coeffs: Sequence[Fraction], var: str = "λ") -> str:
    """Ascending coefficient list to a readable polynomial, high degree first."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = format_scalar(abs(c))
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if abs(c) == 1 else f"{format_scalar(abs(c))}·{power}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def fmt_spectrum(result: SpectrumResult) -> str:
    parts = [
        format_scalar(root) if mult == 1 else f"{format_scalar(root)} (×{mult})"
        for root, mult in result.rational_roots
    ]
    for root in result.other_roots:
        label = format_real(root.re, ".12g")
        if not root.certified_real():
            label += format_real(root.im, "+.12g") + "i"
        suffix = f" ± {root.radius:.3g}"
        parts.append(label + suffix + (f" (×{root.multiplicity})" if root.multiplicity > 1 else ""))
    return "{" + ", ".join(parts) + "}"


def fmt_radius(radius: Union[Fraction, ApproxReal]) -> str:
    """A spectral radius: exact, or its value ± error."""
    if isinstance(radius, Fraction):
        return format_scalar(radius)
    return f"{radius.value:.12g} ± {radius.error:.3g}"


def fmt_mask(n: int, support: Iterable[int]) -> str:
    """The band projection of R^n onto `support`, a 0/1 diagonal mask, as diag(...)."""
    digits = ["0"] * n
    for i in support:
        digits[i] = "1"
    return "diag(" + ", ".join(digits) + ")"


def fmt_gamma(gamma: GammaSet) -> str:
    pairs = ", ".join(f"({a},{b})" for a, b in gamma.sorted_pairs())
    return "{" + pairs + "}"


def fmt_subset_count(n_members: int) -> str:
    """The number 2^(|Λ|²) of Γ-subsets, as "2^N" when str() refuses it
    (past Python's int-to-string digit limit)."""
    n_pairs = n_members * n_members
    try:
        return str(2**n_pairs)
    except ValueError:
        return f"2^{n_pairs}"


def _labels(algebra: AlgebraSpec, meta: Optional[BuiltinMeta]) -> list[str]:
    if meta is not None and len(meta.basis_labels) == algebra.dim:
        return list(meta.basis_labels)
    return [f"b{i}" for i in range(algebra.dim)]


def build_report(algebra: AlgebraSpec, meta: Optional[BuiltinMeta] = None) -> str:
    """One markdown document covering structure, classes, center, spectra, inner."""
    # The band projection section walks this fixed grid, and its cap also
    # bounds the 2^m order idempotents listed (2^m ≤ 3^dim); refuse first.
    grid = GridSpec.from_resolution(2)
    grid_str = "{" + ", ".join(format_scalar(v) for v in grid.values) + "}"
    if grid.size(algebra.dim) > GRID_POINT_CAP:
        raise CapExceededError(
            f"the report's band projection grid {grid_str}^{algebra.dim} has "
            f"{grid.size(algebra.dim)} points; the limit is {GRID_POINT_CAP}"
        )
    labels = _labels(algebra, meta)
    lines: list[str] = [f"# Algebra report: {algebra.name or 'unnamed'}", ""]
    if meta is not None:
        lines += [meta.description, ""]

    lines += ["## Structure", "", f"- dimension: {algebra.dim}"]
    lines.append(f"- basis: {', '.join(labels)}")
    norm_desc = algebra.norm.kind
    if algebra.norm.weights is not None:
        norm_desc += " with weights (" + ", ".join(format_scalar(w) for w in algebra.norm.weights) + ")"
    if algebra.norm.p is not None:
        norm_desc += f", p = {format_scalar(algebra.norm.p)}"
    lines.append(f"- norm: {norm_desc}")
    lines.append("- nonzero basis products:")
    for (i, j) in sorted({(i, j) for i, j, _k in algebra.tensor}):
        product = algebra.basis_product(i, j)
        lines.append(f"  - {labels[i]} ∗ {labels[j]} = {fmt_combo(product, labels)}")
    lines.append("")

    report = algebra.verify_axioms()
    lines += [
        "## Axioms",
        "",
        f"- tensor nonnegativity: {'pass' if report.nonnegative else 'FAIL'}",
        f"- associativity on basis triples: {'pass' if report.associative else 'FAIL'}",
    ]
    if report.has_identity:
        assert report.identity is not None
        lines.append(
            f"- identity: {fmt_element(report.identity)} — laws "
            f"{'pass' if report.identity_laws_ok else 'FAIL'}, positive: "
            f"{'yes' if report.identity_positive else 'no'}, norm one: "
            f"{'yes' if report.identity_norm_one else 'no'}"
        )
    else:
        lines.append("- identity: none exists")
    lines.append(
        f"- norm submultiplicativity: {report.submultiplicativity}"
        f" ({report.submultiplicativity_detail})"
    )
    lines.append("")

    hits = search_band_projections(algebra, grid)
    oi = enumerate_order_idempotents(algebra) if report.has_identity else []
    if report.has_identity:
        lines += ["## Order idempotents", "", f"{len(oi)} elements (complete enumeration):"]
        lines += [f"- {fmt_element(p)}" for p in oi]
        lines.append("")
    lines += [
        f"## Band projections over the grid {grid_str}",
        "",
        f"{len(hits)} certified members (a search aid, not an enumeration —",
        "the class may contain whole rays):",
    ]
    # The enumeration is complete, so membership in it decides OI exactly.
    oi_members = set(oi)
    for p, left, right in hits:
        tags = []
        if p in oi_members:
            tags.append("order idempotent")
        if None not in (left, right):
            tags.append("left+right")
        lines.append(f"- {fmt_element(p)}" + (f" — {', '.join(tags)}" if tags else ""))
    lines.append("")

    if report.has_identity:
        basis_ideal = identity_ideal(algebra)
        rep = ck_representation(algebra)
        inside = [labels[i] for i in basis_ideal.sorted_support()]
        outside = [labels[i] for i in range(algebra.dim) if i not in basis_ideal.support]
        lines += [
            "## Identity ideal A_e",
            "",
            f"- support: {', '.join(inside)}",
            f"- complement band support: {', '.join(outside) if outside else '(trivial)'}",
            f"- atoms ({rep.n_points} points):",
        ]
        lines += [f"  - {fmt_element(a)}" for a in rep.atoms]
        lines.append("")

    named = sorted(algebra.elements)
    if meta is not None and meta.spectrum_elements:
        named = [n for n in meta.spectrum_elements if n in algebra.elements]
    if report.has_identity and named:
        lines += ["## Spectra", ""]
        for name in named:
            x = algebra.elements[name]
            result = spectrum(algebra, x)
            lines += [
                f"### {name} = {fmt_element(x)}",
                "",
                f"- char poly of the left-multiplication matrix: {fmt_poly(result.char_poly)}",
                f"- spectrum: {fmt_spectrum(result)}",
                f"- spectral radius: {fmt_radius(result.spectral_radius())}",
                "",
            ]

    family_names: tuple[str, ...] = meta.default_family if meta is not None else ()
    members = [algebra.elements[n] for n in family_names if n in algebra.elements]
    if members:
        family = validate_family(algebra, members)
        inner_list = enumerate_inner(algebra, family)
        lines += [
            f"## Inner projections over the family ({', '.join(family_names)})",
            "",
            f"- family of {len(family)} orthogonal left-and-right band projections",
            f"- distinct inner projections: {len(inner_list)} out of "
            f"{fmt_subset_count(len(family))} Γ-subsets:",
        ]
        for gamma, support in inner_list:
            lines.append(f"  - Γ = {fmt_gamma(gamma)} ↦ {fmt_mask(algebra.dim, support)}")
        verdict_lines = []
        for name, x in sorted(algebra.elements.items()):
            if x.is_zero():
                continue
            mask_op = diagonal_mask_operator(x)
            if mask_op is None:
                continue
            witness = is_inner(algebra, family, mask_op)
            verdict = f"inner via Γ = {fmt_gamma(witness)}" if witness is not None else "not inner"
            mask = fmt_mask(algebra.dim, x.support())
            verdict_lines.append(f"  - {name}: mask {mask} — {verdict}")
        if verdict_lines:
            lines.append("- named 0/1 masks as band projection operators:")
            lines += verdict_lines
        lines.append("")

    return "\n".join(lines).rstrip("\n") + "\n"
