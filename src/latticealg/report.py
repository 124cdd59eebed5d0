"""Formatters shared by the command renderers in cli: elements, polynomials,
spectra, masks and Γ-sets.  They print what a command computed and compute
nothing; cli.build_report renders `latticealg report` with them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .inner import GammaSet
from .lattice import ApproxReal, LatticeElement, format_real, format_scalar
from .spectra import SpectrumResult


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
