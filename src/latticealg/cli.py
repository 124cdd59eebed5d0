"""Command-line front end.

    latticealg verify|classify|center|spectrum|inner|report
               [target] [--input FILE | --builtin NAME]
               [--element NAME]... [--family NAME]...
               [--gamma "(a,b),(c,d)"] [--grid N]
               [--format text|json|markdown] [--cap N]

The positional target accepts either a path to an algebra JSON file or
"builtin:NAME".  Exit codes are a stable contract: 0 success, 1 a
mathematical law or verification failed, 2 bad input, 3 an internal
error (a bug in latticealg, reported on one stderr line).  The environment
variable LATTICEALG_CAP overrides the default inner cap on |Λ|² when
--cap is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, NoReturn, Optional, Sequence

from .algebra import AlgebraSpec
from .center import ck_representation, identity_ideal
from .errors import InputError, MathViolationError
from .fixtures import BUILTIN_NAMES, BuiltinMeta, builtin, builtin_meta
from .inner import (
    ENUM_CAP_DEFAULT,
    GammaSet,
    boolean_laws,
    enumerate_inner,
    inner_bp,
    is_inner,
    validate_family,
)
from .io import element_to_wire, load_algebra, operator_to_wire, scalar_to_wire
from .lattice import LatticeElement
from .operators import diagonal_mask_operator
from .projections import (
    GridSpec,
    check_grid_size,
    classify,
    enumerate_order_idempotents,
    is_left_bp,
    is_right_bp,
    search_band_projections,
)
from .report import (
    build_report,
    fmt_element,
    fmt_gamma,
    fmt_poly,
    fmt_projection_matrix,
    fmt_radius,
    fmt_scalar,
    fmt_spectrum,
)
from .spectra import spectrum

COMMANDS = ("verify", "classify", "center", "spectrum", "inner", "report")


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags and environment."""

    command: str
    input_path: Optional[str] = None
    builtin_name: Optional[str] = None
    elements: list[str] = field(default_factory=list)
    family: list[str] = field(default_factory=list)
    gamma: Optional[str] = None
    grid: int = 2
    out_format: str = "text"
    cap: int = ENUM_CAP_DEFAULT


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as InputError (exit 2, one line), not SystemExit."""

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="latticealg",
        description="Exact computations in finite-dimensional lattice algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "check the algebra axioms and identity"),
        ("classify", "order idempotents, band projections, per-element verdicts"),
        ("center", "the identity ideal A_e, its atoms and band decomposition"),
        ("spectrum", "characteristic polynomials and root sets of elements"),
        ("inner", "inner projections over an orthogonal family"),
        ("report", "full deterministic markdown report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "target",
            nargs="?",
            help="algebra file path or builtin:NAME "
            f"(builtins: {', '.join(BUILTIN_NAMES)})",
        )
        p.add_argument("--input", help="path to an algebra JSON file")
        p.add_argument("--builtin", help="name of a builtin algebra")
        p.add_argument(
            "--element",
            action="append",
            default=[],
            metavar="NAME",
            help="named element from the algebra file (repeatable)",
        )
        p.add_argument(
            "--family",
            action="append",
            default=[],
            metavar="NAME",
            help="named elements forming an orthogonal projection family (repeatable)",
        )
        p.add_argument("--gamma", help='index-pair set, e.g. "(0,0),(1,1)"')
        p.add_argument("--grid", type=int, default=2, help="grid resolution N: values k/N (default 2)")
        p.add_argument(
            "--format",
            choices=("text", "json", "markdown"),
            default="text",
            dest="out_format",
        )
        p.add_argument("--cap", type=int, help="inner: largest family size |Λ|² accepted (default 16)")
    return parser


def _config_from_args(argv: Sequence[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    input_path, builtin_name = ns.input, ns.builtin
    if ns.target:
        if input_path or builtin_name:
            raise InputError("give either a positional target or --input/--builtin, not both")
        if ns.target.startswith("builtin:"):
            builtin_name = ns.target[len("builtin:") :]
        else:
            input_path = ns.target
    if input_path and builtin_name:
        raise InputError("--input and --builtin are mutually exclusive")
    cap = ns.cap
    if cap is None:
        env = os.environ.get("LATTICEALG_CAP")
        if env is not None:
            try:
                cap = int(env)
            except ValueError:
                raise InputError(f"LATTICEALG_CAP must be an integer, got {env!r}") from None
        else:
            cap = ENUM_CAP_DEFAULT
    if cap <= 0:
        raise InputError("cap must be positive")
    if ns.grid <= 0:
        raise InputError("grid resolution must be positive")
    return RunConfig(
        command=ns.command,
        input_path=input_path,
        builtin_name=builtin_name,
        elements=list(ns.element),
        family=list(ns.family),
        gamma=ns.gamma,
        grid=ns.grid,
        out_format=ns.out_format,
        cap=cap,
    )


def _resolve_algebra(config: RunConfig) -> tuple[AlgebraSpec, Optional[BuiltinMeta]]:
    if config.builtin_name:
        return builtin(config.builtin_name), builtin_meta(config.builtin_name)
    if config.input_path:
        return load_algebra(config.input_path), None
    raise InputError("no algebra given: pass a file path, builtin:NAME, --input, or --builtin")


def _named_elements(
    algebra: AlgebraSpec, names: Sequence[str], default_all: bool = True
) -> list[tuple[str, LatticeElement]]:
    if not names:
        return sorted(algebra.elements.items()) if default_all else []
    out = []
    for name in names:
        if name not in algebra.elements:
            known = ", ".join(sorted(algebra.elements)) or "(none)"
            raise InputError(f"element {name!r} not in the algebra file; available: {known}")
        out.append((name, algebra.elements[name]))
    return out


_PAIR = r"\(\s*(\d{1,9})\s*,\s*(\d{1,9})\s*\)"
_PAIRS = rf"(?:{_PAIR}(?:\s*(?:,\s*)?{_PAIR})*)?"
# The whole text: pairs separated by commas or spaces, optionally in braces
# as fmt_gamma prints them; "", "()" and "{}" are the empty set.
_GAMMA_TEXT = re.compile(rf"\s*(?:{_PAIRS}|\{{\s*{_PAIRS}\s*\}}|\(\s*\))\s*")


def _parse_gamma(text: str, n_members: int) -> GammaSet:
    if not _GAMMA_TEXT.fullmatch(text):
        raise InputError(f'cannot parse gamma {text!r}; expected pairs like "(0,0),(1,1)"')
    pairs = [(int(a), int(b)) for a, b in re.findall(_PAIR, text)]
    return GammaSet.of(pairs, n_members)


def _resolve_family(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[list[str], list[LatticeElement]]:
    names = list(config.family)
    if not names and meta is not None:
        names = [n for n in meta.default_family if n in algebra.elements]
    if names:
        return names, [x for _, x in _named_elements(algebra, names, default_all=False)]
    if algebra.has_identity():
        rep = ck_representation(algebra)
        return (
            [f"atom{i}" for i in range(rep.n_points)],
            list(rep.atoms),
        )
    raise InputError("no projection family given (use --family NAME for each member)")


# -- commands ------------------------------------------------------------


def cmd_verify(config: RunConfig) -> tuple[int, dict[str, Any], list[str]]:
    algebra, _meta = _resolve_algebra(config)
    report = algebra.verify_axioms()
    payload: dict[str, Any] = {
        "name": algebra.name,
        "dim": algebra.dim,
        "nonnegative": report.nonnegative,
        "negative_entries": [list(k) for k in report.negative_entries],
        "associative": report.associative,
        "associativity_failures": [list(k) for k in report.associativity_failures],
        "identity": element_to_wire(report.identity) if report.identity is not None else None,
        "identity_laws_ok": report.identity_laws_ok,
        "identity_positive": report.identity_positive,
        "identity_norm_one": report.identity_norm_one,
        "submultiplicativity": report.submultiplicativity,
        "submultiplicativity_detail": report.submultiplicativity_detail,
        "ok": report.ok,
    }
    lines = [
        f"algebra: {algebra.name or '<unnamed>'} (dim {algebra.dim})",
        f"tensor nonnegativity: {'pass' if report.nonnegative else 'FAIL ' + str(report.negative_entries[:3])}",
        f"associativity: {'pass' if report.associative else 'FAIL ' + str(report.associativity_failures[:3])}",
    ]
    if report.has_identity:
        assert report.identity is not None
        lines.append(f"identity: {fmt_element(report.identity)}")
        lines.append(
            f"  laws: {'pass' if report.identity_laws_ok else 'FAIL'}; positive: "
            f"{'yes' if report.identity_positive else 'NO'}; norm one: "
            f"{'yes' if report.identity_norm_one else 'no'}"
        )
    else:
        lines.append("identity: none")
    lines.append(
        f"norm submultiplicativity: {report.submultiplicativity}"
        f" — {report.submultiplicativity_detail}"
    )
    lines.append(f"result: {'PASS' if report.ok else 'FAIL'}")
    return (0 if report.ok else 1), payload, lines


def cmd_classify(config: RunConfig) -> tuple[int, dict[str, Any], list[str]]:
    algebra, _meta = _resolve_algebra(config)
    check_grid_size(config.grid + 1, algebra.dim)
    grid = GridSpec.from_resolution(config.grid)
    # The grid search runs first: 2^m ≤ (N+1)^dim for the m atoms of A_e,
    # so its cap also bounds the enumeration of the 2^m order idempotents.
    certified = search_band_projections(algebra, grid)
    core = [p for p in certified if is_left_bp(algebra, p) and is_right_bp(algebra, p)]
    payload: dict[str, Any] = {"name": algebra.name, "dim": algebra.dim}
    lines = [f"algebra: {algebra.name or '<unnamed>'} (dim {algebra.dim})"]
    if algebra.has_identity():
        oi = enumerate_order_idempotents(algebra)
        payload["order_idempotents"] = [element_to_wire(p) for p in oi]
        lines.append(f"order idempotents ({len(oi)}, complete):")
        lines += [f"  {fmt_element(p)}" for p in oi]
    else:
        payload["order_idempotents"] = None
        lines.append("order idempotents: not applicable (no identity)")
    grid_str = "{" + ", ".join(fmt_scalar(v) for v in grid.values) + "}"
    payload["grid"] = [fmt_scalar(v) for v in grid.values]
    payload["band_projections_on_grid"] = [element_to_wire(p) for p in certified]
    payload["left_and_right_on_grid"] = [element_to_wire(p) for p in core]
    lines.append(f"band projections over grid {grid_str} ({len(certified)} certified):")
    lines += [f"  {fmt_element(p)}" for p in certified]
    lines.append(f"left-and-right band projections among them ({len(core)}):")
    lines += [f"  {fmt_element(p)}" for p in core]
    named = _named_elements(algebra, config.elements)
    verdicts = {}
    if named:
        lines.append("named elements:")
    for name, x in named:
        c = classify(algebra, x)
        verdicts[name] = {
            "coords": element_to_wire(x),
            "nonnegative": c.nonnegative,
            "is_oi": c.is_oi,
            "is_bp": c.is_bp,
            "is_left_bp": c.is_left_bp,
            "is_right_bp": c.is_right_bp,
        }
        oi_str = "n/a" if c.is_oi is None else ("yes" if c.is_oi else "no")
        lines.append(
            f"  {name} = {fmt_element(x)}: OI {oi_str} / BP {'yes' if c.is_bp else 'no'}"
            f" / left {'yes' if c.is_left_bp else 'no'} / right {'yes' if c.is_right_bp else 'no'}"
        )
    payload["elements"] = verdicts
    return 0, payload, lines


def cmd_center(config: RunConfig) -> tuple[int, dict[str, Any], list[str]]:
    algebra, _meta = _resolve_algebra(config)
    basis, projection = identity_ideal(algebra)
    rep = ck_representation(algebra)
    inside = basis.sorted_support()
    outside = [i for i in range(algebra.dim) if i not in basis.support]
    demo = LatticeElement(
        tuple(Fraction((-1) ** i * (i + 1)) for i in range(algebra.dim))
    )
    demo_e = projection.apply(demo)
    demo_d = demo - demo_e
    payload: dict[str, Any] = {
        "name": algebra.name,
        "support": inside,
        "complement_support": outside,
        "atoms": [element_to_wire(a) for a in rep.atoms],
        "band_projection": operator_to_wire(projection),
        "decomposition_demo": {
            "x": element_to_wire(demo),
            "x_e": element_to_wire(demo_e),
            "x_d": element_to_wire(demo_d),
        },
    }
    lines = [
        f"algebra: {algebra.name or '<unnamed>'} (dim {algebra.dim})",
        f"A_e support coordinates: {', '.join(map(str, inside))}",
        f"complement band coordinates: {', '.join(map(str, outside)) if outside else '(none)'}",
        f"atoms ({rep.n_points} points of K):",
    ]
    lines += [f"  {fmt_element(a)}" for a in rep.atoms]
    lines.append(f"band projection onto A_e: {fmt_projection_matrix(projection)}")
    lines.append(
        f"decomposition demo: x = {fmt_element(demo)} splits as x_e = {fmt_element(demo_e)}"
        f" plus x_d = {fmt_element(demo_d)} (x_d disjoint from e)"
    )
    return 0, payload, lines


def cmd_spectrum(config: RunConfig) -> tuple[int, dict[str, Any], list[str]]:
    algebra, meta = _resolve_algebra(config)
    names = config.elements
    if not names and meta is not None and meta.spectrum_elements:
        names = [n for n in meta.spectrum_elements if n in algebra.elements]
    named = _named_elements(algebra, names)
    if not named:
        raise InputError("no elements to analyze: the algebra file names none and no --element given")
    payload: dict[str, Any] = {"name": algebra.name, "elements": {}}
    lines = [f"algebra: {algebra.name or '<unnamed>'} (dim {algebra.dim})"]
    for name, x in named:
        result = spectrum(algebra, x)
        radius = result.spectral_radius()
        entry: dict[str, Any] = {
            "coords": element_to_wire(x),
            "char_poly": [scalar_to_wire(c) for c in result.char_poly],
            "rational_roots": [
                {"root": scalar_to_wire(r), "multiplicity": m} for r, m in result.rational_roots
            ],
            "numeric_roots": [
                {
                    "re": repr(root.value.real),
                    "im": repr(root.value.imag),
                    "radius": repr(root.radius),
                    "multiplicity": root.multiplicity,
                }
                for root in result.other_roots
            ],
        }
        if isinstance(radius, Fraction):
            entry["spectral_radius"] = scalar_to_wire(radius)
        else:
            entry["spectral_radius"] = {"value": repr(radius.value), "error": repr(radius.error)}
        payload["elements"][name] = entry
        lines += [
            f"{name} = {fmt_element(x)}:",
            f"  char poly: {fmt_poly(result.char_poly)}",
            f"  spectrum: {fmt_spectrum(result)}",
            f"  spectral radius: {fmt_radius(radius)}",
        ]
    return 0, payload, lines


def cmd_inner(config: RunConfig) -> tuple[int, dict[str, Any], list[str]]:
    algebra, meta = _resolve_algebra(config)
    names, members = _resolve_family(algebra, meta, config)
    family = validate_family(algebra, members)
    payload: dict[str, Any] = {
        "name": algebra.name,
        "family": {n: element_to_wire(x) for n, x in zip(names, family.members)},
        "family_valid": True,
    }
    lines = [
        f"algebra: {algebra.name or '<unnamed>'} (dim {algebra.dim})",
        f"family ({len(family)} members): valid — orthogonal, all in BP_l ∩ BP_r",
    ]
    lines += [f"  {n} = {fmt_element(x)}" for n, x in zip(names, family.members)]
    enumerated = enumerate_inner(algebra, family, cap=config.cap)
    subsets = 2 ** (len(family) ** 2)
    payload["distinct_inner"] = [
        {"gamma": gamma.sorted_pairs(), "matrix": operator_to_wire(matrix)}
        for gamma, matrix in enumerated
    ]
    lines.append(f"distinct inner projections: {len(enumerated)} out of {subsets} Γ-subsets")
    lines += [
        f"  Γ = {fmt_gamma(gamma)} ↦ {fmt_projection_matrix(matrix)}"
        for gamma, matrix in enumerated
    ]
    if config.gamma is not None:
        gamma = _parse_gamma(config.gamma, len(family))
        matrix = inner_bp(algebra, family, gamma)
        payload["gamma"] = gamma.sorted_pairs()
        payload["gamma_projection"] = operator_to_wire(matrix)
        comp = gamma.complement()
        laws = boolean_laws(algebra, family, gamma, comp)
        payload["boolean_laws_vs_complement_ok"] = laws.ok
        lines.append(f"P_Γ for Γ = {fmt_gamma(gamma)}: {fmt_projection_matrix(matrix)}")
        lines.append(
            f"Boolean laws against the complement Γ̄ = {fmt_gamma(comp)}: "
            f"{'pass' if laws.ok else 'FAIL'}"
        )
    verdicts: dict[str, Any] = {}
    for name, x in _named_elements(algebra, config.elements):
        mask = diagonal_mask_operator(x)
        if mask is None or x.is_zero():
            continue
        witness = is_inner(algebra, family, mask, cap=config.cap)
        verdicts[name] = None if witness is None else witness.sorted_pairs()
        verdict_str = (
            f"inner via Γ = {fmt_gamma(witness)}" if witness is not None else "NOT inner"
        )
        lines.append(f"{name} as mask {fmt_projection_matrix(mask)}: {verdict_str}")
    payload["is_inner"] = verdicts
    return 0, payload, lines


def cmd_report(config: RunConfig) -> tuple[int, dict[str, Any], list[str]]:
    if config.builtin_name or config.input_path:
        algebra, meta = _resolve_algebra(config)
        doc = build_report(algebra, meta)
    else:
        docs = [build_report(builtin(n), builtin_meta(n)) for n in BUILTIN_NAMES]
        doc = "\n---\n\n".join(docs)
    return 0, {"markdown": doc}, [doc.rstrip("\n")]


_DISPATCH = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "center": cmd_center,
    "spectrum": cmd_spectrum,
    "inner": cmd_inner,
    "report": cmd_report,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered output)."""
    code, payload, lines = _DISPATCH[config.command](config)
    if config.out_format == "json":
        return code, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.command == "report":
        return code, payload["markdown"]
    if config.out_format == "markdown":
        title = f"# latticealg {config.command}"
        body = "\n".join(f"- {line}" if not line.startswith(" ") else f"  {line}" for line in lines)
        return code, f"{title}\n\n{body}\n"
    return code, "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = _config_from_args(sys.argv[1:] if argv is None else argv)
        code, output = run(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathViolationError as exc:
        print(f"mathematical violation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, never bad input: exit 3, not 2
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
