"""Command-line front end.

    latticealg verify|classify|center|spectrum|inner|report
               [target] [--input FILE | --builtin NAME]
               [--element NAME]... [--family NAME]...
               [--gamma "(a,b),(c,d)"] [--grid N]
               [--format text|json|markdown] [--cap N]

The positional target accepts either a path to an algebra JSON file or
"builtin:NAME".  Exit codes are a stable contract: 0 success, 1 a
mathematical law or verification failed (report exits as verify does), 2
bad input, 3 an internal error (a bug in latticealg, reported on one stderr
line).  The environment variable LATTICEALG_CAP overrides the default inner
cap on |Λ|² when --cap is not given.

The command line is read from one table, _OPTIONS, with argparse's grammar
and messages:
- the command comes first; a token before it that looks like an option is
  unrecognized, and -h/--help there prints the usage;
- after it, options and at most one target in any order.  An option takes
  its value as the next token (which must not look like an option: "-1"
  and "-" do not, "-x" does) or after "=" (--grid=3), and may be shortened
  to a prefix that names it alone (--gr 3; --g is ambiguous);
- every token after the first "--" is positional;
- -h or --help prints the fixed usage text USAGE and exits 0 (SystemExit);
- --element and --family repeat, any other option's last value wins;
  --grid and --cap are integers and --format one of its three choices.
A bad command line raises InputError with one line: a missing or unknown
command, an ambiguous prefix (refused before anything else after the
command), an option without its value, a bad integer or choice, and last
the unrecognized tokens.

run() refuses a bad --grid, --cap or LATTICEALG_CAP, loads the algebra
once and passes it, with its builtin metadata (None for a file) and the
RunConfig, to cmd_NAME, which returns the exit code and the values it
computed.  Two renderers read them: NAME_payload for --format json (written
by io.dump_json: two-space indent, sorted keys, ASCII escapes) and
NAME_lines for text, which markdown is built from; run() calls only the one
the format needs.  cmd_report renders the results of cmd_verify,
cmd_classify, cmd_center, cmd_spectrum and cmd_inner, run on configs of its
own, as markdown; report.py holds the formatters the renderers share.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NoReturn, Optional, Sequence, Union

from .algebra import AlgebraSpec, AxiomReport
from .center import CKRepresentation, ck_representation, identity_ideal
from .errors import CapExceededError, InputError, MathViolationError
from .fixtures import BUILTIN_NAMES, BuiltinMeta, builtin, builtin_meta
from .inner import (
    ENUM_CAP_DEFAULT,
    BooleanLawsReport,
    GammaSet,
    ProjectionFamily,
    boolean_laws,
    enumerate_inner,
    inner_bp,
    is_inner,
    validate_family,
)
from .io import dump_json, element_to_wire, load_algebra, mask_to_wire, scalar_to_wire
from .lattice import ApproxReal, LatticeElement, format_real, format_scalar
from .operators import diagonal_mask_operator
from .projections import (
    GRID_POINT_CAP,
    GridHit,
    GridSpec,
    ProjectionClassification,
    check_grid_size,
    classify,
    enumerate_order_idempotents,
    search_band_projections,
)
from .report import (
    fmt_combo,
    fmt_element,
    fmt_gamma,
    fmt_mask,
    fmt_poly,
    fmt_radius,
    fmt_spectrum,
    fmt_subset_count,
)
from .spectra import SpectrumResult, spectrum

COMMANDS = ("verify", "classify", "center", "spectrum", "inner", "report")


@dataclass
class RunConfig:
    """Everything one invocation needs, as given on the command line.

    run() validates the options the command reads before it loads the
    algebra: `grid` for classify, and `cap` for inner, which falls back to
    LATTICEALG_CAP and then to the default when it is None.
    """

    command: str
    input_path: Optional[str] = None
    builtin_name: Optional[str] = None
    elements: list[str] = field(default_factory=list)
    family: list[str] = field(default_factory=list)
    gamma: Optional[str] = None
    grid: int = 2
    out_format: str = "text"
    cap: Optional[int] = None


# The options of every command, in argparse's order (ambiguity messages list
# them so): option → (RunConfig field, int or str, repeatable, choices), and
# None for -h/--help.
_Option = tuple[str, type, bool, Optional[tuple[str, ...]]]
_OPTIONS: dict[str, Optional[_Option]] = {
    "-h": None,
    "--help": None,
    "--input": ("input_path", str, False, None),
    "--builtin": ("builtin_name", str, False, None),
    "--element": ("elements", str, True, None),
    "--family": ("family", str, True, None),
    "--gamma": ("gamma", str, False, None),
    "--grid": ("grid", int, False, None),
    "--format": ("out_format", str, False, ("text", "json", "markdown")),
    "--cap": ("cap", int, False, None),
}
# Before the command only the help is known.
_HELP_OPTIONS = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

USAGE = f"""\
usage: latticealg {{{','.join(COMMANDS)}}} [target] [options]

  verify      check the algebra axioms and identity
  classify    order idempotents, band projections, per-element verdicts
  center      the identity ideal A_e, its atoms and band decomposition
  spectrum    characteristic polynomials and root sets of elements
  inner       inner projections over an orthogonal family
  report      full deterministic markdown report

target: an algebra file path or builtin:NAME
  (builtins: {', '.join(BUILTIN_NAMES)})

options:
  -h, --help                  show this help and exit
  --input FILE                path to an algebra JSON file
  --builtin NAME              name of a builtin algebra
  --element NAME              named element from the algebra file (repeatable)
  --family NAME               member of an orthogonal projection family (repeatable)
  --gamma "(a,b),(c,d)"       index-pair set for inner
  --grid N                    classify: grid resolution N, values k/N (default 2)
  --format text|json|markdown output format (default text)
  --cap N                     inner: largest family size |Λ|² accepted (default 16)

An option is also read as --opt=value or by a unique prefix; after "--"
every token is positional.  Exit codes: 0 success, 1 a law or verification
failed, 2 bad input, 3 internal error.
"""


def _read_option(
    token: str, options: Sequence[str]
) -> Optional[tuple[Optional[str], Optional[str]]]:
    """How argparse reads a token before "--": None for a positional, else
    (the option, or None when it names none; the value given after "=" or
    run together with -h, or None).  Refuses an ambiguous prefix."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    head, eq, value = token.partition("=")
    explicit = value if eq else None
    if eq and head in options:
        return head, explicit
    if token[1] == "-":
        matches = [option for option in options if option.startswith(head)]
        if len(matches) > 1:
            raise InputError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif token[:2] in options:
        return token[:2], token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _help(option: str, value: Optional[str]) -> NoReturn:
    """Print the usage and exit 0; a value given to the help is refused, except
    that -hh… is the help repeated."""
    if option == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        raise InputError(f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(USAGE)
    raise SystemExit(0)


def _config_from_args(argv: Sequence[str]) -> RunConfig:
    """The RunConfig of a command line, or InputError with argparse's message."""
    args = list(argv)
    unknown: list[str] = []
    start = 0
    while start < len(args) and args[start] != "--":
        read = _read_option(args[start], _HELP_OPTIONS)
        if read is None:
            break
        if read[0] is not None:
            _help(*read)
        unknown.append(args[start])
        start += 1
    if args[start:] in ([], ["--"]):
        raise InputError("the following arguments are required: command")
    command, rest = args[start], args[start + 1 :]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise InputError(f"argument command: invalid choice: {command!r} (choose from {choices})")

    # Every token before "--" is read first, so an ambiguous prefix anywhere
    # is refused before any value is.
    cut = rest.index("--") if "--" in rest else len(rest)
    reads = [_read_option(token, _OPTIONS) for token in rest[:cut]]
    last = max((i for i, read in enumerate(reads) if read is not None), default=-1)
    config = RunConfig(command)
    target: Optional[str] = None
    i = 0
    while i <= last:
        read = reads[i]
        if read is None or read[0] is None:
            if read is None and target is None:
                target = rest[i]
            else:
                unknown.append(rest[i])
            i += 1
            continue
        option, value = read
        row = _OPTIONS[option]
        if row is None:
            _help(option, value)
        if value is None:
            if i + 1 >= cut or reads[i + 1] is not None:
                raise InputError(f"argument {option}: expected one argument")
            value = rest[i + 1]
            i += 1
        i += 1
        dest, kind, repeatable, choices = row
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"argument {option}: invalid int value: {value!r}") from None
        if choices is not None and value not in choices:
            listed = ", ".join(map(repr, choices))
            raise InputError(f"argument {option}: invalid choice: {value!r} (choose from {listed})")
        if repeatable:
            getattr(config, dest).append(value)
        else:
            setattr(config, dest, value)
    # Past the last option the target, if still free, is the next token,
    # with the first "--" before or just after it dropped.
    if target is None and i < len(rest):
        if i == cut:
            i += 1
        if i < len(rest):
            target = rest[i]
            i += 1
            if i == cut:
                i += 1
    unknown += rest[i:]
    if unknown:
        raise InputError(f"unrecognized arguments: {' '.join(unknown)}")

    if target:
        if config.input_path or config.builtin_name:
            raise InputError("give either a positional target or --input/--builtin, not both")
        if target.startswith("builtin:"):
            config.builtin_name = target[len("builtin:") :]
        else:
            config.input_path = target
    if config.input_path and config.builtin_name:
        raise InputError("--input and --builtin are mutually exclusive")
    return config


def _inner_cap(config: RunConfig) -> int:
    """--cap, else LATTICEALG_CAP, else the default; it must be positive."""
    cap = config.cap
    if cap is None:
        env = os.environ.get("LATTICEALG_CAP")
        if env is None:
            return ENUM_CAP_DEFAULT
        try:
            cap = int(env)
        except ValueError:
            raise InputError(f"LATTICEALG_CAP must be an integer, got {env!r}") from None
    if cap <= 0:
        raise InputError("cap must be positive")
    return cap


def _check_options(config: RunConfig) -> None:
    """Refuse a bad --grid, --cap or LATTICEALG_CAP before the algebra is loaded."""
    if config.command == "classify" and config.grid <= 0:
        raise InputError("grid resolution must be positive")
    if config.command == "inner":
        _inner_cap(config)


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


def _header(algebra: AlgebraSpec) -> str:
    return f"algebra: {algebra.name or '<unnamed>'} (dim {algebra.dim})"


# The algebra and its axiom report.
_Verified = tuple[AlgebraSpec, AxiomReport]


def cmd_verify(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[int, _Verified]:
    report = algebra.verify_axioms()
    return (0 if report.ok else 1), (algebra, report)


def verify_payload(result: _Verified) -> dict[str, Any]:
    algebra, report = result
    return {
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


def _norm_one_word(norm_one: Optional[bool]) -> str:
    """‖e‖ = 1 as printed: yes, no, or unknown when the norm is inexact."""
    return "unknown" if norm_one is None else "yes" if norm_one else "no"


def verify_lines(result: _Verified) -> list[str]:
    algebra, report = result
    lines = [
        _header(algebra),
        f"tensor nonnegativity: {'pass' if report.nonnegative else 'FAIL ' + str(report.negative_entries[:3])}",
        f"associativity: {'pass' if report.associative else 'FAIL ' + str(report.associativity_failures[:3])}",
    ]
    if report.identity is not None:
        lines.append(f"identity: {fmt_element(report.identity)}")
        lines.append(
            f"  laws: {'pass' if report.identity_laws_ok else 'FAIL'}; positive: "
            f"{'yes' if report.identity_positive else 'NO'}; norm one: "
            f"{_norm_one_word(report.identity_norm_one)}"
        )
    else:
        lines.append("identity: none")
    lines.append(
        f"norm submultiplicativity: {report.submultiplicativity}"
        f" — {report.submultiplicativity_detail}"
    )
    lines.append(f"result: {'PASS' if report.ok else 'FAIL'}")
    return lines


# The algebra, the grid, the order idempotents (None without identity), the
# grid hits, and (name, element, verdicts) for each named element.
_Classified = tuple[
    AlgebraSpec,
    GridSpec,
    Optional[list[LatticeElement]],
    list[GridHit],
    list[tuple[str, LatticeElement, ProjectionClassification]],
]


def cmd_classify(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[int, _Classified]:
    check_grid_size(config.grid + 1, algebra.dim)
    grid = GridSpec.from_resolution(config.grid)
    # The grid search runs first: 2^m ≤ (N+1)^dim for the m atoms of A_e,
    # so its cap also bounds the enumeration of the 2^m order idempotents.
    hits = search_band_projections(algebra, grid)
    oi = enumerate_order_idempotents(algebra) if algebra.has_identity() else None
    named = [
        (name, x, classify(algebra, x)) for name, x in _named_elements(algebra, config.elements)
    ]
    return 0, (algebra, grid, oi, hits, named)


def _fmt_grid(grid: GridSpec) -> str:
    return "{" + ", ".join(format_scalar(v) for v in grid.values) + "}"


def _two_sided(hits: list[GridHit], rendered: list) -> list:
    """The rendered hits in BP_l ∩ BP_r, so that each hit is rendered once."""
    return [r for r, hit in zip(rendered, hits) if None not in (hit.left, hit.right)]


def classify_payload(result: _Classified) -> dict[str, Any]:
    algebra, grid, oi, hits, named = result
    wires = [element_to_wire(hit.element) for hit in hits]
    return {
        "name": algebra.name,
        "dim": algebra.dim,
        "order_idempotents": None if oi is None else [element_to_wire(p) for p in oi],
        "grid": [format_scalar(v) for v in grid.values],
        "band_projections_on_grid": wires,
        "left_and_right_on_grid": _two_sided(hits, wires),
        "elements": {
            name: {
                "coords": element_to_wire(x),
                "nonnegative": c.nonnegative,
                "is_oi": c.is_oi,
                "is_bp": c.is_bp,
                "is_left_bp": c.is_left_bp,
                "is_right_bp": c.is_right_bp,
            }
            for name, x, c in named
        },
    }


def classify_lines(result: _Classified) -> list[str]:
    algebra, grid, oi, hits, named = result
    lines = [_header(algebra)]
    if oi is None:
        lines.append("order idempotents: not applicable (no identity)")
    else:
        lines.append(f"order idempotents ({len(oi)}, complete):")
        lines += [f"  {fmt_element(p)}" for p in oi]
    grid_str = _fmt_grid(grid)
    texts = [f"  {fmt_element(hit.element)}" for hit in hits]
    core = _two_sided(hits, texts)
    lines.append(f"band projections over grid {grid_str} ({len(hits)} certified):")
    lines += texts
    lines.append(f"left-and-right band projections among them ({len(core)}):")
    lines += core
    if named:
        lines.append("named elements:")
    for name, x, c in named:
        oi_str = "n/a" if c.is_oi is None else ("yes" if c.is_oi else "no")
        lines.append(
            f"  {name} = {fmt_element(x)}: OI {oi_str} / BP {'yes' if c.is_bp else 'no'}"
            f" / left {'yes' if c.is_left_bp else 'no'} / right {'yes' if c.is_right_bp else 'no'}"
        )
    return lines


# The algebra, its atoms, the supports of A_e and of the complement band, and
# a demo element with its parts in A_e and in the complement band.
_Centered = tuple[AlgebraSpec, CKRepresentation, list[int], list[int], tuple[LatticeElement, ...]]


def cmd_center(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[int, _Centered]:
    basis = identity_ideal(algebra)
    rep = ck_representation(algebra)
    inside = basis.sorted_support()
    outside = [i for i in range(algebra.dim) if i not in basis.support]
    demo = LatticeElement(
        tuple(Fraction((-1) ** i * (i + 1)) for i in range(algebra.dim))
    )
    demo_e = basis.project(demo)
    return 0, (algebra, rep, inside, outside, (demo, demo_e, demo - demo_e))


def center_payload(result: _Centered) -> dict[str, Any]:
    algebra, rep, inside, outside, (demo, demo_e, demo_d) = result
    return {
        "name": algebra.name,
        "support": inside,
        "complement_support": outside,
        "atoms": [element_to_wire(a) for a in rep.atoms],
        "band_projection": mask_to_wire(algebra.dim, inside),
        "decomposition_demo": {
            "x": element_to_wire(demo),
            "x_e": element_to_wire(demo_e),
            "x_d": element_to_wire(demo_d),
        },
    }


def center_lines(result: _Centered) -> list[str]:
    algebra, rep, inside, outside, (demo, demo_e, demo_d) = result
    lines = [
        _header(algebra),
        f"A_e support coordinates: {', '.join(map(str, inside))}",
        f"complement band coordinates: {', '.join(map(str, outside)) if outside else '(none)'}",
        f"atoms ({rep.n_points} points of K):",
    ]
    lines += [f"  {fmt_element(a)}" for a in rep.atoms]
    lines.append(f"band projection onto A_e: {fmt_mask(algebra.dim, inside)}")
    lines.append(
        f"decomposition demo: x = {fmt_element(demo)} splits as x_e = {fmt_element(demo_e)}"
        f" plus x_d = {fmt_element(demo_d)} (x_d disjoint from e)"
    )
    return lines


# The algebra and, per named element, its spectrum and spectral radius.
_Spectra = tuple[
    AlgebraSpec,
    list[tuple[str, LatticeElement, SpectrumResult, Union[Fraction, ApproxReal]]],
]


def cmd_spectrum(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[int, _Spectra]:
    names = config.elements
    if not names and meta is not None and meta.spectrum_elements:
        names = [n for n in meta.spectrum_elements if n in algebra.elements]
    named = _named_elements(algebra, names)
    if not named:
        raise InputError("no elements to analyze: the algebra file names none and no --element given")
    spectra = []
    for name, x in named:
        result = spectrum(algebra, x)
        spectra.append((name, x, result, result.spectral_radius()))
    return 0, (algebra, spectra)


def spectrum_payload(result: _Spectra) -> dict[str, Any]:
    algebra, spectra = result
    elements: dict[str, Any] = {}
    for name, x, spec, radius in spectra:
        entry: dict[str, Any] = {
            "coords": element_to_wire(x),
            "char_poly": [scalar_to_wire(c) for c in spec.char_poly],
            "rational_roots": [
                {"root": scalar_to_wire(r), "multiplicity": m} for r, m in spec.rational_roots
            ],
            "numeric_roots": [
                {
                    "re": format_real(root.re),
                    "im": format_real(root.im),
                    "radius": repr(root.radius),
                    "multiplicity": root.multiplicity,
                }
                for root in spec.other_roots
            ],
        }
        if isinstance(radius, Fraction):
            entry["spectral_radius"] = scalar_to_wire(radius)
        else:
            entry["spectral_radius"] = {"value": repr(radius.value), "error": repr(radius.error)}
        elements[name] = entry
    return {"name": algebra.name, "elements": elements}


def spectrum_lines(result: _Spectra) -> list[str]:
    algebra, spectra = result
    lines = [_header(algebra)]
    for name, x, spec, radius in spectra:
        lines += [
            f"{name} = {fmt_element(x)}:",
            f"  char poly: {fmt_poly(spec.char_poly)}",
            f"  spectrum: {fmt_spectrum(spec)}",
            f"  spectral radius: {fmt_radius(radius)}",
        ]
    return lines


# The algebra, the member names, the family, the distinct (Γ, supp P_Γ); for
# --gamma: Γ, supp P_Γ, the complement Γ̄ and the laws against it (else None);
# and per named mask its name, its support and a witness Γ (None: not inner).
_Inner = tuple[
    AlgebraSpec,
    list[str],
    ProjectionFamily,
    list[tuple[GammaSet, frozenset[int]]],
    Optional[tuple[GammaSet, frozenset[int], GammaSet, BooleanLawsReport]],
    list[tuple[str, frozenset[int], Optional[GammaSet]]],
]


def cmd_inner(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[int, _Inner]:
    cap = _inner_cap(config)
    names, members = _resolve_family(algebra, meta, config)
    family = validate_family(algebra, members)
    enumerated = enumerate_inner(algebra, family, cap=cap)
    chosen = None
    if config.gamma is not None:
        gamma = _parse_gamma(config.gamma, len(family))
        support = inner_bp(algebra, family, gamma)
        comp = gamma.complement()
        chosen = (gamma, support, comp, boolean_laws(algebra, family, gamma, comp))
    verdicts = []
    for name, x in _named_elements(algebra, config.elements):
        mask = diagonal_mask_operator(x)
        if mask is None or x.is_zero():
            continue
        verdicts.append((name, x.support(), is_inner(algebra, family, mask)))
    return 0, (algebra, names, family, enumerated, chosen, verdicts)


def inner_payload(result: _Inner) -> dict[str, Any]:
    algebra, names, family, enumerated, chosen, verdicts = result
    payload: dict[str, Any] = {
        "name": algebra.name,
        "family": {n: element_to_wire(x) for n, x in zip(names, family.members)},
        "family_names": names,
        "family_valid": True,
        "distinct_inner": [
            {"gamma": gamma.pairs, "matrix": mask_to_wire(algebra.dim, support)}
            for gamma, support in enumerated
        ],
        "is_inner": {
            name: None if witness is None else witness.pairs
            for name, _, witness in verdicts
        },
    }
    if chosen is not None:
        gamma, support, _comp, laws = chosen
        payload["gamma"] = gamma.pairs
        payload["gamma_projection"] = mask_to_wire(algebra.dim, support)
        payload["boolean_laws_vs_complement_ok"] = laws.ok
    return payload


def inner_lines(result: _Inner) -> list[str]:
    algebra, names, family, enumerated, chosen, verdicts = result
    lines = [
        _header(algebra),
        f"family ({len(family)} members): valid — orthogonal, all in BP_l ∩ BP_r",
    ]
    lines += [f"  {n} = {fmt_element(x)}" for n, x in zip(names, family.members)]
    subsets = fmt_subset_count(len(family))
    lines.append(f"distinct inner projections: {len(enumerated)} out of {subsets} Γ-subsets")
    lines += [
        f"  Γ = {fmt_gamma(gamma)} ↦ {fmt_mask(algebra.dim, support)}"
        for gamma, support in enumerated
    ]
    if chosen is not None:
        gamma, support, comp, laws = chosen
        lines.append(f"P_Γ for Γ = {fmt_gamma(gamma)}: {fmt_mask(algebra.dim, support)}")
        lines.append(
            f"Boolean laws against the complement Γ̄ = {fmt_gamma(comp)}: "
            f"{'pass' if laws.ok else 'FAIL'}"
        )
    for name, support, witness in verdicts:
        verdict_str = (
            f"inner via Γ = {fmt_gamma(witness)}" if witness is not None else "NOT inner"
        )
        lines.append(f"{name} as mask {fmt_mask(algebra.dim, support)}: {verdict_str}")
    return lines


def _labels(algebra: AlgebraSpec, meta: Optional[BuiltinMeta]) -> list[str]:
    if meta is not None and len(meta.basis_labels) == algebra.dim:
        return list(meta.basis_labels)
    return [f"b{i}" for i in range(algebra.dim)]


def cmd_report(
    algebra: AlgebraSpec, meta: Optional[BuiltinMeta], config: RunConfig
) -> tuple[int, str]:
    """One markdown document: the structure of the algebra, then the results
    of verify, classify on the grid {0, 1/2, 1}, center, spectrum and inner,
    each on a config of its own.  The exit code is verify's; a section that
    refuses the algebra raises, as its command does."""
    # The band projection section walks this fixed grid, and its cap also
    # bounds the 2^m order idempotents listed (2^m ≤ 3^dim); refuse first,
    # naming the report's grid rather than a --grid.
    grid = GridSpec.from_resolution(2)
    grid_str = _fmt_grid(grid)
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

    code, (_, report) = cmd_verify(algebra, meta, RunConfig("verify"))
    lines += [
        "## Axioms",
        "",
        f"- tensor nonnegativity: {'pass' if report.nonnegative else 'FAIL'}",
        f"- associativity on basis triples: {'pass' if report.associative else 'FAIL'}",
    ]
    if report.identity is not None:
        lines.append(
            f"- identity: {fmt_element(report.identity)} — laws "
            f"{'pass' if report.identity_laws_ok else 'FAIL'}, positive: "
            f"{'yes' if report.identity_positive else 'no'}, norm one: "
            f"{_norm_one_word(report.identity_norm_one)}"
        )
    else:
        lines.append("- identity: none exists")
    lines.append(
        f"- norm submultiplicativity: {report.submultiplicativity}"
        f" ({report.submultiplicativity_detail})"
    )
    lines.append("")

    _, (_, _, oi, hits, _) = cmd_classify(algebra, meta, RunConfig("classify", grid=2))
    if oi is not None:
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
    oi_members = set(oi or ())
    for p, left, right in hits:
        tags = []
        if p in oi_members:
            tags.append("order idempotent")
        if None not in (left, right):
            tags.append("left+right")
        lines.append(f"- {fmt_element(p)}" + (f" — {', '.join(tags)}" if tags else ""))
    lines.append("")

    if oi is not None:
        _, (_, rep, inside, outside, _) = cmd_center(algebra, meta, RunConfig("center"))
        lines += [
            "## Identity ideal A_e",
            "",
            f"- support: {', '.join(labels[i] for i in inside)}",
            "- complement band support: "
            + (", ".join(labels[i] for i in outside) if outside else "(trivial)"),
            f"- atoms ({rep.n_points} points):",
        ]
        lines += [f"  - {fmt_element(a)}" for a in rep.atoms]
        lines.append("")

    if oi is not None and algebra.elements:
        lines += ["## Spectra", ""]
        _, (_, spectra) = cmd_spectrum(algebra, meta, RunConfig("spectrum"))
        for name, x, result, radius in spectra:
            lines += [
                f"### {name} = {fmt_element(x)}",
                "",
                f"- char poly of the left-multiplication matrix: {fmt_poly(result.char_poly)}",
                f"- spectrum: {fmt_spectrum(result)}",
                f"- spectral radius: {fmt_radius(radius)}",
                "",
            ]

    if meta is not None and any(n in algebra.elements for n in meta.default_family):
        _, (_, names, family, enumerated, _, verdicts) = cmd_inner(
            algebra, meta, RunConfig("inner", cap=ENUM_CAP_DEFAULT)
        )
        lines += [
            f"## Inner projections over the family ({', '.join(names)})",
            "",
            f"- family of {len(family)} orthogonal left-and-right band projections",
            f"- distinct inner projections: {len(enumerated)} out of "
            f"{fmt_subset_count(len(family))} Γ-subsets:",
        ]
        for gamma, support in enumerated:
            lines.append(f"  - Γ = {fmt_gamma(gamma)} ↦ {fmt_mask(algebra.dim, support)}")
        if verdicts:
            lines.append("- named 0/1 masks as band projection operators:")
        for name, support, witness in verdicts:
            verdict = f"inner via Γ = {fmt_gamma(witness)}" if witness is not None else "not inner"
            lines.append(f"  - {name}: mask {fmt_mask(algebra.dim, support)} — {verdict}")
        lines.append("")

    return code, "\n".join(lines).rstrip("\n") + "\n"


def build_report(algebra: AlgebraSpec, meta: Optional[BuiltinMeta] = None) -> str:
    """The markdown document `latticealg report` prints for the algebra."""
    return cmd_report(algebra, meta, RunConfig("report"))[1]


# command: (computation, JSON renderer, text renderer).  The report is
# markdown already and is printed as it is in text and markdown: no lines.
_DISPATCH: dict[str, tuple[Callable, Callable, Optional[Callable]]] = {
    "verify": (cmd_verify, verify_payload, verify_lines),
    "classify": (cmd_classify, classify_payload, classify_lines),
    "center": (cmd_center, center_payload, center_lines),
    "spectrum": (cmd_spectrum, spectrum_payload, spectrum_lines),
    "inner": (cmd_inner, inner_payload, inner_lines),
    "report": (cmd_report, lambda doc: {"markdown": doc}, None),
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit_code, rendered output)."""
    compute, payload, render_lines = _DISPATCH[config.command]
    _check_options(config)
    if config.command == "report" and not (config.builtin_name or config.input_path):
        # No target: the report of every builtin, separated by rules.
        reports = [cmd_report(builtin(n), builtin_meta(n), config) for n in BUILTIN_NAMES]
        code = max(verdict for verdict, _ in reports)
        result = "\n---\n\n".join(doc for _, doc in reports)
    else:
        algebra, meta = _resolve_algebra(config)
        code, result = compute(algebra, meta, config)
    if config.out_format == "json":
        return code, dump_json(payload(result)) + "\n"
    if render_lines is None:
        return code, result
    lines = render_lines(result)
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
