"""JSON wire formats.

Scalars travel as exact strings "num/den" (plain ints allowed; floats
rejected so nothing silently loses exactness).  Elements are arrays of
scalars; band projections are flat row-major 0/1 arrays; an algebra file is

    {
      "dim": 3,
      "tensor": [[i, j, k, "num/den"], ...],        # 0-based indices
      "norm": {"kind": "sup"|"one"|"p", "p": ..., "weights": [...]},
      "identity": [...],                              # optional
      "elements": {"name": [...], ...}                # optional
    }

Scalars are parsed by lattice.as_scalar, which refuses floats and malformed
text with an InputError.  algebra_from_dict parses each distinct int or
str scalar of a file once, for the tensor, identity, elements and norm
weights alike.

Command output in JSON is written by dump_json: two-space indent, sorted
keys, ASCII escapes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Union

from .algebra import MAX_DIM, AlgebraSpec
from .errors import InputError
from .lattice import LatticeElement, NormSpec, as_scalar, digit_limit_error, format_scalar

Wire = Union[int, str]


def scalar_to_wire(q: Fraction) -> Wire:
    return q.numerator if q.denominator == 1 else format_scalar(q)


def element_to_wire(x: LatticeElement) -> list[Wire]:
    return [scalar_to_wire(c) for c in x.coords]


def element_from_wire(data: Any) -> LatticeElement:
    return _element(data, as_scalar)


def _element(data: Any, scalar: Callable[[Any], Fraction]) -> LatticeElement:
    if not isinstance(data, list) or not data:
        raise InputError("element must be a nonempty JSON array of scalars")
    return LatticeElement(tuple(scalar(v) for v in data))


def mask_to_wire(n: int, support: Iterable[int]) -> list[Wire]:
    """The 0/1 diagonal mask of R^n on `support`, row-major: 1 at i·(n + 1)
    for i in the support and 0 elsewhere."""
    out: list[Wire] = [0] * (n * n)
    for i in support:
        out[i * (n + 1)] = 1
    return out


def norm_to_wire(spec: NormSpec) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": spec.kind}
    if spec.p is not None:
        out["p"] = scalar_to_wire(spec.p)
    if spec.weights is not None:
        out["weights"] = [scalar_to_wire(w) for w in spec.weights]
    return out


def norm_from_wire(data: Any) -> NormSpec:
    return _norm(data, as_scalar)


def _norm(data: Any, scalar: Callable[[Any], Fraction]) -> NormSpec:
    if data is None:
        return NormSpec()
    if not isinstance(data, dict):
        raise InputError("norm must be a JSON object with a 'kind' field")
    kind = data.get("kind", "sup")
    p = scalar(data["p"]) if "p" in data and data["p"] is not None else None
    weights = None
    if data.get("weights") is not None:
        if not isinstance(data["weights"], list):
            raise InputError(f"norm weights must be a JSON array, got {data['weights']!r}")
        weights = tuple(scalar(w) for w in data["weights"])
    try:
        return NormSpec(kind=kind, p=p, weights=weights)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad norm spec: {exc}") from None


def algebra_to_dict(algebra: AlgebraSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "dim": algebra.dim,
        "tensor": [
            [i, j, k, scalar_to_wire(c)]
            for (i, j, k), c in sorted(algebra.tensor.items())
        ],
        "norm": norm_to_wire(algebra.norm),
    }
    if algebra.name:
        out["name"] = algebra.name
    if algebra.identity is not None:
        out["identity"] = element_to_wire(algebra.identity)
    if algebra.elements:
        out["elements"] = {
            name: element_to_wire(x) for name, x in sorted(algebra.elements.items())
        }
    return out


def _is_int(value: Any) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


def algebra_from_dict(data: Any, default_name: str = "") -> AlgebraSpec:
    """The spec an algebra file's JSON value describes, named default_name
    when the file gives no name (or an empty one).

    Each distinct JSON int or str scalar is parsed once: scalars maps it to
    its Fraction for this load only.  Other values (bools, floats, lists,
    null) are passed to as_scalar at each occurrence, which refuses
    them as it always has.
    """
    scalars: dict[Wire, Fraction] = {}

    def scalar(value: Any) -> Fraction:
        if type(value) is not str and type(value) is not int:
            return as_scalar(value)
        q = scalars.get(value)
        if q is None:
            q = scalars[value] = as_scalar(value)
        return q

    if not isinstance(data, dict):
        raise InputError("algebra file must contain a JSON object")
    dim = data.get("dim")
    if not _is_int(dim):
        raise InputError(f"algebra file needs an integer 'dim' field, got {dim!r}")
    if dim > MAX_DIM:
        raise InputError(f"algebra file's 'dim' is larger than the limit of {MAX_DIM}")
    rows = data.get("tensor", [])
    if not isinstance(rows, list):
        raise InputError(f"'tensor' must be a JSON array of [i, j, k, coeff] rows, got {rows!r}")
    tensor: dict[tuple[int, int, int], Fraction] = {}
    for entry in rows:
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError(f"tensor entry {entry!r} must be [i, j, k, coeff]")
        i, j, k, c = entry
        if not (_is_int(i) and _is_int(j) and _is_int(k)):
            raise InputError(f"tensor indices in {entry!r} must be integers")
        if (i, j, k) in tensor:
            raise InputError(f"tensor entry {entry!r} repeats the indices ({i}, {j}, {k})")
        tensor[(i, j, k)] = scalar(c)
    identity = None
    if data.get("identity") is not None:
        identity = _element(data["identity"], scalar)
    named = data.get("elements") or {}
    if not isinstance(named, dict):
        raise InputError(f"'elements' must be a JSON object of named elements, got {named!r}")
    elements = {}
    for name, coords in named.items():
        elements[str(name)] = _element(coords, scalar)
    return AlgebraSpec(
        dim=dim,
        tensor=tensor,
        norm=_norm(data.get("norm"), scalar),
        identity=identity,
        name=str(data.get("name", "")) or default_name,
        elements=elements,
    )


def load_algebra(path: Union[str, Path]) -> AlgebraSpec:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise InputError(f"{p} is not valid JSON: {exc}") from None
    return algebra_from_dict(data, default_name=p.stem)


def dump_json(value: Any) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte.

    With indent, json falls back to its pure-Python encoder; this writes the
    same text with one join per container.  It takes dicts with str keys,
    lists, tuples, str, int, bool and None, and raises TypeError on anything
    else (floats included: output scalars are exact strings or ints).  An
    int past Python's digit limit raises CapExceededError, so that every
    JSON written here can be read back.
    """
    try:
        return _dump(value, "\n")
    except ValueError:  # int.__repr__ past the digit limit
        raise digit_limit_error() from None


def _dump(value: Any, newline: str) -> str:
    """value as JSON; newline is "\n" plus the indent of the line it starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for v in value:
            # Elements and masks are lists of ints and strs: no call for those.
            if type(v) is int:
                items.append(int.__repr__(v))
            elif type(v) is str:
                items.append(encode_basestring_ascii(v))
            else:
                items.append(_dump(v, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return (
            "{" + inner
            + ("," + inner).join(
                encode_basestring_ascii(k) + ": " + _dump(v, inner)
                for k, v in sorted(value.items())
            )
            + newline + "}"
        )
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_algebra(algebra: AlgebraSpec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(algebra), indent=2) + "\n")
