"""Independent answers for every op, computed outside the timed region.

Nothing here calls the package.  Products come straight from the
generated tensor, and each check rests on a fact that the layer under test
did not produce:

- classify: on a coordinatewise R^n, 0 <= M <= I and M^2 = M hold exactly
  when M is a 0/1 diagonal, so a is a band projection iff a*b_q*a is 0 or
  b_q for every basis vector b_q (and likewise a*b_q, b_q*a for the
  one-sided classes).  Order idempotents are the 2^m sums of the atoms of
  the identity that the generator built.
- inner: each summand x -> p_a*x*p_b is a 0/1 mask; the distinct inner
  projections are the 2^k unions of the k nonzero summand supports, and a
  mask is inner iff its support is such a union.
- spectrum: sympy's characteristic polynomial, factorization over Q and
  real-root count; an inverse is checked by multiplying it back.
- audit: verify must pass on algebras built from valid blocks, with the
  identity the generator built; rk_oracle must equal the entrywise
  supremum of L_a and R_b applied to x (op_sup, computed here).

``check`` returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from typing import Optional

from generate import GenAlgebra, Op

F = Fraction


class GeneratorError(Exception):
    """The generated input breaks a property the references rely on."""


def parse_wire(v) -> Fraction:
    return F(v) if isinstance(v, int) else F(str(v))


def vec(values) -> tuple[Fraction, ...]:
    return tuple(parse_wire(v) for v in values)


class Products:
    """Sparse products of a generated algebra, from its tensor alone."""

    def __init__(self, alg: GenAlgebra) -> None:
        self.n = alg.dim
        self.by_first: dict[int, list] = {}
        self.by_second: dict[int, list] = {}
        for (i, j, k), c in alg.tensor.items():
            self.by_first.setdefault(i, []).append((j, k, c))
            self.by_second.setdefault(j, []).append((i, k, c))

    def mul(self, x, y) -> tuple[Fraction, ...]:
        out = [F(0)] * self.n
        for i, xi in enumerate(x):
            if xi:
                for j, k, c in self.by_first.get(i, ()):
                    if y[j]:
                        out[k] += xi * y[j] * c
        return tuple(out)

    def left_col(self, a, q) -> list[Fraction]:
        """a * b_q."""
        out = [F(0)] * self.n
        for i, k, c in self.by_second.get(q, ()):
            if a[i]:
                out[k] += a[i] * c
        return out

    def right_col(self, q, a) -> list[Fraction]:
        """b_q * a."""
        out = [F(0)] * self.n
        for j, k, c in self.by_first.get(q, ()):
            if a[j]:
                out[k] += a[j] * c
        return out

    def is_mask_column(self, col, q) -> Optional[bool]:
        """True if col = b_q, False if col = 0, None otherwise."""
        if all(v == 0 for v in col):
            return False
        if col[q] == 1 and all(v == 0 for t, v in enumerate(col) if t != q):
            return True
        return None

    def bp(self, a) -> bool:
        """a >= 0 and x -> a*x*a is a 0/1 diagonal."""
        if any(v < 0 for v in a):
            return False
        for q in range(self.n):
            if self.is_mask_column(self.mul(self.left_col(a, q), a), q) is None:
                return False
        return True

    def left_bp(self, a) -> bool:
        return all(v >= 0 for v in a) and all(
            self.is_mask_column(self.left_col(a, q), q) is not None for q in range(self.n)
        )

    def right_bp(self, a) -> bool:
        return all(v >= 0 for v in a) and all(
            self.is_mask_column(self.right_col(q, a), q) is not None for q in range(self.n)
        )

    def left_matrix(self, a) -> list[list[Fraction]]:
        """L_a with rows = output coordinates."""
        m = [[F(0)] * self.n for _ in range(self.n)]
        for q in range(self.n):
            for k, v in enumerate(self.left_col(a, q)):
                m[k][q] = v
        return m

    def right_matrix(self, b) -> list[list[Fraction]]:
        m = [[F(0)] * self.n for _ in range(self.n)]
        for q in range(self.n):
            for k, v in enumerate(self.right_col(q, b)):
                m[k][q] = v
        return m


def _split(op: Op, text: str) -> tuple[dict, Optional[dict]]:
    if op.call:
        body, _, last = text.rstrip("\n").rpartition("\n")
        return json.loads(body), json.loads(last)
    return json.loads(text), None


def _vecs(values) -> list[tuple[Fraction, ...]]:
    return [vec(v) for v in values]


def _order_idempotents(alg: GenAlgebra, pr: Products):
    e = alg.identity
    support = [j for j in range(alg.dim) if e[j] != 0]
    out = []
    for bits in product((0, 1), repeat=len(support)):
        p = [F(0)] * alg.dim
        for b, j in zip(bits, support):
            if b:
                p[j] = e[j]
        p = tuple(p)
        if pr.mul(p, p) != p:
            raise GeneratorError(f"atom sum {p} of {alg.name} is not idempotent")
        out.append(p)
    return sorted(out)


def check_classify(alg: GenAlgebra, op: Op, out: dict) -> Optional[str]:
    pr = Products(alg)
    n_grid = int(op.argv[op.argv.index("--grid") + 1])
    values = [F(k, n_grid) for k in range(n_grid + 1)]
    hits = [a for a in product(values, repeat=alg.dim) if pr.bp(a)]
    core = [a for a in hits if pr.left_bp(a) and pr.right_bp(a)]
    if _vecs(out["band_projections_on_grid"]) != hits:
        return f"grid band projections differ ({len(out['band_projections_on_grid'])} vs {len(hits)})"
    if _vecs(out["left_and_right_on_grid"]) != core:
        return "left-and-right band projections differ"
    if alg.identity is None:
        if out["order_idempotents"] is not None:
            return "order idempotents reported without an identity"
    elif _vecs(out["order_idempotents"]) != _order_idempotents(alg, pr):
        return "order idempotents differ"
    names = [op.argv[i + 1] for i, a in enumerate(op.argv) if a == "--element"]
    for name in names:
        x = tuple(alg.elements[name])
        nonneg = all(v >= 0 for v in x)
        if alg.identity is None:
            oi = None
        else:
            e = alg.identity
            oi = nonneg and all(ei >= xi for ei, xi in zip(e, x)) and pr.mul(x, x) == x
        want = {
            "nonnegative": nonneg, "is_oi": oi, "is_bp": pr.bp(x),
            "is_left_bp": pr.left_bp(x), "is_right_bp": pr.right_bp(x),
        }
        got = out["elements"][name]
        for key, value in want.items():
            if got[key] != value:
                return f"element {name}: {key} is {got[key]}, expected {value}"
    return None


def _family_pairs(size: int) -> list[tuple[int, int]]:
    return sorted(product(range(size), repeat=2))


def check_inner(alg: GenAlgebra, op: Op, out: dict) -> Optional[str]:
    pr = Products(alg)
    family = [op.argv[i + 1] for i, a in enumerate(op.argv) if a == "--family"]
    members = [tuple(alg.elements[n]) for n in family]
    pairs = _family_pairs(len(members))
    supports: list[frozenset[int]] = []
    for a, b in pairs:
        support = set()
        for q in range(alg.dim):
            col = pr.mul(pr.left_col(members[a], q), members[b])
            kind = pr.is_mask_column(col, q)
            if kind is None:
                raise GeneratorError(f"summand ({a},{b}) of {alg.name} is not a mask")
            if kind:
                support.add(q)
        supports.append(frozenset(support))
    nonzero = [t for t, s in enumerate(supports) if s]
    for s, t in product(nonzero, repeat=2):
        if s < t and supports[s] & supports[t]:
            raise GeneratorError(f"summand supports of {alg.name} overlap")

    def mask(ts) -> list[Fraction]:
        union = set().union(*(supports[t] for t in ts))
        return [F(int(i == j and i in union)) for i in range(alg.dim) for j in range(alg.dim)]

    subsets = [
        [t for b, t in zip(bits, nonzero) if b] for bits in product((0, 1), repeat=len(nonzero))
    ]
    subsets.sort(key=lambda ts: sum(1 << t for t in ts))
    want = [([list(pairs[t]) for t in ts], mask(ts)) for ts in subsets]
    got = [(entry["gamma"], list(vec(entry["matrix"]))) for entry in out["distinct_inner"]]
    if got != want:
        return f"distinct inner projections differ ({len(got)} vs {len(want)} = 2^{len(nonzero)})"
    if {n: list(vec(v)) for n, v in out["family"].items()} != {
        n: list(alg.elements[n]) for n in family
    } or out["family_valid"] is not True:
        return "family differs"
    if "--gamma" in op.argv:
        text = op.argv[op.argv.index("--gamma") + 1]
        gamma = sorted({tuple(int(v) for v in p.strip("()").split(",")) for p in text.split("),(")
                        if p.strip("()")})
        ts = [pairs.index(p) for p in gamma]
        if out["gamma"] != [list(p) for p in gamma] or list(vec(out["gamma_projection"])) != mask(ts):
            return "P_gamma differs"
        if out["boolean_laws_vs_complement_ok"] is not True:
            return "Boolean laws reported as failing"
    for i, a in enumerate(op.argv):
        if a != "--element":
            continue
        name = op.argv[i + 1]
        support = {j for j, v in enumerate(alg.elements[name]) if v}
        inside = [t for t in nonzero if supports[t] <= support]
        covered = set().union(*(supports[t] for t in inside))
        expected = [list(pairs[t]) for t in inside] if covered == support else None
        if out["is_inner"].get(name) != expected:
            return f"is_inner({name}) is {out['is_inner'].get(name)}, expected {expected}"
    return None


def check_spectrum(alg: GenAlgebra, op: Op, out: dict, call: dict) -> Optional[str]:
    import sympy

    pr = Products(alg)
    lam = sympy.Symbol("lam")
    n = alg.dim
    for name, result in out["elements"].items():
        a = tuple(alg.elements[name])
        la = sympy.Matrix(pr.left_matrix(a)).applyfunc(sympy.Rational)
        poly = la.charpoly(lam)  # det(lam*I - L_a)
        sign = (-1) ** n
        want_char = [F(str(c)) * sign for c in reversed(poly.all_coeffs())]
        if list(vec(result["char_poly"])) != want_char:
            return f"{name}: characteristic polynomial differs"
        _, factors = sympy.factor_list(poly.as_expr(), lam)
        roots: dict[Fraction, int] = {}
        other_degree = real_other = 0
        moduli = []  # |root| of each irrational root
        for f, m in factors:
            fp = sympy.Poly(f, lam)
            if fp.degree() == 1:
                c1, c0 = fp.all_coeffs()
                r = F(str(-c0 / c1))
                roots[r] = roots.get(r, 0) + m
            else:
                other_degree += fp.degree() * m
                real_other += fp.count_roots() * m
                moduli += [abs(complex(z)) for z in fp.nroots(n=30)]
        got_roots = [(parse_wire(r["root"]), r["multiplicity"]) for r in result["rational_roots"]]
        if got_roots != sorted(roots.items()):
            return f"{name}: rational roots differ"
        numeric = result["numeric_roots"]
        if sum(r["multiplicity"] for r in numeric) != other_degree:
            return f"{name}: numeric root count differs"
        real = sum(r["multiplicity"] for r in numeric if abs(float(r["im"])) <= float(r["radius"]))
        if real != real_other:
            return f"{name}: {real} real irrational roots, sympy counts {real_other}"
        radius = result["spectral_radius"]
        if not numeric:
            if parse_wire(radius) != max(abs(r) for r in roots):
                return f"{name}: spectral radius differs"
        else:
            exact = max(moduli + [float(abs(r)) for r in roots])
            value = float(radius["value"]) if isinstance(radius, dict) else float(parse_wire(radius))
            err = float(radius["error"]) if isinstance(radius, dict) else 0.0
            if abs(value - exact) > err + 1e-9 * max(1.0, exact):
                return f"{name}: spectral radius {value} far from {exact}"
        inverse = call[name]
        singular = la.det() == 0
        if inverse is None:
            if not singular:
                return f"{name}: invertible element reported as not invertible"
        else:
            inv = vec(inverse)
            e = tuple(alg.identity)
            if pr.mul(a, inv) != e or pr.mul(inv, a) != e:
                return f"{name}: returned inverse does not multiply back to e"
    return None


def check_audit(alg: GenAlgebra, op: Op, out: dict, call: Optional[dict]) -> Optional[str]:
    pr = Products(alg)
    unital = alg.identity is not None
    u = tuple(1 / w for w in alg.weights)
    uu = pr.mul(u, u)
    want = {
        "ok": True, "nonnegative": True, "associative": True, "negative_entries": [],
        "associativity_failures": [], "dim": alg.dim,
        "identity_laws_ok": True if unital else None,
        "identity_positive": True if unital else None,
        "identity_norm_one": True if unital else None,
        "submultiplicativity": "proved" if all(a <= b for a, b in zip(uu, u)) else "unknown",
    }
    for key, value in want.items():
        if out[key] != value:
            return f"verify: {key} is {out[key]!r}, expected {value!r}"
    identity = None if out["identity"] is None else list(vec(out["identity"]))
    if identity != alg.identity:
        return "verify: identity differs from the constructed one"
    if call is not None:
        el = alg.elements
        lm, rm = pr.left_matrix(el["a"]), pr.right_matrix(el["b"])
        x = el["x"]
        sup = [
            sum((max(lm[k][i], rm[k][i]) * x[i] for i in range(alg.dim)), F(0))
            for k in range(alg.dim)
        ]
        if list(vec(call["rk_oracle"])) != sup:
            return "rk_oracle differs from op_sup(L_a, R_b)(x)"
    return None


def check(workload: str, alg: GenAlgebra, op: Op, text: str) -> Optional[str]:
    """None if `text` (the op's output) is right, else the reason it is not."""
    try:
        out, call = _split(op, text)
    except (ValueError, KeyError) as exc:
        return f"unparsable output: {exc}"
    try:
        if workload == "classify-grid":
            return check_classify(alg, op, out)
        if workload == "inner":
            return check_inner(alg, op, out)
        if workload == "spectrum":
            return check_spectrum(alg, op, out, call)
        return check_audit(alg, op, out, call)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
