"""Small exact linear algebra over Fraction: solving, rref, char poly helpers.

Everything operates on lists of lists of Fraction and is written for the tiny
dimensions this package meets (n ≤ 12 or so); clarity over asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "inner dimensions must agree"
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != 0:
                    oi[j] += c * bt[j]
    return out


def trace(a: Sequence[Sequence[Fraction]]) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def rref(aug: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form in place; returns (matrix, pivot column list)."""
    rows = len(aug)
    cols = len(aug[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return aug, pivots


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of A·x = b (free variables set to 0), or None.

    Accepts rectangular (overdetermined) systems; None means inconsistent.
    """
    rows = len(a)
    if rows != len(b):
        raise AssertionError("rhs length mismatch")
    cols = len(a[0]) if rows else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if cols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def char_poly_monic(a: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Coefficients (ascending) of det(λI − A), computed exactly.

    Faddeev–LeVerrier recursion: M_1 = A, c_{n-k} = −tr(A·M_k)/k with
    M_{k+1} = A·M_k + c_{n-k}·I.  Division only by integers, so exact over Q.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    am = [list(row) for row in a]
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -trace(am) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Evaluate an ascending-coefficient polynomial at a rational point."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_divmod_linear(coeffs: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    """Exact synthetic division of p by (x − root); requires p(root) = 0."""
    quotient: list[Fraction] = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * root + c
        quotient.append(acc)
    remainder = quotient.pop()
    assert remainder == 0, "division by (x - root) with nonzero remainder"
    quotient.reverse()
    return quotient


def poly_derivative(coeffs: Sequence[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def poly_trim(p: Sequence[Fraction]) -> list[Fraction]:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Exact polynomial long division: a = q·b + r with deg r < deg b."""
    r = poly_trim(a)
    d = poly_trim(b)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    db, lead = len(d) - 1, d[-1]
    q = [Fraction(0)] * max(len(r) - db, 0)
    while len(r) - 1 >= db and r:
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        q[shift] = factor
        for i, c in enumerate(d):
            r[shift + i] -= factor * c
        r = poly_trim(r)
    return poly_trim(q), r


def poly_div_exact(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    q, r = poly_divmod(a, b)
    assert not r, "polynomial division left a remainder"
    return q


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their content, signed to make the last one positive."""
    content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // content for c in ints]


def integer_poly(coeffs: Sequence[Fraction]) -> list[int]:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of coeffs (trimmed, nonzero)."""
    denom = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (denom // c.denominator) for c in coeffs])


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of a mod b, trimmed."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and r:
        shift, top = len(r) - 1 - db, r[-1]
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over Q by the primitive Euclidean algorithm: each remainder is
    taken on integer multiples and reduced to its primitive part, so the
    coefficients stay near the size of the gcd's instead of growing with
    every step as they do over Fraction."""
    fa, fb = poly_trim(a), poly_trim(b)
    if not fa or not fb:
        rest = fa or fb
        return [c / rest[-1] for c in rest] if rest else []
    ia, ib = integer_poly(fa), integer_poly(fb)
    while ib:
        ia, ib = ib, _pseudo_remainder(ia, ib)
        if ib:
            ib = _primitive(ib)
    return [Fraction(c, ia[-1]) for c in ia]
