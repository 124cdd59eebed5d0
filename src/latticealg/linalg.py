"""Small exact linear algebra: solving and rref over Fraction, and the
characteristic polynomial and its factors over the integers.

Matrices are lists of lists of Fraction; polynomials are ascending
coefficient lists.  Everything is written for the small dimensions this
package meets (an algebra file's dim is at most 64); clarity over asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


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
    """Coefficients (ascending) of det(λI − A), computed exactly over ℤ.

    A is cleared to the integer matrix B = D·A, D the lcm of its
    denominators, and the Faddeev–LeVerrier recursion runs on B: M_1 = I,
    b_{n−k} = −tr(B·M_k)/k and M_{k+1} = B·M_k + b_{n−k}·I.  The b_k are the
    coefficients of det(λI − B), integers, so each division by k is exact.
    det(λI − A) = D^(−n)·det(DλI − B), so c_k = b_k / D^(n−k).
    """
    n = len(a)
    d = math.lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    coeffs = [0] * n + [1]
    product = [list(row) for row in b]  # B·M_1
    for k in range(1, n + 1):
        c = -sum(product[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            product[i][i] += c
        columns = list(zip(*product))
        product = [[sum(map(mul, row, col)) for col in columns] for row in b]
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs)]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Evaluate an ascending-coefficient polynomial at a rational point."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(coeffs)][1:] or [0]


def poly_trim(p: Sequence[Fraction]) -> list[Fraction]:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def poly_div_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for integer polynomials, b primitive and dividing a over Q.

    By Gauss's lemma the quotient then has integer coefficients, so every
    step of the long division divides exactly.
    """
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for shift in range(len(q) - 1, -1, -1):
        top, rest = divmod(r[shift + db], lead)
        assert rest == 0, "polynomial division left a fraction"
        q[shift] = top
        for i, c in enumerate(b):
            r[shift + i] -= top * c
    assert not any(r), "polynomial division left a remainder"
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


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive gcd, with positive leading coefficient, of two nonzero
    integer polynomials, by the primitive Euclidean algorithm: each
    remainder is taken on integer multiples and reduced to its primitive
    part, so the coefficients stay near the size of the gcd's instead of
    growing with every step."""
    a, b = _primitive(poly_trim(a)), _primitive(poly_trim(b))
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    return a
