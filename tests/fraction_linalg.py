"""A Fraction Gauss–Jordan elimination: the tests' reference for the
library's integer solve.

It reads nothing from latticealg, so a test that solves a system with it
checks linalg.solve (fraction-free, on integer rows) from outside.
"""

from fractions import Fraction
from typing import Optional, Sequence


def rref(aug: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def solve(a: Sequence[Sequence], b: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of A·x = b (free variables set to 0), or None.

    Accepts rectangular (overdetermined) systems; None means inconsistent.
    """
    rows = len(a)
    assert rows == len(b), "rhs length mismatch"
    cols = len(a[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if cols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x
