"""Small exact linear algebra over the integers: fraction-free solving, and
the characteristic polynomial and its factors.

Matrices are lists of integer rows, built by the integer kernel
(algebra.IntegerTensor) over one known denominator; polynomials are
ascending coefficient lists.  Everything is written for the small
dimensions this package meets (an algebra file's dim is at most 64);
clarity over asymptotics.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence


def solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """One exact solution x of A·x = b, for integer A and b (free variables
    set to 0), as integers over one denominator: (v, L) with x = v/L, or None.

    L > 0 is the lcm of the coordinates' denominators in lowest terms, so
    (v, L) is x's algebra.integer_form, and no Fraction is built.  Accepts
    rectangular (overdetermined) systems; None means inconsistent.
    Fraction-free Gauss–Jordan: the pivot of each column is the first row
    below the pivots found so far with a nonzero entry there, and every other
    row with a nonzero entry f in that column becomes p·row − f·pivot_row,
    divided by its content so that the integers stay small.  A row with a
    zero there is left alone.  Row operations keep the column dependencies,
    so the pivot columns are those of the reduced row echelon form, and the
    solution, supported on them, is x_c = rhs/p for each pivot row.
    """
    rows = len(a)
    if rows != len(b):
        raise AssertionError("rhs length mismatch")
    cols = len(a[0]) if rows else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r]
        p = top[c]
        for i, row in enumerate(aug):
            f = row[c]
            if f and i != r:
                new = [p * v - f * w for v, w in zip(row, top)]
                g = math.gcd(*new)  # 0 when the row became zero
                aug[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        if len(pivots) == rows:
            break
    if any(row[cols] for row in aug[len(pivots):]):  # 0 = nonzero: inconsistent
        return None
    # x_c = rhs/p, whose denominator in lowest terms is |p|/gcd(rhs, p).
    solved = [(c, row[cols], row[c]) for row, c in zip(aug, pivots)]
    scale = math.lcm(*(abs(p) // math.gcd(rhs, p) for _, rhs, p in solved))
    v = [0] * cols
    for c, rhs, p in solved:
        v[c] = rhs * scale // p
    return v, scale


def char_poly_monic(b: Sequence[Sequence[int]], d: int) -> list[Fraction]:
    """Coefficients (ascending) of det(λI − A) for A = B/d, B an integer
    matrix and d a positive integer, computed exactly over ℤ: the product
    of char_poly_blocks(b), rescaled by monic_product."""
    return monic_product(char_poly_blocks(b), d)


def char_poly_blocks(b: Sequence[Sequence[int]]) -> list[list[int]]:
    """det(μI − B_C), ascending and monic over ℤ, for each strongly
    connected block C of B's nonzero pattern (_blocks), by
    _faddeev_leverrier.

    Ordered by its strongly connected components, B is block triangular:
    an entry off the diagonal blocks joins two components, and the
    components can be ordered so that every such edge runs one way.  So
    det(μI − B) is the product of the polynomials returned.
    """
    return [_faddeev_leverrier([[b[i][j] for j in block] for i in block]) for block in _blocks(b)]


def monic_product(blocks: Sequence[Sequence[int]], d: int) -> list[Fraction]:
    """det(λI − A), ascending, for A = B/d from B's char_poly_blocks(b):
    their product P = det(μI − B) at μ = d·λ, divided by d^n, so that
    coefficient k is P_k/d^(n−k)."""
    product = functools.reduce(_poly_mul, blocks, [1])
    n = len(product) - 1
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(product)]


def _faddeev_leverrier(b: Sequence[Sequence[int]]) -> list[int]:
    """det(λI − B), ascending, for an integer matrix B: M_1 = I,
    b_{n−k} = −tr(B·M_k)/k and M_{k+1} = B·M_k + b_{n−k}·I.  The b_k are
    integers, so each division by k is exact."""
    n = len(b)
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
    return coeffs


def _blocks(b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The strongly connected components of the graph with an edge i → j
    for every b_ij ≠ 0, each as a sorted list of indices.

    Tarjan's algorithm (SIAM J. Comput. 1972), with an explicit stack of
    (vertex, next successor) frames in place of recursion, so its depth is
    not bounded by Python's recursion limit.
    """
    n = len(b)
    successors = [[j for j, x in enumerate(row) if x] for row in b]
    index = [-1] * n  # visiting order; -1 until visited
    low = [0] * n  # least index reachable through the DFS subtree and one back edge
    on_stack = [False] * n  # in stack: visited, its component not yet emitted
    stack: list[int] = []
    blocks: list[list[int]] = []
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, 0)]
        while frames:
            v, i = frames[-1]
            if i < len(successors[v]):
                frames[-1] = (v, i + 1)
                w = successors[v][i]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                block = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    block.append(w)
                    if w == v:
                        break
                blocks.append(sorted(block))
    return blocks


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def poly_eval(q: Sequence[int], s: int, t: int) -> int:
    """t^d·q(s/t) for the integer polynomial q of degree d (ascending),
    by Horner on integers: zero exactly when s/t is a root of q."""
    acc, power = 0, 1
    for c in reversed(q):
        acc = acc * s + c * power
        power *= t
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
