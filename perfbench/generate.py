"""Seeded input generator for the benchmark.

Every algebra is a direct sum (the package's ``lp_sum``) of 1-3 small
blocks, relabelled by a seeded coordinate permutation and a seeded
positive rational basis rescaling b'_j = d_j * b_sigma(j) (the seed decides
which coordinate gets which scale from a fixed multiset).  The rescaling
gives c'_ijk = c[s(i), s(j), s(k)] * d_i * d_j / d_k and the sup norm
carries the matching weights d_j, so every generated algebra is an
isometric copy of a valid lattice algebra.

The block tables below are a copy of the package's builtin fixtures.  The
benchmark keeps its own copy so that its inputs do not change when the
package changes, and so that the references in ``reference.py`` never
depend on the code under test.

The program only ever sees the JSON files written by ``write_workload``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional

F = Fraction
Tensor = dict[tuple[int, int, int], Fraction]

# name -> (dim, tensor entries (i, j, k, c), identity or None)
BLOCKS: dict[str, tuple[int, list[tuple[int, int, int, int]], Optional[list[int]]]] = {
    "ck2": (2, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1]),
    "ck3": (3, [(0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1)], [1, 1, 1]),
    "upper2": (3, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 1, 1), (2, 2, 2, 1)], [1, 0, 1]),
    "m3-reflection": (
        3,
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (2, 2, 2, 1)],
        [1, 0, 1],
    ),
    "m2-regular": (
        4,
        [
            (0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 0, 1), (1, 3, 1, 1),
            (2, 0, 2, 1), (2, 1, 3, 1), (3, 2, 2, 1), (3, 3, 3, 1),
        ],
        [1, 0, 0, 1],
    ),
    "noid3": (3, [(0, 0, 0, 1), (1, 1, 1, 1), (2, 0, 2, 1)], None),
    "upper2-pair": (
        6,
        [
            (0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 1, 1), (2, 2, 2, 1),
            (3, 3, 3, 1), (3, 4, 4, 1), (4, 5, 4, 1), (5, 5, 5, 1),
        ],
        [1, 0, 1, 1, 0, 1],
    ),
}

# Orthogonal families of BP_l ∩ BP_r inside each block, as 0/1 vectors in
# block coordinates (the atoms of A_e, or the coordinate projections of
# noid3, which has no identity).
BLOCK_ATOMS: dict[str, list[list[int]]] = {
    "ck2": [[1, 0], [0, 1]],
    "ck3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "upper2": [[1, 0, 0], [0, 0, 1]],
    "m3-reflection": [[1, 0, 0], [0, 0, 1]],
    "m2-regular": [[1, 0, 0, 0], [0, 0, 0, 1]],
    "noid3": [[1, 0, 0], [0, 1, 0]],
    "upper2-pair": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]],
}


def wire(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass
class GenAlgebra:
    """A generated algebra in new (permuted, rescaled) coordinates."""

    name: str
    blocks: tuple[str, ...]
    dim: int
    tensor: Tensor
    weights: list[Fraction]
    sigma: list[int]  # new index j -> old index sigma[j]
    identity: Optional[list[Fraction]]  # known from the construction
    offsets: list[int]  # old-coordinate offset of each block
    elements: dict[str, list[Fraction]] = field(default_factory=dict)

    def from_old(self, x_old: list[Fraction]) -> list[Fraction]:
        """Coordinates in the new basis of the element with old coordinates x_old."""
        return [F(x_old[self.sigma[j]]) / self.weights[j] for j in range(self.dim)]

    def atoms_old(self) -> list[list[Fraction]]:
        """The orthogonal block projections, in old coordinates."""
        out = []
        for block, off in zip(self.blocks, self.offsets):
            for atom in BLOCK_ATOMS[block]:
                x = [F(0)] * self.dim
                for t, v in enumerate(atom):
                    x[off + t] = F(v)
                out.append(x)
        return out

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "tensor": [[i, j, k, wire(c)] for (i, j, k), c in sorted(self.tensor.items())],
            "norm": {"kind": "sup", "weights": [wire(w) for w in self.weights]},
            "elements": {n: [wire(v) for v in x] for n, x in sorted(self.elements.items())},
        }


def build_algebra(
    name: str, blocks: tuple[str, ...], rng: random.Random, scales: tuple[Fraction, ...]
) -> GenAlgebra:
    """Direct sum of `blocks`, then a seeded permutation and rescaling."""
    old: Tensor = {}
    offsets: list[int] = []
    identity_old: Optional[list[Fraction]] = []
    dim = 0
    for block in blocks:
        bdim, entries, ident = BLOCKS[block]
        offsets.append(dim)
        for i, j, k, c in entries:
            old[(i + dim, j + dim, k + dim)] = F(c)
        if ident is None or identity_old is None:
            identity_old = None
        else:
            identity_old += [F(v) for v in ident]
        dim += bdim
    sigma = list(range(dim))
    rng.shuffle(sigma)
    # Every scale is used about equally often; the seed decides which
    # coordinate gets which.  A free choice per coordinate would change the
    # size of the coefficients, and with it the work, from seed to seed.
    d = [scales[i % len(scales)] for i in range(dim)]
    rng.shuffle(d)
    inv = {old_i: new_j for new_j, old_i in enumerate(sigma)}
    tensor = {
        (inv[i], inv[j], inv[k]): c * d[inv[i]] * d[inv[j]] / d[inv[k]]
        for (i, j, k), c in old.items()
    }
    alg = GenAlgebra(name, tuple(blocks), dim, tensor, d, sigma, None, offsets)
    if identity_old is not None:
        alg.identity = alg.from_old(identity_old)
    return alg


# -- workloads -------------------------------------------------------------
#
# Each workload is a fixed recipe of ops; the seed only fills in content
# (permutation, which coordinate gets which scale, element values, op
# order).  Fixing the recipe keeps the amount of work per pass nearly the
# same for every seed, and many mid-sized ops keep any one op's content
# from moving a pass's total: that is what lets ten seeds agree within the
# bounds.  No op takes more than about a quarter of a pass.


@dataclass
class Op:
    """One user command, plus an optional library call made in the same op."""

    argv: list[str]  # CLI arguments; "{file}" stands for the algebra path
    file: str
    call: Optional[dict] = None


def _rand_q(rng: random.Random, max_num: int, max_den: int, allow_neg: bool = False) -> Fraction:
    lo = -max_num if allow_neg else 0
    return F(rng.randint(lo, max_num), rng.randint(1, max_den))


def _expand(recipe: list[tuple[int, tuple[str, ...], object]]) -> list[tuple[tuple[str, ...], object]]:
    """(copies, blocks, parameter) entries -> one (blocks, parameter) per op."""
    return [(blocks, param) for copies, blocks, param in recipe for _ in range(copies)]


# classify-grid: (copies, blocks, N).  Grid size (N+1)^dim <= 256; dims 2-5.
CLASSIFY_RECIPE = _expand([
    (2, ("ck2",), 2), (2, ("ck2",), 3),
    (2, ("upper2",), 2), (2, ("upper2",), 3), (2, ("m3-reflection",), 2),
    (2, ("m3-reflection",), 3), (2, ("noid3",), 2), (2, ("noid3",), 3),
    (2, ("ck3",), 2), (2, ("ck3",), 3),
    (3, ("ck2", "ck2"), 2), (3, ("ck2", "ck2"), 3), (3, ("m2-regular",), 2),
    (3, ("m2-regular",), 3),
    (3, ("ck2", "upper2"), 2), (3, ("ck2", "noid3"), 2), (3, ("ck2", "m3-reflection"), 2),
    (3, ("ck2", "ck3"), 2),
])


def classify_workload(rng: random.Random) -> tuple[list[GenAlgebra], list[Op]]:
    algebras, ops = [], []
    for idx, (blocks, n) in enumerate(CLASSIFY_RECIPE):
        scales = tuple(F(n, k) for k in range(1, n + 1))  # 1/d_j lies on the grid
        alg = build_algebra(f"cg{idx}", blocks, rng, scales)
        atoms = alg.atoms_old()
        # A grid-point band projection (a sum of block projections), a random
        # nonnegative element and one with a negative coordinate.
        chosen = [a for a in atoms if rng.random() < 0.5] or atoms[:1]
        hit = [sum(col) for col in zip(*chosen)]
        alg.elements["hit"] = alg.from_old(hit)
        alg.elements["pos"] = [_rand_q(rng, 4, 3) for _ in range(alg.dim)]
        neg = [_rand_q(rng, 4, 3) for _ in range(alg.dim)]
        neg[rng.randrange(alg.dim)] = F(-1)
        alg.elements["neg"] = neg
        algebras.append(alg)
        ops.append(
            Op(["classify", "{file}", "--grid", str(n), "--element", "hit",
                "--element", "pos", "--element", "neg", "--format", "json"], alg.name)
        )
    return algebras, ops


# inner: (copies, blocks, family size).  |Λ|² <= 16, the default cap.  The
# counts put p50 inside the cluster of single-block 2-member families and
# p90 inside the cluster of 3-member families on two blocks, so that neither
# percentile sits on a gap between clusters.
INNER_RECIPE = _expand([
    (4, ("ck2",), 2), (4, ("upper2",), 2), (4, ("m2-regular",), 2), (16, ("noid3",), 2),
    (4, ("m3-reflection",), 2), (17, ("ck3",), 2), (1, ("ck2", "ck2"), 2),
    (2, ("upper2", "ck2"), 2), (2, ("ck2", "m2-regular"), 2), (2, ("noid3", "upper2"), 2),
    (1, ("upper2", "m2-regular"), 2),
    (2, ("ck3",), 3), (2, ("ck2", "ck2"), 3), (5, ("ck2", "upper2"), 3), (4, ("ck2", "noid3"), 3),
    (1, ("ck2", "ck2"), 4),
])

# Each is_inner call walks all 2^(|Λ|²) subsets again, so the 4-member
# family gets one mask element.  Without any --element the command tests
# every named 0/1 element, whose count would then depend on the rescaling.
INNER_MASKS = {2: 2, 3: 2, 4: 1}


def _round_robin(items: list, parts: int) -> list[list]:
    """Deal items into `parts` groups in order (items >= parts).

    A fixed grouping keeps the number of nonzero summands, and so the
    number of distinct inner projections, the same for every seed.
    """
    return [items[g::parts] for g in range(parts)]


def inner_workload(rng: random.Random) -> tuple[list[GenAlgebra], list[Op]]:
    algebras, ops = [], []
    scales = (F(1), F(2), F(3), F(1, 2), F(2, 3))
    for idx, (blocks, size) in enumerate(INNER_RECIPE):
        alg = build_algebra(f"in{idx}", blocks, rng, scales)
        groups = _round_robin(alg.atoms_old(), size)
        names = []
        for g, members in enumerate(groups):
            member = [sum(col) for col in zip(*members)]
            alg.elements[f"p{g}"] = alg.from_old(member)
            names.append(f"p{g}")
        # 0/1 masks in the program's coordinates; some are inner, most not.
        masks = []
        for m in range(INNER_MASKS[size]):
            mask = [F(rng.randint(0, 1)) for _ in range(alg.dim)]
            if all(v == 0 for v in mask):
                mask[rng.randrange(alg.dim)] = F(1)
            alg.elements[f"m{m}"] = mask
            masks.append(f"m{m}")
        pairs = sorted(product(range(size), repeat=2))
        gamma = sorted(rng.sample(pairs, len(pairs) // 2))
        argv = ["inner", "{file}"]
        for n in names:
            argv += ["--family", n]
        for n in masks:
            argv += ["--element", n]
        argv += ["--gamma", ",".join(f"({a},{b})" for a, b in gamma), "--format", "json"]
        algebras.append(alg)
        ops.append(Op(argv, alg.name))
    return algebras, ops


# spectrum: (copies, blocks, coefficient height).  Unital blocks only; dims
# 2-12.  "int" draws integer coordinates, "q9" denominators up to 9 on the
# first block.
SPECTRUM_RECIPE = _expand([
    (3, ("ck2",), "int"), (3, ("ck2",), "q9"), (3, ("upper2",), "int"), (3, ("upper2",), "q9"),
    (3, ("m3-reflection",), "int"), (3, ("m2-regular",), "int"), (3, ("m2-regular",), "q9"),
    (3, ("ck3",), "q9"), (3, ("ck2", "upper2"), "int"), (3, ("ck2", "m2-regular"), "int"),
    (3, ("upper2", "m3-reflection"), "q9"), (3, ("ck3", "m2-regular"), "int"),
    (3, ("m2-regular", "m2-regular"), "int"), (3, ("ck2", "ck3", "upper2"), "int"),
    (3, ("m2-regular", "upper2", "ck3"), "int"),
    (3, ("m2-regular", "m2-regular", "m2-regular"), "int"),
])


# Several elements per op average out how hard each one's divisor search
# is.  The elements' values in the block basis are fixed lists, so their
# characteristic polynomials, and the work of the divisor search, are the
# same for every seed; the seed picks the basis (permutation and scales)
# in which the program sees them.
SPECTRUM_ELEMENTS = 4
INT_VALUES = (3, -1, 2, 4, 1, -2, 2, 1, 3, -1, 4, 2)
Q9_VALUES = (F(-3, 7), F(5, 4), F(2, 9), F(-1, 3), F(7, 6), F(4, 5), F(1, 8), F(-5, 2))


def spectrum_workload(rng: random.Random) -> tuple[list[GenAlgebra], list[Op]]:
    algebras, ops = [], []
    scales = (F(1), F(2), F(3), F(1, 2), F(3, 2))
    for idx, (blocks, height) in enumerate(SPECTRUM_RECIPE):
        alg = build_algebra(f"sp{idx}", blocks, rng, scales)
        names = []
        for e in range(SPECTRUM_ELEMENTS):
            x = [F(INT_VALUES[(t + 5 * e) % len(INT_VALUES)]) for t in range(alg.dim)]
            if height == "q9":
                for t in range(BLOCKS[blocks[0]][0]):
                    x[t] = Q9_VALUES[(t + 3 * e) % len(Q9_VALUES)]
            alg.elements[f"a{e}"] = alg.from_old(x)
            names.append(f"a{e}")
        argv = ["spectrum", "{file}"]
        for n in names:
            argv += ["--element", n]
        argv += ["--format", "json"]
        algebras.append(alg)
        ops.append(Op(argv, alg.name, {"kind": "invert", "elements": names}))
    return algebras, ops


# audit: (copies, blocks, None) for dims 4-16; rk_oracle is also checked
# when dim <= 8.  The copies put p50 inside the cluster of dim 6-8 ops and
# p90 inside the cluster of dim 9-12 ops, above which only the dim-14 and
# dim-16 ops lie.
AUDIT_RECIPE = _expand([
    (2, ("ck2", "ck2"), None), (2, ("m2-regular",), None), (2, ("ck2", "upper2"), None),
    (2, ("noid3", "ck2"), None), (2, ("upper2", "upper2"), None), (2, ("upper2-pair",), None),
    (2, ("ck3", "m3-reflection"), None), (2, ("ck3", "noid3"), None),
    (2, ("m2-regular", "upper2"), None), (2, ("ck2", "noid3", "ck2"), None),
    (2, ("noid3", "m2-regular"), None), (2, ("m2-regular", "m2-regular"), None),
    (2, ("ck2", "upper2", "upper2"), None), (5, ("m2-regular", "upper2", "ck2"), None),
    (5, ("noid3", "m2-regular", "upper2"), None),
    (6, ("m2-regular", "m2-regular", "m2-regular"), None),
    (1, ("upper2-pair", "upper2-pair", "ck2"), None),
    (1, ("m2-regular", "upper2-pair", "upper2-pair"), None),
])


# rk_oracle inputs in the block basis (x >= 0).  Fixed values keep the
# vertex walk's arithmetic the same for every seed; the seed still picks the
# basis the program sees them in.
RK_A = (F(3, 2), F(-1), F(2, 3), F(0), F(5, 4), F(-2, 3), F(1), F(4))
RK_B = (F(-1, 2), F(2), F(0), F(3, 4), F(-5, 3), F(1), F(2, 5), F(-3))
RK_X = (F(1), F(3, 4), F(2), F(0), F(5, 3), F(1, 2), F(4), F(2, 7))


def audit_workload(rng: random.Random) -> tuple[list[GenAlgebra], list[Op]]:
    algebras, ops = [], []
    scales = (F(1), F(2), F(3), F(1, 2), F(2, 3))
    for idx, (blocks, _) in enumerate(AUDIT_RECIPE):
        alg = build_algebra(f"au{idx}", blocks, rng, scales)
        call = None
        if alg.dim <= 8:
            for n, values in (("a", RK_A), ("b", RK_B), ("x", RK_X)):
                alg.elements[n] = alg.from_old([values[t % len(values)] for t in range(alg.dim)])
            call = {"kind": "rk_oracle", "a": "a", "b": "b", "x": "x"}
        algebras.append(alg)
        ops.append(Op(["verify", "{file}", "--format", "json"], alg.name, call))
    return algebras, ops


WORKLOADS = {
    "classify-grid": classify_workload,
    "inner": inner_workload,
    "spectrum": spectrum_workload,
    "audit": audit_workload,
}


def generate(workload: str, seed: int) -> tuple[list[GenAlgebra], list[Op]]:
    """The algebras and the op list of one pass, both fixed by (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    algebras, ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return algebras, ops


def write_workload(workload: str, seed: int, out_dir: Path) -> tuple[list[GenAlgebra], list[Op]]:
    """Write one JSON file per algebra plus ops.json into out_dir."""
    algebras, ops = generate(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for alg in algebras:
        (out_dir / f"{alg.name}.json").write_text(json.dumps(alg.to_json(), indent=1) + "\n")
    (out_dir / "ops.json").write_text(
        json.dumps([{"argv": o.argv, "file": o.file, "call": o.call} for o in ops], indent=1) + "\n"
    )
    return algebras, ops
