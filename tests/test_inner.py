"""Inner projections over orthogonal families of two-sided band projections."""

import collections
import dataclasses
import functools
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import (
    AlgebraSpec,
    CapExceededError,
    DimensionMismatchError,
    FamilyError,
    GammaSet,
    MathViolationError,
    NotBandProjectionError,
    OperatorMatrix,
    ProjectionFamily,
    vec,
)
from latticealg import inner as inner_module
from latticealg import projections as projections_module
from latticealg.cli import main
from latticealg.inner import _maximal_cliques
from latticealg.operators import is_band_projection_op, mult_op
from latticealg.projections import integer_form, mask_support
from test_projections import reference_side_masks


def noid3_family():
    alg = la.builtin("noid3")
    return alg, la.validate_family(alg, [alg.elements["p1"], alg.elements["p2"]])


def every_gamma(n_members):
    """Every Γ ⊆ Λ×Λ for a family of n_members members: 2^(n_members²) sets."""
    pairs = sorted(itertools.product(range(n_members), repeat=2))
    return [
        GammaSet.of(itertools.compress(pairs, bits), n_members)
        for bits in itertools.product((0, 1), repeat=len(pairs))
    ]


def test_gamma_set_algebra():
    g = GammaSet.of([(0, 0), (1, 1)], 2)
    h = GammaSet.of([(0, 0), (0, 1)], 2)
    assert g.intersection(h).sorted_pairs() == [(0, 0)]
    assert g.union(h).sorted_pairs() == [(0, 0), (0, 1), (1, 1)]
    assert g.complement().sorted_pairs() == [(0, 1), (1, 0)]
    assert GammaSet.full(2).sorted_pairs() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert GammaSet.empty(2).sorted_pairs() == []
    with pytest.raises(FamilyError):
        GammaSet.of([(0, 2)], 2)  # index out of range
    with pytest.raises(FamilyError):
        g.union(GammaSet.of([(0, 0)], 3))  # different families


def _gamma_cases():
    """(n, pairs, pairs): two sets of pairs in range(n)² for n in 1-4."""
    def draw_sets(n):
        pairs = st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        return st.tuples(st.just(n), pairs, pairs)
    return st.integers(1, 4).flatmap(draw_sets)


@given(_gamma_cases())
def test_gamma_set_operations_stay_in_range(case):
    """Only GammaSet.of checks pairs; what the set operations build from
    checked sets passes that check too."""
    n, g_pairs, h_pairs = case
    g, h = GammaSet.of(g_pairs, n), GammaSet.of(h_pairs, n)
    full = GammaSet.full(n)
    for result in (g.union(h), g.intersection(h), g.complement(), GammaSet.empty(n), full):
        assert result.pairs <= full.pairs
        assert GammaSet.of(result.pairs, n) == result
    assert g.union(g.complement()) == full


def test_validate_family_accepts_orthogonal_projections():
    _, family = noid3_family()
    assert len(family) == 2
    m2 = la.builtin("m2-regular")
    fam = la.validate_family(m2, [m2.elements["E11"], m2.elements["E22"]])
    assert len(fam) == 2


def test_validate_family_rejects_non_orthogonal():
    alg = la.builtin("upper2")
    e = alg.require_identity()
    with pytest.raises(FamilyError) as err:
        la.validate_family(alg, [vec([1, 0, 0]), e])
    assert "orthogonal" in str(err.value) or err.value.witness is not None


def test_validate_family_rejects_non_member():
    alg = la.builtin("upper2")
    # the E12 direction is a band projection but not a left/right one
    with pytest.raises(FamilyError):
        la.validate_family(alg, [vec([0, 1, 0])])


def test_inner_bp_matrices():
    alg, family = noid3_family()
    p00 = la.inner_bp(alg, family, GammaSet.of([(0, 0)], 2))
    assert p00 == OperatorMatrix.diagonal([1, 0, 0]).as_mask() == {0}
    p_both = la.inner_bp(alg, family, GammaSet.of([(0, 0), (1, 1)], 2))
    assert p_both == OperatorMatrix.diagonal([1, 1, 0]).as_mask() == {0, 1}
    p_cross = la.inner_bp(alg, family, GammaSet.of([(0, 1)], 2))
    assert p_cross == OperatorMatrix.zero(3).as_mask() == frozenset()
    with pytest.raises(FamilyError):
        la.inner_bp(alg, family, GammaSet.of([(0, 0)], 3))


def test_boolean_laws_all_pairs_noid3():
    alg, family = noid3_family()
    gammas = every_gamma(2)
    assert len(set(gammas)) == 16
    for g, h in itertools.product(gammas, repeat=2):
        assert la.boolean_laws(alg, family, g, h).ok


def test_enumerate_inner_noid3():
    alg, family = noid3_family()
    found = la.enumerate_inner(alg, family)
    assert len(found) == 4
    assert {support for _, support in found} == {
        frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
    }
    # first witness is the smallest bit mask, so the empty Γ comes first
    assert found[0][0] == GammaSet.empty(2)


def test_enumerate_inner_m2_regular_all_distinct():
    alg = la.builtin("m2-regular")
    family = la.validate_family(alg, [alg.elements["E11"], alg.elements["E22"]])
    found = la.enumerate_inner(alg, family)
    # all 16 Γ-subsets give distinct projections here: the four summands
    # x ↦ E_αα x E_ββ are the four coordinate masks
    assert len(found) == 16


def test_enumerate_inner_cap():
    alg = la.builtin("upper2-pair")
    atoms = la.ck_representation(alg).atoms
    family = la.validate_family(alg, list(atoms))
    assert len(family) == 4
    with pytest.raises(CapExceededError):
        la.enumerate_inner(alg, family, cap=9)
    found = la.enumerate_inner(alg, family, cap=16)
    assert len(found) == 64


def test_is_inner_witnesses():
    alg, family = noid3_family()
    gamma = la.is_inner(alg, family, OperatorMatrix.diagonal([1, 1, 0]))
    assert gamma is not None
    assert la.inner_bp(alg, family, gamma) == {0, 1}
    # the z-coordinate band projection is not inner for this family
    assert la.is_inner(alg, family, OperatorMatrix.diagonal([0, 0, 1])) is None
    with pytest.raises(NotBandProjectionError):
        la.is_inner(alg, family, OperatorMatrix.diagonal([2, 0, 0]))


def test_is_inner_refuses_a_matrix_of_another_dimension():
    # not a verdict: a 2×2 mask does not act on the 3-dimensional algebra
    alg, family = noid3_family()
    for m in (OperatorMatrix.diagonal([1, 1]), OperatorMatrix.identity(4)):
        with pytest.raises(DimensionMismatchError):
            la.is_inner(alg, family, m)


def test_find_families_noid3():
    alg = la.builtin("noid3")
    pool = [vec(bits) for bits in itertools.product([0, 1], repeat=3)]
    families = la.find_families(alg, pool)
    members = [sorted(p.coords for p in fam.members) for fam in families]
    assert members == [
        [(0, 1, 0), (1, 0, 0)],
        [(1, 1, 0)],
    ]


def test_find_families_m2_regular():
    alg = la.builtin("m2-regular")
    pool = la.enumerate_order_idempotents(alg)
    families = la.find_families(alg, pool)
    members = [sorted(p.coords for p in fam.members) for fam in families]
    assert members == [
        [(0, 0, 0, 1), (1, 0, 0, 0)],
        [(1, 0, 0, 1)],
    ]


def test_find_families_ignores_zero_and_duplicates():
    alg = la.builtin("noid3")
    pool = [vec([0, 0, 0]), vec([1, 0, 0]), vec([1, 0, 0]), vec([0, 1, 0])]
    families = la.find_families(alg, pool)
    assert [len(f) for f in families] == [2]


# -- the 2^(|Λ|²) walk as a Fraction reference ----------------------------


def reference_inner(algebra, family):
    """Every Γ ⊆ Λ×Λ summed from mult_op matrices, duplicates merged exactly,
    each distinct sum kept with its first Γ in bit-mask order over the
    sorted pair list; returned in the order of those witnesses.

    The walk visits the subsets in Gray-code order, so each step adds or
    subtracts one summand, and keeps the smallest bit mask per sum.
    """
    k, n = len(family), algebra.dim
    pairs = sorted(itertools.product(range(k), repeat=2))
    summands = [
        [(r * n + c, v) for r, row in enumerate(mult_op(algebra, family[a], family[b]).entries)
         for c, v in enumerate(row) if v]
        for a, b in pairs
    ]
    # Only entries some summand touches can be nonzero; the key lists those.
    touched = sorted({idx for summand in summands for idx, _ in summand})
    slot = {idx: i for i, idx in enumerate(touched)}
    total = [Fraction(0)] * len(touched)
    first = {tuple(total): 0}
    for g in range(1, 1 << len(pairs)):
        t = (g & -g).bit_length() - 1
        gray = g ^ (g >> 1)
        sign = 1 if gray >> t & 1 else -1
        for idx, v in summands[t]:
            total[slot[idx]] += sign * v
        key = tuple(total)
        if gray < first.get(key, gray + 1):
            first[key] = gray
    out = []
    for key, bits in sorted(first.items(), key=lambda item: item[1]):
        dense = [Fraction(0)] * (n * n)
        for idx, v in zip(touched, key):
            dense[idx] = v
        matrix = OperatorMatrix(tuple(tuple(dense[r * n:(r + 1) * n]) for r in range(n)))
        assert is_band_projection_op(matrix)
        gamma = GammaSet.of((p for t, p in enumerate(pairs) if bits >> t & 1), k)
        out.append((gamma, matrix))
    return out


def mask_matrix(n, support):
    """The 0/1 diagonal on `support` as a dense matrix."""
    return OperatorMatrix.diagonal([int(i in support) for i in range(n)])


def builtin_family(name):
    """The family the inner command uses: the default family, else the atoms of A_e."""
    alg = la.builtin(name)
    names = la.builtin_meta(name).default_family
    members = [alg.elements[n] for n in names] or list(la.ck_representation(alg).atoms)
    return alg, la.validate_family(alg, members)


_BLOCKS = ("ck2", "ck3", "upper2", "m2-regular", "noid3", "m3-reflection")
_SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3))


def permuted_lp_sum_family(seed):
    """An lp_sum of one or two builtins in a permuted, rescaled basis, with a
    family of 1-4 members, each a sum of block family members dealt out in
    turn (members of distinct blocks multiply to zero)."""
    rng = random.Random(seed)
    names = rng.sample(_BLOCKS, rng.randint(1, 2))
    algebra = la.lp_sum([la.builtin(n) for n in names])
    pool, offset = [], 0
    for name in names:
        block, family = builtin_family(name)
        for p in family.members:
            pool.append([0] * offset + list(p.coords) + [0] * (algebra.dim - offset - block.dim))
        offset += block.dim
    rng.shuffle(pool)
    size = rng.randint(1, min(4, len(pool)))
    members = [[sum(col) for col in zip(*pool[g::size])] for g in range(size)]
    n = algebra.dim
    sigma = rng.sample(range(n), n)
    s = [rng.choice(_SCALES) for _ in range(n)]
    # b'_σ(i) = s_i·b_i, so c'[σi, σj, σk] = s_i·s_j·c[i, j, k]/s_k and x'_σ(i) = x_i/s_i.
    tensor = {
        (sigma[i], sigma[j], sigma[k]): s[i] * s[j] * c / s[k]
        for (i, j, k), c in algebra.tensor.items()
    }
    permuted = AlgebraSpec(dim=n, tensor=tensor, norm=algebra.norm, name=f"perm{seed}")

    def move(x):
        out = [Fraction(0)] * n
        for i, v in enumerate(x):
            out[sigma[i]] = Fraction(v) / s[i]
        return la.LatticeElement(tuple(out))

    return permuted, la.validate_family(permuted, [move(p) for p in members])


def _check_against_reference(alg, family):
    want = [(gamma, m.as_mask()) for gamma, m in reference_inner(alg, family)]
    assert la.enumerate_inner(alg, family) == want
    witness = {support: gamma for gamma, support in want}
    for bits in itertools.product((0, 1), repeat=alg.dim):
        support = frozenset(i for i, b in enumerate(bits) if b)
        assert la.is_inner(alg, family, OperatorMatrix.diagonal(bits)) == witness.get(support)


@pytest.mark.parametrize("name", la.BUILTIN_NAMES)
def test_enumerate_and_is_inner_match_reference_on_builtins(name):
    _check_against_reference(*builtin_family(name))


@pytest.mark.parametrize("seed", range(12))
def test_enumerate_and_is_inner_match_reference_on_permuted_sums(seed):
    _check_against_reference(*permuted_lp_sum_family(seed))


def matrix_units_family(n):
    """M_n on the basis b_{n·i+j} = E_ij, with E_ij∗E_jk = E_ik, and the
    family of its n diagonal matrix units E_ii."""
    tensor = {
        (n * i + j, n * j + k, n * i + k): Fraction(1)
        for i, j, k in itertools.product(range(n), repeat=3)
    }
    alg = AlgebraSpec(dim=n * n, tensor=tensor, name=f"m{n}")
    units = [vec([int(b == n * i + i) for b in range(n * n)]) for i in range(n)]
    return alg, la.validate_family(alg, units)


def test_enumerate_and_is_inner_match_reference_on_m3():
    # each of the 9 summands E_ii·x·E_jj is the mask on the one coordinate
    # E_ij, so all 2⁹ Γ give distinct P_Γ
    alg, family = matrix_units_family(3)
    assert len(la.enumerate_inner(alg, family)) == 512
    _check_against_reference(alg, family)


@pytest.mark.parametrize("name", ["noid3", "m2-regular", "upper2"])
def test_boolean_laws_in_matrix_form(name):
    alg, family = builtin_family(name)
    gammas = every_gamma(len(family))
    p = {g: mask_matrix(alg.dim, la.inner_bp(alg, family, g)) for g in gammas}
    full = p[GammaSet.full(len(family))]
    for g, h in itertools.product(gammas, repeat=2):
        meet = p[g.intersection(h)]
        assert p[g].compose(p[h]) == meet
        assert p[g] + p[h] - meet == p[g.union(h)]
        assert full - p[g] == p[g.complement()]
        assert la.boolean_laws(alg, family, g, h).ok


def test_summand_supports_are_disjoint_masks():
    alg, family = builtin_family("m2-regular")
    assert family.summand_supports == (
        frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})
    )
    alg, family = noid3_family()
    assert family.summand_supports == (
        frozenset({0}), frozenset(), frozenset(), frozenset({1})
    )


def _overlap_algebra():
    """b0∗b2 = b1∗b2 = b2∗b0 = b2: the family {b0, b1} passes validation, but
    the summands (0,0) and (1,0) both contain e_2.  Not associative:
    (b0∗b1)∗b2 = 0 while b0∗(b1∗b2) = b2."""
    return la.algebra_from_dict({
        "dim": 3,
        "tensor": [[0, 0, 0, 1], [1, 1, 1, 1], [0, 2, 2, 1], [1, 2, 2, 1], [2, 0, 2, 1]],
        "elements": {"p0": [1, 0, 0], "p1": [0, 1, 0]},
    })


def test_overlapping_supports_raise(tmp_path, capsys):
    alg = _overlap_algebra()
    family = la.validate_family(alg, [alg.elements["p0"], alg.elements["p1"]])
    with pytest.raises(MathViolationError, match="overlaps"):
        family.summand_supports
    with pytest.raises(MathViolationError):
        la.enumerate_inner(alg, family)
    with pytest.raises(MathViolationError):
        la.is_inner(alg, family, OperatorMatrix.diagonal([1, 0, 1]))
    path = tmp_path / "overlap.json"
    la.save_algebra(alg, path)
    assert main(["inner", str(path), "--family", "p0", "--family", "p1"]) == 1
    assert "overlaps" in capsys.readouterr().err


def test_non_mask_summand_raises(capsys, monkeypatch):
    alg = la.builtin("ck2")
    # Not built by validate_family: L_p = R_p = diag(2, 0), while the
    # recorded masks say {0}.  The supports are read off the record, and
    # inner_bp's mult_op audit is what rejects the family.
    mask = (frozenset({0}),)
    family = ProjectionFamily(members=(vec([2, 0]),), left=mask, right=mask)
    assert family.summand_supports == (frozenset({0}),)
    with pytest.raises(MathViolationError, match="not a 0/1 mask"):
        la.inner_bp(alg, family, GammaSet.full(1))
    monkeypatch.setattr("latticealg.cli.validate_family", lambda algebra, members: family)
    assert main(["inner", "builtin:ck2", "--gamma", "(0,0)"]) == 1
    assert "not a 0/1 mask" in capsys.readouterr().err


def _mult_op_off_diagonal(algebra, a, b):
    rows = [list(row) for row in mult_op(algebra, a, b).entries]
    rows[0][1] = Fraction(1, 2)
    return OperatorMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "fake, message",
    [
        # the true mask plus one off-diagonal entry: diagonal supports unchanged
        (lambda expected: _mult_op_off_diagonal, "not a 0/1 mask"),
        # a true mult_op matrix that is not a mask: 2·P on the summand's support
        (lambda expected: lambda algebra, a, b: mult_op(algebra, a.scale(2), b), "not a 0/1 mask"),
        # every summand is the whole of P_Γ: masks with the right union, overlapping
        (lambda expected: lambda algebra, a, b: mask_matrix(algebra.dim, expected), "overlaps"),
        # every summand is zero: disjoint masks whose union misses supp P_Γ
        (lambda expected: lambda algebra, a, b: OperatorMatrix.zero(algebra.dim), "differ"),
    ],
    ids=["non-mask", "scaled-mult-op", "overlap", "short-union"],
)
def test_inner_bp_audit_rejects_bad_summand_matrices(fake, message, capsys, monkeypatch):
    alg = la.builtin("m2-regular")
    family = la.validate_family(alg, [alg.elements["E11"], alg.elements["E22"]])
    gamma = GammaSet.of([(0, 0), (1, 1)], 2)
    expected = la.inner_bp(alg, family, gamma)
    assert expected == {0, 3}
    monkeypatch.setattr("latticealg.inner.mult_op", fake(expected))
    with pytest.raises(MathViolationError, match=message):
        la.inner_bp(alg, family, gamma)
    argv = ["inner", "builtin:m2-regular", "--family", "E11", "--family", "E22"]
    assert main(argv + ["--gamma", "(0,0),(1,1)"]) == 1
    assert message in capsys.readouterr().err


def test_five_member_family_under_raised_cap(tmp_path, capsys):
    ck2 = la.builtin("ck2")
    alg = la.lp_sum([ck2, ck2, ck2], name="ck2x3")
    members = {f"p{i}": [int(j == i) for j in range(6)] for i in range(4)}
    members["p4"] = [0, 0, 0, 0, 1, 1]
    alg = dataclasses.replace(alg, elements={n: vec(v) for n, v in members.items()})
    path = tmp_path / "ck2x3.json"
    la.save_algebra(alg, path)
    argv = ["inner", str(path), "--format", "json"]
    for name in members:
        argv += ["--family", name]
    assert main(argv) == 2  # |Λ|² = 25 > 16
    assert "cap" in capsys.readouterr().err
    start = time.perf_counter()
    assert main(argv + ["--cap", "25"]) == 0
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["distinct_inner"]) == 2**5
    assert payload["distinct_inner"][-1]["gamma"] == [[i, i] for i in range(5)]


# -- references: membership, orthogonality and summands through the kernel --


def reference_validate_family(algebra, members):
    """validate_family before the family kept its masks: is_left_bp and
    is_right_bp per member, then one product per ordered pair."""
    members = tuple(members)
    for idx, p in enumerate(members):
        if p.dim != algebra.dim:
            raise FamilyError(f"member {idx} has wrong dimension", witness=idx)
        if not la.is_left_bp(algebra, p):
            raise FamilyError(f"member {idx} is not a left band projection", witness=idx)
        if not la.is_right_bp(algebra, p):
            raise FamilyError(f"member {idx} is not a right band projection", witness=idx)
    for (i, p), (j, q) in itertools.product(enumerate(members), repeat=2):
        product = algebra.multiply(p, q)
        expected = p if i == j else algebra.zero()
        if product != expected:
            raise FamilyError(
                f"members {i}, {j} violate p_α∗p_β = δ_αβ·p_α (got {product})",
                witness=(i, j),
            )
    return members


def reference_summand_supports(algebra, members):
    """Each summand L_{p_α}R_{p_β} decided by the kernel column by column
    (mask_support with both sides, R applied first as in mult_op)."""
    forms = [integer_form(algebra, p) for p in members]
    supports, covered = [], set()
    for a, b in sorted(itertools.product(range(len(members)), repeat=2)):
        support = mask_support(algebra, forms[a], forms[b])
        if support is None:
            raise MathViolationError(f"summand ({a},{b}) is not a band projection operator")
        if covered & support:
            raise MathViolationError(
                f"summand ({a},{b}) overlaps another summand on coordinates "
                f"{sorted(covered & support)}"
            )
        covered |= support
        supports.append(support)
    return supports


def _outcome(run):
    try:
        return ("ok", run())
    except FamilyError as err:
        return ("family", str(err), err.witness)
    except MathViolationError as err:
        return ("violation", str(err))


@st.composite
def planted_families(draw):
    """A tensor with planted masks and a family of 1-3 members.

    The base is b_i∗b_i = b_i off a random set of null coordinates, so a
    0/1 member has L_p = R_p = the mask on its support there.  Each
    coordinate belongs to one member or to none; one member may then be
    scaled (2, 1/2), negated, zeroed or made to overlap another.  For a
    coordinate j outside every member, planted entries b_i∗b_j = b_j or
    b_j∗b_i = b_j, for i in a member's support, add j to that member's
    left or right mask without touching orthogonality; they make the
    tensor non-associative, and several on one j make summands overlap.
    Noise entries, negative ones included, may break any of this.
    """
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    k = draw(st.integers(1, 3))
    null = draw(st.sets(index, max_size=2))
    tensor = {(i, i, i): Fraction(1) for i in range(n) if i not in null}
    owner = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    members = [[Fraction(owner[q] == a) for q in range(n)] for a in range(k)]
    change = draw(st.sampled_from(["none"] * 4 + ["scale", "negate", "zero", "overlap"]))
    a = draw(st.integers(0, k - 1))
    if change == "scale":
        members[a] = [c * draw(st.sampled_from([2, Fraction(1, 2)])) for c in members[a]]
    elif change == "negate":
        members[a] = [-c for c in members[a]]
    elif change == "zero":
        members[a] = [Fraction(0)] * n
    elif change == "overlap":
        members[a][draw(index)] = Fraction(1)
    supports = [[q for q, c in enumerate(m) if c] for m in members]
    for j in range(n):
        if any(m[j] for m in members):
            continue
        for support, left in itertools.product(supports, (True, False)):
            if support and draw(st.booleans()):
                i = draw(st.sampled_from(support))
                tensor[(i, j, j) if left else (j, i, j)] = Fraction(1)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        key = draw(st.tuples(index, index, index))
        tensor[key] = Fraction(draw(st.sampled_from([-1, 1, 2]))) / draw(st.sampled_from([1, 2]))
    return AlgebraSpec(dim=n, tensor=tensor, name="planted"), [vec(m) for m in members]


def _check_family_against_reference(alg, members):
    """The same verdict, message and witness as the reference; for a valid
    family also the same supports, or the same overlap message."""
    want = _outcome(lambda: reference_validate_family(alg, members))
    got = _outcome(lambda: la.validate_family(alg, members))
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok" and got[1].members == want[1]
    want_supports = _outcome(lambda: reference_summand_supports(alg, members))
    assert _outcome(lambda: list(got[1].summand_supports)) == want_supports


@settings(max_examples=400, deadline=None)
@given(planted_families())
# Outcomes the strategy reaches rarely: summands that overlap, and a
# negative member whose L_p and R_p are both the zero mask.
@example((_overlap_algebra(), [vec([1, 0, 0]), vec([0, 1, 0])]))
@example((AlgebraSpec(dim=2, tensor={(0, 0, 0): Fraction(1)}), [vec([1, 0]), vec([0, -1])]))
def test_validate_family_and_supports_match_the_kernel_reference(case):
    _check_family_against_reference(*case)


def counted(calls, name, fn):
    """fn, with each call counted in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_validated_family_is_read_without_kernel_work(monkeypatch):
    """validate_family asks mask_support for L_p and R_p of each member and
    multiplies nothing; enumerate_inner, is_inner and boolean_laws then do
    no kernel work, and inner_bp's audit builds one mult_op per Γ pair."""
    calls = collections.Counter()
    counting = functools.partial(counted, calls)
    monkeypatch.setattr(projections_module, "mask_support", counting("mask_support", mask_support))
    monkeypatch.setattr(AlgebraSpec, "multiply", counting("multiply", AlgebraSpec.multiply))
    monkeypatch.setattr(inner_module, "mult_op", counting("mult_op", mult_op))
    for name in la.BUILTIN_NAMES:
        alg, family = builtin_family(name)
        calls.clear()
        family = la.validate_family(alg, family.members)
        assert calls == {"mask_support": 2 * len(family)}, name
        calls.clear()
        gammas = la.enumerate_inner(alg, family)
        for bits in itertools.product((0, 1), repeat=alg.dim):
            la.is_inner(alg, family, OperatorMatrix.diagonal(bits))
        for gamma, _ in gammas:
            la.boolean_laws(alg, family, gamma, gamma.complement())
        assert calls == {}, name
        for gamma in (GammaSet.full(len(family)), gammas[-1][0]):
            calls.clear()
            la.inner_bp(alg, family, gamma)
            assert calls == {"mult_op": len(gamma.pairs)}, name


def test_inner_prints_subset_counts_past_the_digit_limit(tmp_path, capsys):
    """Zero members are valid and may repeat; 2^40000 has 12,042 digits,
    more than str() converts by default."""
    alg = dataclasses.replace(la.builtin("ck2"), elements={"z": vec([0, 0])})
    path = tmp_path / "zeros.json"
    la.save_algebra(alg, path)
    argv = ["inner", str(path), "--cap", "40000"] + ["--family", "z"] * 200
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "distinct inner projections: 1 out of 2^40000 Γ-subsets" in out
    assert main(argv[:2] + ["--family", "z"] * 4) == 0
    assert "1 out of 65536 Γ-subsets" in capsys.readouterr().out


# -- maximal orthogonal families ---------------------------------------------


def reference_maximal_cliques(adjacent):
    """Every clique by a walk over the 2^k vertex subsets, then the ones in
    no larger clique kept by a quadratic filter."""
    k = len(adjacent)
    cliques = [
        members
        for bits in range(1, 1 << k)
        for members in [tuple(i for i in range(k) if bits >> i & 1)]
        if all(j in adjacent[i] for i, j in itertools.combinations(members, 2))
    ]
    return [c for c in cliques if not any(set(c) < set(d) for d in cliques)]


def random_graph(rng, k):
    p = rng.choice([0.2, 0.5, 0.8])
    adjacent = [set() for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        if rng.random() < p:
            adjacent[i].add(j)
            adjacent[j].add(i)
    return [frozenset(a) for a in adjacent]


@pytest.mark.parametrize("seed", range(10))
def test_maximal_cliques_match_the_subset_walk(seed):
    rng = random.Random(seed)
    for _ in range(20):
        adjacent = random_graph(rng, rng.randint(0, 10))
        assert sorted(_maximal_cliques(adjacent)) == sorted(reference_maximal_cliques(adjacent))


def diagonal_algebra(n, null=()):
    """b_i∗b_i = b_i off the null coordinates, every other product 0."""
    tensor = {(i, i, i): Fraction(1) for i in range(n) if i not in null}
    return AlgebraSpec(dim=n, tensor=tensor, name=f"diag{n}")


def test_find_families_matches_the_subset_walk_on_random_pools():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        alg = diagonal_algebra(n, null=rng.sample(range(n), rng.randint(0, 1)))
        pool = [
            vec([rng.choice([0, 0, 1, 1, 2]) for _ in range(n)]) for _ in range(rng.randint(0, 12))
        ]
        eligible = sorted(
            {p.coords: p for p in pool if not p.is_zero() and la.is_left_bp(alg, p)
             and la.is_right_bp(alg, p) and alg.multiply(p, p) == p}.values(),
            key=lambda p: p.coords,
        )
        adjacent = [
            frozenset(j for j, q in enumerate(eligible)
                      if j != i and alg.multiply(p, q).is_zero() and alg.multiply(q, p).is_zero())
            for i, p in enumerate(eligible)
        ]
        want = sorted(
            reference_maximal_cliques(adjacent),
            key=lambda c: (-len(c), [eligible[i].coords for i in c]),
        )
        got = la.find_families(alg, pool)
        assert [f.members for f in got] == [tuple(eligible[i] for i in c) for c in want]


def test_find_families_on_twenty_orthogonal_atoms():
    alg = diagonal_algebra(20)
    atoms = [la.unit(20, i) for i in range(20)]
    start = time.perf_counter()
    families = la.find_families(alg, atoms[::-1])
    assert time.perf_counter() - start < 1.0
    assert [f.members for f in families] == [tuple(sorted(atoms, key=lambda p: p.coords))]
    assert la.find_families(alg, []) == []


def test_find_families_refuses_a_large_pool_before_the_table(monkeypatch):
    alg = diagonal_algebra(21)
    products = []
    real = AlgebraSpec.multiply
    monkeypatch.setattr(
        AlgebraSpec, "multiply", lambda self, x, y: products.append(1) or real(self, x, y)
    )
    with pytest.raises(CapExceededError, match="21 eligible members"):
        la.find_families(alg, [la.unit(21, i) for i in range(21)])
    assert len(products) == 0  # p∗p = p is read off the masks, and no table is built


def test_find_families_reads_each_member_once_and_multiplies_nothing(monkeypatch):
    """One side_masks reading per member (two mask_support calls) decides
    eligibility and orthogonality; no product and no validate_family."""
    calls = collections.Counter()
    counting = functools.partial(counted, calls)
    monkeypatch.setattr(projections_module, "mask_support", counting("mask_support", mask_support))
    monkeypatch.setattr(AlgebraSpec, "multiply", counting("multiply", AlgebraSpec.multiply))
    monkeypatch.setattr(inner_module, "validate_family", counting("validate_family", la.validate_family))
    alg = diagonal_algebra(20)
    atoms = [la.unit(20, i) for i in range(20)]
    (family,) = la.find_families(alg, atoms + atoms[:3])
    assert calls == {"mask_support": 40}
    assert family.members == tuple(sorted(atoms, key=lambda p: p.coords))
    assert family.left == family.right == tuple(p.support() for p in family.members)


def reference_find_families(algebra, pool):
    """find_families before it read masks: is_left_bp, is_right_bp and
    p∗p = p per member, two products per pair, then validate_family per
    maximal clique."""
    eligible = []
    for p in pool:
        if p.is_zero() or p.coords in {q.coords for q in eligible}:
            continue
        if la.is_left_bp(algebra, p) and la.is_right_bp(algebra, p) and algebra.multiply(p, p) == p:
            eligible.append(p)
    eligible.sort(key=lambda p: p.coords)
    adjacent = [
        frozenset(j for j, q in enumerate(eligible) if j != i
                  and algebra.multiply(p, q).is_zero() and algebra.multiply(q, p).is_zero())
        for i, p in enumerate(eligible)
    ]
    cliques = sorted(
        _maximal_cliques(adjacent), key=lambda c: (-len(c), [eligible[i].coords for i in c])
    )
    return [la.validate_family(algebra, [eligible[i] for i in c]) for c in cliques]


@settings(max_examples=300, deadline=None)
@given(planted_families(), st.data())
@example((_overlap_algebra(), [vec([1, 0, 0]), vec([0, 1, 0])]), None)
def test_find_families_matches_the_product_route_on_planted_tensors(case, data):
    """The planted tensors are mostly non-associative.  The pool holds the
    members, their pairwise sums, a duplicate, zero and a ×2 copy."""
    alg, members = case
    pool = members + [p + q for p, q in itertools.combinations(members, 2)]
    pool += [members[0], alg.zero(), members[-1].scale(2)]
    if data is not None:
        pool = data.draw(st.permutations(pool))
    want = reference_find_families(alg, pool)
    got = la.find_families(alg, pool)
    assert got == want  # members and recorded masks


@settings(max_examples=300, deadline=None)
@given(planted_families())
def test_side_masks_match_the_fraction_route_on_planted_tensors(case):
    alg, members = case
    for a in members + [sum(members, alg.zero()), alg.zero()]:
        assert la.side_masks(alg, a) == reference_side_masks(alg, a), a
