"""Order idempotents, band projections, the four equivalences, grid search."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import (
    AlgebraSpec,
    CapExceededError,
    GridSpec,
    LatticeElement,
    NoIdentityError,
    NotBandProjectionError,
    NormSpec,
    NotOrderIdempotentError,
    OperatorMatrix,
    vec,
)
from latticealg import projections
from latticealg.algebra import IntegerTensor
from latticealg.cli import build_report, main
from latticealg.lattice import norm
from latticealg.operators import is_band_projection_op, left_mult, mult_op, right_mult


def test_upper2_order_idempotents_complete():
    alg = la.builtin("upper2")
    oi = la.enumerate_order_idempotents(alg)
    assert sorted(p.coords for p in oi) == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 0),
        (1, 0, 1),
    ]


def test_oi_counts_on_all_unital_fixtures(unital_algebra):
    oi = la.enumerate_order_idempotents(unital_algebra)
    expected = 2 ** len(la.ck_representation(unital_algebra).atoms)
    assert len(oi) == expected
    for p in oi:
        assert la.is_order_idempotent(unital_algebra, p)
        assert unital_algebra.multiply(p, p) == p


# Unital, nonnegative, not associative: b0∗b0 = b0, b1∗b1 = b1 and b2 is
# halved by b0 and by b1 on either side, so e = b0 + b1 and b2∗b2 = 0.
HALVING = {
    "dim": 3,
    "name": "halving",
    "tensor": [
        [0, 0, 0, 1],
        [0, 2, 2, "1/2"],
        [1, 1, 1, 1],
        [1, 2, 2, "1/2"],
        [2, 0, 2, "1/2"],
        [2, 1, 2, "1/2"],
    ],
}
UNITAL_BLOCKS = [n for n in la.BUILTIN_NAMES if la.builtin(n).has_identity()]
_BASIS_SCALES = [Fraction(v) for v in ("1", "2", "1/2", "3", "2/3")]


def permuted_unital_sum(seed):
    """An lp_sum of one to three unital builtins in a permuted, rescaled
    basis, so that e has coordinates other than 0 and 1 in mixed order."""
    rng = random.Random(seed)
    alg = la.lp_sum([la.builtin(rng.choice(UNITAL_BLOCKS)) for _ in range(rng.randint(1, 3))])
    n = alg.dim
    sigma = rng.sample(range(n), n)
    s = [rng.choice(_BASIS_SCALES) for _ in range(n)]
    # b'_σ(i) = s_i·b_i, so c'[σi, σj, σk] = s_i·s_j·c[i, j, k]/s_k.
    tensor = {
        (sigma[i], sigma[j], sigma[k]): s[i] * s[j] * c / s[k]
        for (i, j, k), c in alg.tensor.items()
    }
    return AlgebraSpec(dim=n, tensor=tensor, norm=alg.norm, name=f"perm{seed}")


def reference_order_idempotents(alg):
    """Every 0/1 combination of the atoms, each proved an order idempotent
    by is_order_idempotent, sorted by coordinates."""
    rep = la.ck_representation(alg)
    out = []
    for bits in itertools.product((Fraction(0), Fraction(1)), repeat=rep.n_points):
        p = rep.from_coords(list(bits))
        assert la.is_order_idempotent(alg, p)
        out.append(p)
    return sorted(out, key=lambda x: x.coords)


@pytest.mark.parametrize(
    "alg",
    [la.builtin(n) for n in UNITAL_BLOCKS]
    + [permuted_unital_sum(seed) for seed in range(12)]
    + [la.algebra_from_dict(HALVING)],
    ids=lambda alg: alg.name,
)
def test_oi_enumeration_equals_the_proved_reference(alg):
    assert la.enumerate_order_idempotents(alg) == reference_order_idempotents(alg)


def test_oi_enumeration_makes_no_product(monkeypatch, unital_algebra):
    rep = la.ck_representation(unital_algebra)
    calls = {"multiply": 0, "is_order_idempotent": 0}
    multiply = AlgebraSpec.multiply

    def counted_multiply(self, x, y):
        calls["multiply"] += 1
        return multiply(self, x, y)

    def counted_is_oi(alg, p):
        calls["is_order_idempotent"] += 1
        return la.is_order_idempotent(alg, p)

    monkeypatch.setattr(projections, "ck_representation", lambda alg: rep)
    monkeypatch.setattr(AlgebraSpec, "multiply", counted_multiply)
    monkeypatch.setattr(projections, "is_order_idempotent", counted_is_oi)
    oi = la.enumerate_order_idempotents(unital_algebra)
    assert len(oi) == 2**rep.n_points
    assert calls == {"multiply": 0, "is_order_idempotent": 0}


@pytest.mark.parametrize(
    "alg",
    [la.builtin(n) for n in UNITAL_BLOCKS]
    + [permuted_unital_sum(seed) for seed in range(4)]
    + [la.algebra_from_dict(HALVING)],
    ids=lambda alg: alg.name,
)
def test_oi_and_inverse_verdicts_make_no_product(monkeypatch, alg):
    """classify, the OI list, the atom check, is_order_idempotent and
    invert_element decide their product identities on the integer kernel."""
    e = alg.require_identity()
    named = list(alg.elements.values()) + [e, e.scale(2), alg.zero()]
    multiply = AlgebraSpec.multiply
    calls = []

    def counted_multiply(self, x, y):
        calls.append((x, y))
        return multiply(self, x, y)

    monkeypatch.setattr(AlgebraSpec, "multiply", counted_multiply)
    oi = la.enumerate_order_idempotents(alg)
    la.ck_representation(alg)
    assert all(la.is_order_idempotent(alg, p) for p in oi)
    assert all(la.classify(alg, p).is_oi for p in oi)
    for x in named:
        la.classify(alg, x)
    assert la.invert_element(alg, e) == e
    assert la.invert_element(alg, e.scale(2)) == e.scale(Fraction(1, 2))
    assert calls == []


@pytest.mark.parametrize(
    "alg",
    [la.builtin(n) for n in UNITAL_BLOCKS] + [la.algebra_from_dict(HALVING)],
    ids=lambda alg: alg.name,
)
def test_report_oi_tag_equals_the_predicate(alg):
    section = build_report(alg).split("## Band projections over the grid")[1]
    rows = [line for line in section.split("\n## ")[0].splitlines() if line.startswith("- ")]
    hits = la.search_band_projections(alg, GridSpec.from_resolution(2))
    assert len(rows) == len(hits)
    for row, (p, _left, _right) in zip(rows, hits):
        assert row.split(" — ")[0] == f"- {p!r}"
        assert ("order idempotent" in row) == la.is_order_idempotent(alg, p)


def assert_inclusions_of_every_tensor(alg, c):
    """BP_l ∩ BP_r ⊆ BP, and with an identity e ≥ 0, BP_l ∪ BP_r ⊆ OI: when
    L_a (or R_a) is a mask M, a = M·e, so 0 ≤ a ≤ e and a∗a = M·M·e = a."""
    if c.is_left_bp and c.is_right_bp:
        assert c.is_bp
    if (c.is_left_bp or c.is_right_bp) and alg.has_identity():
        assert c.is_oi or not alg.require_identity().is_positive()


def test_oi_is_not_left_and_right_without_associativity(tmp_path, capsys):
    alg = la.algebra_from_dict(HALVING)
    c = la.classify(alg, vec([1, 0, 0]))
    assert (c.is_oi, c.is_bp, c.is_left_bp, c.is_right_bp) == (True, False, False, False)
    assert_inclusions_of_every_tensor(alg, c)
    path = tmp_path / "halving.json"
    path.write_text(json.dumps(HALVING))
    assert main(["verify", "--input", str(path)]) == 1
    assert "associativity: FAIL" in capsys.readouterr().out
    assert main(["classify", "--input", str(path), "--grid", "2"]) == 0
    assert capsys.readouterr().out == (
        "algebra: halving (dim 3)\n"
        "order idempotents (4, complete):\n"
        "  (0, 0, 0)\n"
        "  (0, 1, 0)\n"
        "  (1, 0, 0)\n"
        "  (1, 1, 0)\n"
        "band projections over grid {0, 1/2, 1} (4 certified):\n"
        "  (0, 0, 0)\n"
        "  (0, 0, 1/2)\n"
        "  (0, 0, 1)\n"
        "  (1, 1, 0)\n"
        "left-and-right band projections among them (2):\n"
        "  (0, 0, 0)\n"
        "  (1, 1, 0)\n"
    )


def test_oi_requires_identity():
    noid = la.builtin("noid3")
    with pytest.raises(NoIdentityError):
        la.is_order_idempotent(noid, vec([1, 0, 0]))
    c = la.classify(noid, vec([1, 0, 0]))
    assert c.is_oi is None
    assert c.is_bp and c.is_left_bp and c.is_right_bp


def test_band_projection_ray_in_upper2():
    alg = la.builtin("upper2")
    for t in (0, "1/2", 1, "7/3", 100):
        assert la.is_band_projection(alg, vec([0, t, 0]))
    # OI is contained in BP
    for p in la.enumerate_order_idempotents(alg):
        assert la.is_band_projection(alg, p)
    # but a mixture of E11 with the ray leaves BP
    assert not la.is_band_projection(alg, vec([1, 1, 0]))
    assert not la.is_band_projection(alg, vec([1, "1/2", 0]))


def test_negative_elements_fail_all_bp_predicates():
    alg = la.builtin("upper2")
    x = vec([0, -1, 0])
    assert not la.is_band_projection(alg, x)
    assert not la.is_left_bp(alg, x)
    assert not la.is_right_bp(alg, x)
    c = la.classify(alg, x)
    assert not c.nonnegative
    assert_inclusions_of_every_tensor(alg, c)


def test_left_right_intersection_inside_bp(unital_algebra):
    grid = GridSpec.from_resolution(2)
    for p, _left, _right in la.search_band_projections(unital_algebra, grid):
        c = la.classify(unital_algebra, p)
        assert c.is_bp
        assert_inclusions_of_every_tensor(unital_algebra, c)


def test_unital_left_right_bp_equals_oi(unital_algebra):
    # with an identity, one-sided band projections collapse onto OI
    for p in la.enumerate_order_idempotents(unital_algebra):
        assert la.is_left_bp(unital_algebra, p)
        assert la.is_right_bp(unital_algebra, p)
    grid = GridSpec.from_resolution(2)
    for p, _left, _right in la.search_band_projections(unital_algebra, grid):
        c = la.classify(unital_algebra, p)
        assert (c.is_left_bp and c.is_right_bp) == c.is_oi


def test_oi_boolean_closure_upper2():
    alg = la.builtin("upper2")
    oi = la.enumerate_order_idempotents(alg)
    oi_set = {p.coords for p in oi}
    for p, q in itertools.product(oi, repeat=2):
        res = la.oi_boolean(alg, p, q)
        assert res.join.coords in oi_set
        assert res.meet.coords in oi_set
        assert res.complement_p.coords in oi_set
        assert res.join == p.sup(q)
        assert res.meet == p.inf(q)


def test_oi_boolean_rejects_non_idempotent():
    alg = la.builtin("upper2")
    with pytest.raises(NotOrderIdempotentError):
        la.oi_boolean(alg, vec([0, 1, 0]), vec([1, 0, 0]))


def test_band_projections_commute():
    alg = la.builtin("m3-reflection")
    grid = GridSpec.from_resolution(2)
    candidates = [hit.element for hit in la.search_band_projections(alg, grid)]
    report = la.commutation_check(alg, candidates)
    assert report.core_commutes
    assert report.core_members


def test_equivalences_on_oi_and_on_the_ray():
    alg = la.builtin("upper2")
    # a genuine order idempotent: all four true
    check = la.check_equivalences(alg, vec([1, 0, 0]))
    assert check.verdicts == (True, True, True, True)
    assert check.all_equal
    assert check.lambda_used == Fraction(3)  # ‖p‖_e + 2
    # the E12 ray point: all four false
    check = la.check_equivalences(alg, vec([0, 1, 0]))
    assert check.verdicts == (False, False, False, False)
    assert check.all_equal
    assert check.lambdas_sampled  # finite λ sample was used
    with pytest.raises(NotBandProjectionError):
        la.check_equivalences(alg, vec([1, 1, 0]))


def test_sampled_lambdas_exceed_an_inexact_weighted_norm():
    """Condition (iv) is sampled at λ > ‖p‖ also when the p-norm is inexact
    and its weights exceed 1: here ‖(0, 1, 0)‖ = √100 = 10, above the
    unweighted Σ|p_i| = 1."""
    weights = (Fraction(100),) * 3
    alg = dataclasses.replace(
        la.builtin("upper2"), norm=NormSpec(kind="p", p=Fraction(2), weights=weights)
    )
    check = la.check_equivalences(alg, vec([0, 1, 0]))
    assert check.verdicts == (False, False, False, False)
    enclosure = norm(check.element, alg.norm)
    assert check.lambdas_sampled
    assert all(lam > enclosure.value + enclosure.error for lam in check.lambdas_sampled)


def test_grid_spec():
    grid = GridSpec.from_resolution(2)
    assert grid.values == (Fraction(0), Fraction(1, 2), Fraction(1))
    assert grid.size(3) == 27
    custom = GridSpec.from_values([0, 1, "7/3"])
    assert Fraction(7, 3) in custom.values
    assert len(list(grid.points(2))) == 9


def test_grid_search_cap():
    alg = la.builtin("upper2-pair")  # dim 6
    with pytest.raises(CapExceededError, match=r"^grid has \d+ points; the limit is 250000$"):
        la.search_band_projections(alg, GridSpec.from_resolution(50))


def test_grid_cap_counts_only_the_points_walked():
    """Points with a negative coordinate are dropped before the cap is
    checked: {-1, 1/2} on dim 32 walks one point, not 2^32."""
    dim = 32
    alg = AlgebraSpec(dim=dim, tensor={(i, i, i): Fraction(2) for i in range(dim)})
    hits = la.search_band_projections(alg, GridSpec.from_values([-1, "1/2"]))
    everything = frozenset(range(dim))
    assert hits == [(vec(["1/2"] * dim), everything, everything)]  # L_a·R_a = I
    assert la.search_band_projections(alg, GridSpec.from_values([-2, "-1/3"])) == []
    with pytest.raises(CapExceededError, match="^grid has 4294967296 points"):
        la.search_band_projections(alg, GridSpec.from_values(["-1/2", 0, 1]))


def test_grid_search_is_sorted_and_certified():
    alg = la.builtin("upper2")
    found = [hit.element for hit in la.search_band_projections(alg, GridSpec.from_resolution(2))]
    assert found == sorted(found, key=lambda p: p.coords)
    assert vec([0, "1/2", 0]).coords in {p.coords for p in found}
    for p in found:
        assert la.is_band_projection(alg, p)


@given(st.fractions(min_value=0, max_value=3, max_denominator=7))
def test_whole_e12_ray_is_bp(t):
    alg = la.builtin("upper2")
    assert la.is_band_projection(alg, vec([0, t, 0]))


# -- the integer mask kernel against the Fraction reference -----------------


def reference_bp_op(m: OperatorMatrix) -> bool:
    """0 ≤ M ≤ I and M∘M == M, evaluated with Fraction matrix products."""
    return m.is_nonnegative() and m.leq(OperatorMatrix.identity(m.dim)) and m.compose(m) == m


def reference_predicates(alg: AlgebraSpec, a: LatticeElement) -> tuple[bool, bool, bool]:
    """(BP, BP_l, BP_r) through mult_op / left_mult / right_mult."""
    if not a.is_positive():
        return (False, False, False)
    return (
        reference_bp_op(mult_op(alg, a, a)),
        reference_bp_op(left_mult(alg, a)),
        reference_bp_op(right_mult(alg, a)),
    )


_SCALES = [Fraction(v) for v in ("1", "2", "1/2", "3", "1/3", "2/3")]
_NOISE = [Fraction(v) for v in ("1", "-1", "1/2", "-2/3", "2", "3/5")]
_COORDS = [Fraction(v) for v in ("1/2", "1/3", "2", "3", "3/2", "-1", "2/5")]


@st.composite
def algebras_and_elements(draw):
    """Tensors of dim 1–4: a rescaled ck-like diagonal (so that hits occur)
    plus noise entries that may be negative or break associativity; and an
    element whose coordinates mix 0/1 with other denominators and signs."""
    n = draw(st.integers(1, 4))
    tensor = {}
    if draw(st.booleans()):
        for i in range(n):
            tensor[(i, i, i)] = draw(st.sampled_from(_SCALES))
    keys = st.tuples(*(st.integers(0, n - 1) for _ in range(3)))
    for key, c in draw(st.lists(st.tuples(keys, st.sampled_from(_NOISE)), max_size=2 * n)):
        tensor[key] = c
    alg = AlgebraSpec(dim=n, tensor=tensor)
    coords = []
    for i in range(n):
        diag = tensor.get((i, i, i))
        pool = [Fraction(0), Fraction(1)] + ([1 / diag] if diag else []) + _COORDS
        coords.append(draw(st.sampled_from(pool)))
    return alg, LatticeElement(tuple(coords))


@settings(max_examples=300, deadline=None)
@given(algebras_and_elements())
def test_mask_kernel_matches_fraction_reference(case):
    alg, a = case
    got = (la.is_band_projection(alg, a), la.is_left_bp(alg, a), la.is_right_bp(alg, a))
    assert got == reference_predicates(alg, a)
    for m in (mult_op(alg, a, a), left_mult(alg, a), right_mult(alg, a)):
        assert is_band_projection_op(m) == reference_bp_op(m)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([Fraction(0), Fraction(1)] + _NOISE), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_mask_test_on_matrices_matches_fraction_reference(rows):
    m = OperatorMatrix.from_rows(rows)
    assert is_band_projection_op(m) == reference_bp_op(m)
    diag = OperatorMatrix.diagonal([row[i] for i, row in enumerate(rows)])
    assert is_band_projection_op(diag) == reference_bp_op(diag)


def reference_side_masks(alg: AlgebraSpec, a: LatticeElement):
    """(supp L_a, supp R_a) read off the dense Fraction matrices."""
    if not a.is_positive():
        return (None, None)
    return left_mult(alg, a).as_mask(), right_mult(alg, a).as_mask()


@pytest.mark.parametrize("name", la.BUILTIN_NAMES)
def test_side_masks_match_the_fraction_route_on_the_grid(name):
    alg = la.builtin(name)
    for point in GridSpec.from_resolution(2).points(alg.dim):
        a = LatticeElement(point)
        assert la.side_masks(alg, a) == reference_side_masks(alg, a), point


@pytest.mark.parametrize("seed", range(8))
def test_side_masks_match_the_fraction_route_on_lp_sums(seed):
    rng = random.Random(seed)
    blocks = ("ck2", "ck3", "upper2", "m2-regular", "noid3", "m3-reflection")
    alg = la.lp_sum([la.builtin(n) for n in rng.sample(blocks, rng.randint(1, 3))])
    coords = [0, 0, 1, 1, Fraction(1, 2), 2, -1]
    for _ in range(60):
        a = vec([rng.choice(coords) for _ in range(alg.dim)])
        assert la.side_masks(alg, a) == reference_side_masks(alg, a), a


@pytest.mark.parametrize("seed", range(8))
def test_grid_hit_masks_equal_mask_support_on_lp_sums(seed):
    """The search reads supp L_a and supp R_a off the kernel's linear
    columns; each hit's masks are what the one-sided mask_support reads."""
    rng = random.Random(seed)
    blocks = ("ck2", "ck3", "upper2", "m2-regular", "noid3", "m3-reflection")
    alg = la.lp_sum([la.builtin(n) for n in rng.sample(blocks, rng.randint(1, 2))])
    grid = GridSpec.from_values([0, Fraction(1, 2), 1, 2])
    hits = la.search_band_projections(alg, grid)
    assert hits
    for a, left, right in hits:
        form = projections.integer_form(alg, a)
        assert left == projections.mask_support(alg, form, None), a
        assert right == projections.mask_support(alg, None, form), a


@pytest.mark.parametrize(
    "name, grid",
    [(name, GridSpec.from_resolution(2)) for name in la.BUILTIN_NAMES]
    + [("upper2", GridSpec.from_values([-1, 0, "1/3", "1/2", 1, "7/3"]))],
)
def test_grid_search_equals_reference_filtered_grid(name, grid):
    alg = la.builtin(name)
    expected = [
        p for p in map(LatticeElement, grid.points(alg.dim)) if reference_predicates(alg, p)[0]
    ]
    assert [hit.element for hit in la.search_band_projections(alg, grid)] == expected


_GRID_VALUES = [Fraction(v) for v in ("0", "1", "-1", "1/2", "-2/3", "2", "1/3")]


@settings(max_examples=150, deadline=None)
@given(algebras_and_elements(), st.lists(st.sampled_from(_GRID_VALUES), max_size=2))
def test_grid_walk_matches_fraction_reference(case, extra):
    """Every hit of the walk on the column forms, with its masks, is what the
    Fraction route finds on every grid point, on tensors that may be
    negative or not associative; the grid mixes the element's coordinates
    (so that hits occur) with values that may be negative."""
    alg, a = case
    grid = GridSpec.from_values(list(a.coords[:2]) + extra)
    expected = [
        (p, *reference_side_masks(alg, p))
        for p in map(LatticeElement, grid.points(alg.dim))
        if reference_predicates(alg, p)[0]
    ]
    assert [tuple(hit) for hit in la.search_band_projections(alg, grid)] == expected


@settings(max_examples=100, deadline=None)
@given(algebras_and_elements(), st.randoms(use_true_random=False))
def test_column_form_is_the_column_of_l_times_r(case, rng):
    """column_form(q) holds column q of D²·L_l·R_r for any l and r, not only
    for l = r as the walk uses it: the same integers as l ∗ (b_q ∗ r)."""
    alg, a = case
    kernel = alg.integer_tensor
    l, _ = projections.integer_form(alg, a)
    r = [rng.choice([0, 1, -2, 3]) for _ in range(alg.dim)]
    for q in range(alg.dim):
        col = [0] * alg.dim
        for i, j, by_k in kernel.column_form(q):
            for k, c in by_k:
                col[k] += c * l[i] * r[j]
        assert col == kernel.product(l, kernel.right_column(r, q))


def test_column_forms_are_built_once_per_kernel(monkeypatch):
    """A search asks for each column form at most once and a later search
    gets the same objects back; single predicates build none."""
    original = IntegerTensor.column_form
    calls = []

    def counting(self, q):
        form = original(self, q)
        calls.append((q, form))
        return form

    monkeypatch.setattr(IntegerTensor, "column_form", counting)
    alg = la.builtin("upper2-pair")
    for x in alg.elements.values():
        la.is_band_projection(alg, x)
        la.classify(alg, x)
    assert calls == []
    # a grid of one nonnegative value is walked and gets mask_support's verdict
    for value in (Fraction(1, 2), Fraction(0)):
        a = LatticeElement((value,) * alg.dim)
        form = projections.integer_form(alg, a)
        sides = ((form, form), (form, None), (None, form))
        bp, left, right = (projections.mask_support(alg, l, r) for l, r in sides)
        expected = [] if bp is None else [(a, left, right)]
        assert la.search_band_projections(alg, GridSpec.from_values([-1, value])) == expected
    calls.clear()
    la.search_band_projections(alg, GridSpec.from_resolution(2))
    first = dict(calls)
    assert len(first) == len(calls) and first
    calls.clear()
    la.search_band_projections(alg, GridSpec.from_resolution(3))
    again = dict(calls)
    assert len(again) == len(calls)
    assert all(again[q] is first[q] for q in again.keys() & first.keys())


def permuted_rescaled(alg: AlgebraSpec, rng: random.Random, scales) -> AlgebraSpec:
    """alg in the basis b'_σ(i) = s_i·b_i, with σ and each s_i drawn from rng:
    c'[σi, σj, σk] = s_i·s_j·c[i, j, k]/s_k."""
    n = alg.dim
    sigma = rng.sample(range(n), n)
    s = [rng.choice(scales) for _ in range(n)]
    tensor = {
        (sigma[i], sigma[j], sigma[k]): c * s[i] * s[j] / s[k]
        for (i, j, k), c in alg.tensor.items()
    }
    return AlgebraSpec(dim=n, tensor=tensor)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("resolution, max_dim", [(2, 6), (3, 5)])
def test_grid_walk_matches_reference_on_permuted_lp_sums(resolution, max_dim, seed):
    """The walk decides a column when it sets the last coordinate the column
    reads; a seeded permutation spreads each block's coordinates, and so the
    coordinates a column reads, over different depths.  The scales put
    1/s_i on the grid, so that hits occur."""
    rng = random.Random(seed)
    blocks = ("ck2", "ck3", "upper2", "m2-regular", "noid3", "m3-reflection")
    names = []
    for name in rng.sample(blocks, len(blocks)):
        if sum(la.builtin(n).dim for n in names + [name]) <= max_dim:
            names.append(name)
    scales = [Fraction(resolution, k) for k in range(1, resolution + 1)]
    alg = permuted_rescaled(la.lp_sum([la.builtin(n) for n in names]), rng, scales)
    grid = GridSpec.from_resolution(resolution)
    expected = [
        (p, *reference_side_masks(alg, p))
        for p in map(LatticeElement, grid.points(alg.dim))
        if reference_predicates(alg, p)[0]
    ]
    assert len(expected) > 1
    assert [tuple(hit) for hit in la.search_band_projections(alg, grid)] == expected


def test_dense_grid_builds_the_forms_a_point_by_point_walk_builds(monkeypatch):
    """On a dense nonnegative tensor every column reads every coordinate, so
    the walk decides all of them at the last one, in column order, as a
    point-by-point test does, and builds the same forms: column 0 fails on
    every nonzero point of {0, 1}^8, and no other form is built."""
    original = IntegerTensor.column_form
    calls = []

    def counting(self, q):
        calls.append(q)
        return original(self, q)

    monkeypatch.setattr(IntegerTensor, "column_form", counting)
    n = 8
    tensor = {
        (i, j, k): Fraction(1 + (i + 2 * j + k) % 3)
        for i in range(n) for j in range(n) for k in range(n)
    }
    alg = AlgebraSpec(dim=n, tensor=tensor)
    hits = la.search_band_projections(alg, GridSpec.from_values([0, 1]))
    assert hits == [(vec([0] * n), frozenset(), frozenset())]
    assert calls == [0]


def test_diagonal_grid_hits_are_their_own_masks():
    """On the diagonal algebra every point of {0, 1}^n is a hit whose L_a and
    R_a are the mask on its support."""
    n = 10
    alg = AlgebraSpec(dim=n, tensor={(i, i, i): Fraction(1) for i in range(n)})
    hits = la.search_band_projections(alg, GridSpec.from_values([0, 1]))
    assert len(hits) == 2**n
    assert [hit.element.coords for hit in hits] == list(itertools.product((0, 1), repeat=n))
    for a, left, right in hits:
        assert left == right == a.support()
