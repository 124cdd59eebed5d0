"""Structure tensors, axioms, identities, direct sums."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticealg as la
from latticealg import AlgebraSpec, InputError, NoIdentityError, vec
from latticealg import algebra as algebra_module
from latticealg.cli import main
from latticealg.lattice import norm

from fraction_linalg import solve as fraction_solve

positives = st.fractions(min_value=0, max_value=8, max_denominator=8)
# Small integers make cancellation between tensor terms likely.
coefficients = st.one_of(
    st.integers(-2, 2).map(Fraction), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)


def positive_elements(dim):
    return st.lists(positives, min_size=dim, max_size=dim).map(vec)


def test_all_builtins_satisfy_axioms():
    for name in la.BUILTIN_NAMES:
        report = la.builtin(name).verify_axioms()
        assert report.ok, f"{name}: {report}"
        assert report.nonnegative and report.associative


def test_negative_tensor_entry_detected():
    alg = AlgebraSpec(dim=2, tensor={(0, 0, 0): Fraction(-1)})
    report = alg.verify_axioms()
    assert not report.nonnegative
    assert (0, 0, 0) in report.negative_entries
    with pytest.raises(InputError):
        alg.validate()


def test_nonassociative_tensor_detected():
    # b0∗b0 = b1, b1∗b0 = b0: (b0 b0) b0 = b0 but b0 (b0 b0) = 0
    alg = AlgebraSpec(dim=2, tensor={(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(1)})
    report = alg.verify_axioms()
    assert report.nonnegative
    assert not report.associative
    assert report.associativity_failures


def test_multiply_matches_tensor_on_upper2():
    alg = la.builtin("upper2")
    e11, e12, e22 = vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])
    assert alg.multiply(e11, e11) == e11
    assert alg.multiply(e11, e12) == e12
    assert alg.multiply(e12, e22) == e12
    assert alg.multiply(e12, e11) == vec([0, 0, 0])
    assert alg.multiply(e12, e12) == vec([0, 0, 0])
    assert alg.power(vec([2, 1, 3]), 2) == alg.multiply(vec([2, 1, 3]), vec([2, 1, 3]))


@given(positive_elements(3), positive_elements(3))
def test_product_of_positives_is_positive(x, y):
    alg = la.builtin("upper2")
    assert alg.multiply(x, y).is_positive()


@given(positive_elements(3), positive_elements(3), positive_elements(3))
def test_multiply_is_bilinear_and_associative(x, y, z):
    alg = la.builtin("m3-reflection")
    assert alg.multiply(x + y, z) == alg.multiply(x, z) + alg.multiply(y, z)
    assert alg.multiply(x, y + z) == alg.multiply(x, y) + alg.multiply(x, z)
    assert alg.multiply(alg.multiply(x, y), z) == alg.multiply(x, alg.multiply(y, z))


def test_identity_found_and_flagged():
    result = la.find_identity(la.builtin("upper2"))
    assert result is not None
    assert result.element == vec([1, 0, 1])
    assert result.is_positive
    assert result.norm_one is True


def test_no_identity_returns_none():
    assert la.find_identity(la.builtin("noid3")) is None
    with pytest.raises(NoIdentityError):
        la.builtin("noid3").solve_identity()
    with pytest.raises(NoIdentityError):
        la.builtin("noid3").require_identity()


def test_identity_laws_reported():
    report = la.builtin("m2-regular").verify_axioms()
    assert report.has_identity
    assert report.identity == vec([1, 0, 0, 1])
    assert report.identity_laws_ok is True
    assert report.identity_positive is True
    assert report.identity_norm_one is True


def test_submultiplicativity_verdicts():
    # idempotent coordinatewise fixtures satisfy the sup-kind sufficient
    # condition u∗u ≤ u at the unit-corner vector
    verdict, _ = la.check_submultiplicativity(la.builtin("ck2"))
    assert verdict == "proved"
    # upper2 fails it at the E12 coordinate: (u∗u)_1 = 2 > 1
    verdict, detail = la.check_submultiplicativity(la.builtin("upper2"))
    assert verdict == "unknown"
    assert "coordinate 1" in detail


def test_one_norm_submultiplicativity_names_the_first_failing_pair():
    one = la.NormSpec(kind="one")
    # b0∗b1 = b1 and b1∗b1 = b0 + b1: only ‖b1∗b1‖ = 2 > 1 fails
    tensor = {(0, 1, 1): Fraction(1), (1, 1, 0): Fraction(1), (1, 1, 1): Fraction(1)}
    verdict, detail = la.check_submultiplicativity(AlgebraSpec(dim=2, tensor=tensor, norm=one))
    assert verdict == "unknown"
    assert detail == "sufficient condition fails at basis pair (1, 1): ‖b_1∗b_1‖ = 2 > 1"
    tensor[(1, 0, 0)] = Fraction(3)
    _, detail = la.check_submultiplicativity(AlgebraSpec(dim=2, tensor=tensor, norm=one))
    assert "basis pair (1, 0)" in detail
    del tensor[(1, 1, 0)], tensor[(1, 0, 0)]
    verdict, _ = la.check_submultiplicativity(AlgebraSpec(dim=2, tensor=tensor, norm=one))
    assert verdict == "proved"


def reference_submultiplicativity(alg):
    """check_submultiplicativity's verdict and detail by Fractions: |c|(u, u),
    the product of u with itself by the tensor |c|, compared with u for the
    sup kind, and the norms of b_i∗b_j, b_i and b_j for the one kind, from
    the tensor's Fraction product."""
    spec = alg.norm
    if spec.kind == "sup":
        u = vec([1 / w for w in spec.weight_vector(alg.dim)])
        absolute = dataclasses.replace(alg, tensor={key: abs(c) for key, c in alg.tensor.items()})
        uu = fraction_product(absolute, u, u)
        product = "u∗u" if absolute.tensor == alg.tensor else "|c|(u, u)"
        if uu.leq(u):
            return "proved", f"{product} ≤ u for the unit-ball corner u"
        bad = next(i for i in range(alg.dim) if uu.coords[i] > u.coords[i])
        return (
            "unknown",
            f"sufficient condition fails at coordinate {bad}: "
            f"({product})_{bad} = {uu.coords[bad]} > u_{bad} = {u.coords[bad]}",
        )
    if spec.kind == "one":
        basis = [alg.basis_element(i) for i in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = norm(fraction_product(alg, basis[i], basis[j]), spec)
                bound = norm(basis[i], spec) * norm(basis[j], spec)
                if prod > bound:
                    return (
                        "unknown",
                        f"sufficient condition fails at basis pair ({i}, {j}): "
                        f"‖b_{i}∗b_{j}‖ = {prod} > {bound}",
                    )
        return "proved", "‖b_i∗b_j‖ ≤ ‖b_i‖·‖b_j‖ on all basis pairs"
    return "unknown", f"no exact certificate for norm kind {spec.kind!r}"


@st.composite
def submultiplicativity_cases(draw):
    """A random tensor of dim 1–4 with negative and fractional entries, or
    a rescaled builtin, under a sup, one or p norm with drawn weights."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(SMALL_BUILTINS))
        n = la.builtin(name).dim
        order = draw(st.permutations(range(n)))
        alg = rescaled_builtin(name, order, draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    else:
        n = draw(st.integers(1, 4))
        index = st.integers(0, n - 1)
        tensor = draw(st.dictionaries(st.tuples(index, index, index), coefficients, max_size=3 * n))
        alg = AlgebraSpec(dim=n, tensor=tensor)
    kind = draw(st.sampled_from(["sup", "one", "p"]))
    weight = WEIGHTS | st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    weights = draw(st.one_of(st.none(), st.lists(weight, min_size=n, max_size=n).map(tuple)))
    p = Fraction(3, 2) if kind == "p" else None
    return dataclasses.replace(alg, norm=la.NormSpec(kind=kind, p=p, weights=weights))


@settings(max_examples=300, deadline=None)
@given(submultiplicativity_cases())
def test_submultiplicativity_matches_the_fraction_reference(alg):
    """The verdict and detail read off the integer kernel are the Fraction
    route's, byte for byte."""
    assert la.check_submultiplicativity(alg) == reference_submultiplicativity(alg)


def test_sup_submultiplicativity_is_decided_with_the_absolute_tensor(tmp_path, capsys):
    # b0∗b0 = −2·b0: u∗u = −2 ≤ 1 = u, but ‖b0∗b0‖ = 2 > 1 = ‖b0‖²
    data = {"dim": 1, "tensor": [[0, 0, 0, -2]], "norm": {"kind": "sup"}}
    detail = "sufficient condition fails at coordinate 0: (|c|(u, u))_0 = 2 > u_0 = 1"
    assert la.check_submultiplicativity(la.algebra_from_dict(data)) == ("unknown", detail)
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    assert f"norm submultiplicativity: unknown — {detail}" in capsys.readouterr().out.splitlines()


@st.composite
def signed_sup_cases(draw):
    """A tensor of dim 1–3 with a negative entry, under the sup norm with
    drawn weights."""
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    tensor = draw(st.dictionaries(st.tuples(index, index, index), coefficients, max_size=3 * n))
    tensor[draw(st.tuples(index, index, index))] = -draw(st.sampled_from([1, 2, Fraction(1, 2)]))
    weights = tuple(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    return AlgebraSpec(dim=n, tensor=tensor, norm=la.NormSpec(kind="sup", weights=weights))


@settings(max_examples=300, deadline=None)
@given(signed_sup_cases())
def test_proved_sup_submultiplicativity_holds_on_the_unit_ball_vertices(alg):
    """Where the sup verdict is "proved", ‖x∗y‖ ≤ 1 for every pair of sign
    vertices x, y of the unit ball, the x_i = ±1/w_i."""
    if la.check_submultiplicativity(alg)[0] != "proved":
        return
    corner = [1 / w for w in alg.norm.weight_vector(alg.dim)]
    vertices = [
        vec([s * c for s, c in zip(signs, corner)])
        for signs in itertools.product((1, -1), repeat=alg.dim)
    ]
    for x in vertices:
        for y in vertices:
            assert norm(fraction_product(alg, x, y), alg.norm) <= 1


def test_lp_sum_blocks():
    u = la.builtin("upper2")
    s = la.lp_sum([u, u], name="pair")
    assert s.dim == 6
    assert s.identity == vec([1, 0, 1, 1, 0, 1])
    assert s.verify_axioms().ok
    # products act blockwise; cross-block products vanish
    x = vec([1, 2, 3, 0, 0, 0])
    y = vec([0, 0, 0, 1, 2, 3])
    assert s.multiply(x, y).is_zero()
    # the builtin pair fixture is exactly this direct sum
    pair = la.builtin("upper2-pair")
    assert pair.tensor == s.tensor
    assert pair.identity == s.identity


def test_lp_sum_rejects_mixed_norms():
    u = la.builtin("upper2")
    other = AlgebraSpec(dim=1, tensor={(0, 0, 0): Fraction(1)}, norm=la.NormSpec(kind="one"))
    with pytest.raises(InputError):
        la.lp_sum([u, other])
    with pytest.raises(InputError):
        la.lp_sum([])


def test_verify_cleans_zero_tensor_entries():
    alg = AlgebraSpec(dim=2, tensor={(0, 0, 0): Fraction(0), (1, 1, 1): Fraction(1)})
    assert (0, 0, 0) not in alg.tensor
    assert alg.basis_product(1, 1) == vec([0, 1])


def test_failed_identity_solve_is_remembered(monkeypatch):
    alg = la.builtin("noid3")
    real_solve = la.linalg.solve
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return real_solve(*args)

    monkeypatch.setattr(la.linalg, "solve", counting_solve)
    for _ in range(3):
        with pytest.raises(NoIdentityError):
            alg.require_identity()
        with pytest.raises(NoIdentityError):
            alg.solve_identity()
        assert not alg.has_identity()
        assert la.find_identity(alg) is None
    assert len(calls) == 1
    # the remembered failure is not part of the value
    assert alg == la.builtin("noid3")
    assert repr(alg) == repr(la.builtin("noid3"))


def test_spec_is_immutable():
    tensor = {(0, 0, 0): Fraction(1)}
    elements = {"e": vec([1])}
    alg = AlgebraSpec(dim=1, tensor=tensor, elements=elements)
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.name = "renamed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.identity = vec([1])
    with pytest.raises(TypeError):
        alg.tensor[(0, 0, 0)] = Fraction(5)
    with pytest.raises(TypeError):
        alg.elements["x"] = vec([2])
    # the spec holds its own copies of the mappings it was built from
    tensor[(0, 0, 0)] = Fraction(5)
    elements["x"] = vec([2])
    assert alg.multiply(vec([1]), vec([1])) == vec([1])
    assert la.is_band_projection(alg, vec([1]))
    assert set(alg.elements) == {"e"}
    # a changed copy is a new spec
    assert dataclasses.replace(alg, name="renamed").name == "renamed"
    assert alg.name == ""


def test_identity_reads_leave_the_spec_unchanged():
    data = la.builtin_dict("upper2")
    del data["identity"]
    alg = la.algebra_from_dict(data)
    twin = la.algebra_from_dict(data)
    before = (repr(alg), la.algebra_to_dict(alg))
    assert alg.has_identity()
    assert alg.verify_axioms().identity == vec([1, 0, 1])
    assert la.classify(alg, alg.elements["E11"]).is_oi is True
    assert alg == twin
    assert (repr(alg), la.algebra_to_dict(alg)) == before
    assert "identity" not in la.algebra_to_dict(alg)
    assert alg.identity is None  # the declared identity only
    assert alg.require_identity() == vec([1, 0, 1])
    # direct sums take the solved identities of their factors
    assert la.lp_sum([alg, alg]).identity == vec([1, 0, 1, 1, 0, 1])


def test_integer_tensor_is_built_once(monkeypatch):
    builds = []

    class CountingTensor(algebra_module.IntegerTensor):
        def __init__(self, algebra):
            builds.append(algebra)
            super().__init__(algebra)

    monkeypatch.setattr(algebra_module, "IntegerTensor", CountingTensor)
    alg = la.builtin("noid3")
    for _ in range(3):
        for x in alg.elements.values():
            la.is_band_projection(alg, x)
            la.is_left_bp(alg, x)
            la.is_right_bp(alg, x)
        la.validate_family(alg, [alg.elements["p1"], alg.elements["p2"]])
        la.search_band_projections(alg, la.GridSpec.from_resolution(2))
    assert builds == [alg]
    # another spec compiles its own
    la.is_band_projection(la.builtin("noid3"), alg.elements["p1"])
    assert len(builds) == 2


# -- the Fraction reference for multiply and verify_axioms -------------------
#
# multiply runs on the integer kernel, verify_axioms decides associativity by
# contracting that kernel and solves the identity from the left-identity rows
# the tensor touches.  The reference below reads `alg.tensor` alone: a
# Fraction product, n³ pairs of basis products, and an identity solved from
# all 2n² rows of the two-sided system by the tests' own Fraction
# Gauss–Jordan (fraction_linalg) and then multiplied against every basis
# element.


def fraction_product(alg, x, y):
    """x ∗ y = Σ c[(i,j,k)]·x_i·y_j·b_k, in Fractions straight from the tensor."""
    out = [Fraction(0)] * alg.dim
    for (i, j, k), c in alg.tensor.items():
        out[k] += x.coords[i] * y.coords[j] * c
    return vec(out)


def reference_identity(alg):
    """The identity (declared, else solved) if e∗b = b∗e = b on the basis, else None."""
    n = alg.dim
    basis = [alg.basis_element(i) for i in range(n)]
    e = alg.identity
    if e is None:
        # Row (i, k) of e ∗ b_i = b_i is Σ_j e_j c[(j, i, k)] = δ_ik, and of
        # b_i ∗ e = b_i it is Σ_j e_j c[(i, j, k)] = δ_ik.
        pairs = [(i, k) for i in range(n) for k in range(n)]
        rows = [[alg.tensor.get((j, i, k), Fraction(0)) for j in range(n)] for i, k in pairs]
        rows += [[alg.tensor.get((i, j, k), Fraction(0)) for j in range(n)] for i, k in pairs]
        rhs = [Fraction(int(i == k)) for i, k in pairs] * 2
        solution = fraction_solve(rows, rhs)
        if solution is None:
            return None
        e = vec(solution)
    if any(fraction_product(alg, e, b) != b or fraction_product(alg, b, e) != b for b in basis):
        return None
    return e


@st.composite
def integer_systems(draw):
    """Rectangular integer systems A·x = b of up to 6×7.  Sparse entries and
    a planted dependent row make rank-deficient A likely; b is A·x₀ (a
    consistent system) or arbitrary (often inconsistent); large entries
    make the elimination reduce its rows by their content."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(10**12), 10**12))
    a = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        a[i] = [s * u + t * v for u, v in zip(a[j], a[k])]
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols))
        b = [sum(u * x for u, x in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(entry, min_size=rows, max_size=rows))
    return a, b


@settings(max_examples=200, deadline=None)
@given(integer_systems())
def test_solve_matches_fraction_reference(system):
    """solve returns the reference solution x as (v, L): x = v/L with L the
    lcm of x's denominators in lowest terms, as integer_form reads it."""
    a, b = system
    form = la.linalg.solve(a, b)
    x = fraction_solve(a, b)
    if x is None:
        assert form is None
    else:
        v, scale = form
        lcm = math.lcm(*(c.denominator for c in x))
        assert (v, scale) == ([c.numerator * (lcm // c.denominator) for c in x], lcm)
        assert [sum(u * w for u, w in zip(row, v)) for row in a] == [scale * c for c in b]


def test_solve_on_singular_and_inconsistent_systems():
    # rank 1: x₁ free, so x = (1, 0); the same rows with b = (1, 3) are inconsistent
    assert la.linalg.solve([[2, 4], [1, 2]], [2, 1]) == ([1, 0], 1)
    assert la.linalg.solve([[2, 4], [1, 2]], [1, 3]) is None
    # overdetermined and consistent, with a zero column: x = (0, 1/3)
    assert la.linalg.solve([[0, 3], [0, 6], [0, -9]], [1, 2, -3]) == ([0, 1], 3)
    # negative pivots: x = (−1/2, 2/3) over a positive L
    assert la.linalg.solve([[-2, 0], [0, -3]], [1, -2]) == ([-3, 4], 6)
    assert la.linalg.solve([[0, 0]], [0]) == ([0, 0], 1)
    assert la.linalg.solve([[0, 0]], [5]) is None


def reference_axioms(alg):
    """(negative entries, associativity failures, has identity, identity, laws ok).

    The identity reported is the identity, else a declared candidate that
    fails the laws, whose laws are then False; None (laws None) otherwise."""
    n = alg.dim
    negative = sorted(key for key, c in alg.tensor.items() if c < 0)
    basis = [alg.basis_element(i) for i in range(n)]
    products = [[fraction_product(alg, basis[i], basis[j]) for j in range(n)] for i in range(n)]
    failures = [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if fraction_product(alg, products[i][j], basis[k])
        != fraction_product(alg, basis[i], products[j][k])
    ]
    e = reference_identity(alg)
    candidate = alg.identity if e is None else e
    laws = None if candidate is None else all(
        fraction_product(alg, candidate, b) == b and fraction_product(alg, b, candidate) == b
        for b in basis
    )
    return negative, failures, e is not None, candidate, laws


def rescaled_builtin(name, order, scales):
    """A builtin relabelled b'_j = d_j·b_σ(j): c'_ijk = c_σ(i)σ(j)σ(k)·d_i·d_j/d_k."""
    alg = la.builtin(name)
    where = {old: new for new, old in enumerate(order)}
    tensor = {
        (where[i], where[j], where[k]): c * scales[where[i]] * scales[where[j]] / scales[where[k]]
        for (i, j, k), c in alg.tensor.items()
    }
    return AlgebraSpec(dim=alg.dim, tensor=tensor)


def sheared(alg, a, b, t):
    """The same algebra in the basis b'_a = b_a + t·b_b (a ≠ b), b'_j = b_j
    otherwise.  It stays associative, and its negative entries make terms
    of the contraction cancel."""
    n = alg.dim
    new_basis = [
        vec([int(r == j) + (t if (j, r) == (a, b) else 0) for r in range(n)]) for j in range(n)
    ]
    tensor = {}
    for i in range(n):
        for j in range(n):
            x = list(fraction_product(alg, new_basis[i], new_basis[j]).coords)
            x[b] -= t * x[a]  # back to the new basis
            tensor.update({(i, j, k): c for k, c in enumerate(x) if c})
    return AlgebraSpec(dim=n, tensor=tensor)


SMALL_BUILTINS = [n for n in la.BUILTIN_NAMES if la.builtin(n).dim <= 5]
UNITAL_BUILTINS = [n for n in la.BUILTIN_NAMES if la.builtin(n).has_identity()]
# Small signed scales and weights, so that identities of norm one, and ones
# with negative coordinates, are drawn often.
SIGNED_SCALES = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3), 3]).map(Fraction)
WEIGHTS = st.sampled_from([1, 2, Fraction(1, 2), Fraction(1, 3), 3]).map(Fraction)


@st.composite
def identity_flag_cases(draw):
    """A unital builtin relabelled with signed scales, perhaps sheared, under
    a sup, one or p norm with drawn weights (or none), and with its identity
    solved or declared."""
    name = draw(st.sampled_from(UNITAL_BUILTINS))
    n = la.builtin(name).dim
    order = draw(st.permutations(range(n)))
    alg = rescaled_builtin(name, order, draw(st.lists(SIGNED_SCALES, min_size=n, max_size=n)))
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        alg = sheared(alg, a, b, draw(st.sampled_from([-1, 1, 2])))
    kind = draw(st.sampled_from(["sup", "one", "p"]))
    weights = draw(st.one_of(st.none(), st.lists(WEIGHTS, min_size=n, max_size=n).map(tuple)))
    p = Fraction(3, 2) if kind == "p" else None
    alg = dataclasses.replace(alg, norm=la.NormSpec(kind=kind, p=p, weights=weights))
    if draw(st.booleans()):
        alg = dataclasses.replace(alg, identity=alg.require_identity())
    return alg


@settings(max_examples=150, deadline=None)
@given(identity_flag_cases())
def test_identity_flags_match_the_fraction_reference(alg):
    # is_positive and norm_one are read off e's integer form; e.is_positive()
    # and lattice.norm are the Fraction reference, and a p-norm leaves
    # ‖e‖ = 1 undecided
    result = alg.solve_identity()
    e = result.element
    assert e == reference_identity(alg)
    assert result.is_positive is e.is_positive()
    if alg.norm.kind == "p":
        assert result.norm_one is None
    else:
        assert result.norm_one is (norm(e, alg.norm) == 1)


@st.composite
def axiom_cases(draw):
    """Random tensors of dims 1–5: sparse with negative and mixed-denominator
    entries, with a planted two-sided, left or right unit, or a relabelled
    (and perhaps sheared) builtin, each perturbed or not; sometimes with a
    declared identity, the planted unit or a wrong one."""
    shape = draw(st.sampled_from(["random", "unit", "builtin"]))
    candidates = [st.none(), st.lists(st.integers(0, 2), min_size=1, max_size=5)]
    if shape == "builtin":
        name = draw(st.sampled_from(SMALL_BUILTINS))
        n = la.builtin(name).dim
        order = draw(st.permutations(range(n)))
        scales = draw(st.lists(st.fractions(1, 4, max_denominator=4), min_size=n, max_size=n))
        alg = rescaled_builtin(name, order, scales)
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            alg = sheared(alg, a, b, draw(st.sampled_from([-1, 1, 2])))
        tensor = dict(alg.tensor)
    else:
        n = draw(st.integers(1, 5))
        index = st.integers(0, n - 1)
        tensor = draw(st.dictionaries(st.tuples(index, index, index), coefficients, max_size=3 * n))
        if shape == "unit":
            u = draw(index)
            sides = draw(st.sampled_from([(0, 1), (0,), (1,)]))  # u∗b_j = b_j, b_j∗u = b_j
            tensor = {key: c for key, c in tensor.items() if all(key[side] != u for side in sides)}
            for j in range(n):
                for side in sides:
                    tensor[(u, j, j) if side == 0 else (j, u, j)] = Fraction(1)
            candidates.append(st.just([int(i == u) for i in range(n)]))
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2))):
        tensor[draw(st.tuples(index, index, index))] = draw(coefficients)
    declared = draw(st.one_of(*candidates))
    if declared is not None:
        declared = vec((declared * n)[:n])
    return AlgebraSpec(dim=n, tensor=tensor, identity=declared)


@settings(max_examples=300, deadline=None)
@given(axiom_cases())
def test_verify_axioms_matches_fraction_reference(alg):
    negative, failures, has_identity, identity, laws = reference_axioms(alg)
    report = alg.verify_axioms()
    assert report.negative_entries == negative
    assert report.associativity_failures == failures
    assert report.has_identity is has_identity
    assert report.identity == identity
    assert report.identity_laws_ok == laws
    assert report.ok is (not negative and not failures and laws is not False)
    if identity is not None:
        # the flags of the identity, or of the declared candidate that fails
        assert report.identity_positive is identity.is_positive()
        assert report.identity_norm_one is (norm(identity, alg.norm) == 1)


@settings(max_examples=200, deadline=None)
@given(axiom_cases())
def test_identity_form_is_the_integer_form_of_e(alg):
    """The form a solved or declared identity keeps is integer_form of e:
    the numerators over the lcm of e's reduced denominators."""
    if alg.has_identity():
        result = alg.solve_identity()
        assert result.form == algebra_module.integer_form(alg, result.element)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiply_matches_fraction_reference(data):
    alg = data.draw(axiom_cases())
    elements = st.lists(coefficients, min_size=alg.dim, max_size=alg.dim).map(vec)
    x, y = data.draw(elements), data.draw(elements)
    assert alg.multiply(x, y) == fraction_product(alg, x, y)
    for i in range(alg.dim):
        for j in range(alg.dim):
            b_i, b_j = alg.basis_element(i), alg.basis_element(j)
            assert alg.basis_product(i, j) == fraction_product(alg, b_i, b_j)


@st.composite
def product_identity_cases(draw):
    """(alg, x, y, z): a random tensor of dim 1–4 with negative entries,
    usually not associative, and z drawn as x∗y, as x∗y with one
    coordinate changed, or at random."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    tensor = draw(st.dictionaries(st.tuples(index, index, index), coefficients, max_size=3 * n))
    alg = AlgebraSpec(dim=n, tensor=tensor)
    elements = st.lists(coefficients, min_size=n, max_size=n).map(vec)
    x, y = draw(elements), draw(elements)
    shape = draw(st.sampled_from(["product", "changed", "random"]))
    if shape == "random":
        return alg, x, y, draw(elements)
    z = list(fraction_product(alg, x, y).coords)
    if shape == "changed":
        k = draw(index)
        z[k] += draw(coefficients.filter(bool))
    return alg, x, y, vec(z)


@settings(max_examples=150, deadline=None)
@given(product_identity_cases())
def test_product_is_matches_the_fraction_reference(case):
    """product_is decides x∗y = z on integers; multiply, whose value is
    compared here, is the Fraction reference."""
    alg, x, y, z = case
    assert alg.product_is(x, y, z) == (alg.multiply(x, y) == z)


def test_product_is_builds_no_product(monkeypatch):
    alg = la.builtin("upper2")
    x, y = vec(["1/2", 3, 2]), vec([2, "-1/3", "1/5"])
    xy = alg.multiply(x, y)
    monkeypatch.setattr(AlgebraSpec, "multiply", lambda *args: pytest.fail("multiply called"))
    assert alg.product_is(x, y, xy)
    assert not alg.product_is(x, y, xy + vec([0, 0, "1/7"]))
    assert not alg.product_is(y, x, xy)


def test_long_denominators_are_refused_before_any_product(monkeypatch):
    """The product count is weighted by the length of the kernel's entries,
    so a tensor of 27 short entries 1/(10⁴²⁹⁹ + 2k + 1), whose common
    denominator has 116,059 digits and whose contraction would run for
    seconds, is refused before a single product is made."""
    keys = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    tensor = {key: Fraction(1, 10**4299 + 2 * t + 1) for t, key in enumerate(keys)}
    alg = AlgebraSpec(dim=3, tensor=tensor)

    def refuse(*args):
        raise AssertionError("product made")

    monkeypatch.setattr(AlgebraSpec, "multiply", refuse)
    monkeypatch.setattr(algebra_module.IntegerTensor, "product", refuse)
    monkeypatch.setattr(algebra_module.IntegerTensor, "left_column", refuse)
    monkeypatch.setattr(algebra_module.IntegerTensor, "right_column", refuse)
    with pytest.raises(
        la.CapExceededError,
        match=r"^the associativity check needs \d+ tensor products "
        r"\(486 products of 5801-word entries\); the limit is 16777216$",
    ):
        alg.verify_axioms()


def test_long_denominators_are_refused_before_the_lcm(monkeypatch):
    """64 entries 1/(10⁴²⁹⁹ + 2k + 1) have distinct denominators of 913,984
    bits in all, past MAX_DENOMINATOR_BITS: the kernel is refused before
    their lcm is taken.  The dim-3 tensor of 27 such entries (385,587 bits)
    is still built, and refused by the associativity count (above)."""
    keys = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
    tensor = {key: Fraction(1, 10**4299 + 2 * t + 1) for t, key in enumerate(keys)}
    alg = AlgebraSpec(dim=4, tensor=tensor)
    monkeypatch.setattr(algebra_module.math, "lcm", lambda *args: pytest.fail("lcm taken"))
    with pytest.raises(
        la.CapExceededError,
        match=r"^the tensor's distinct denominators have 913984 bits in all; the limit is 524288$",
    ):
        alg.integer_tensor


def test_repeated_denominators_count_once():
    # 125 entries 1/d with d of 5,000 bits: 5,000 bits in all, not 625,000
    d = 2**4999 + 1
    n = 5
    tensor = {(i, j, k): Fraction(1, d) for i in range(n) for j in range(n) for k in range(n)}
    assert AlgebraSpec(dim=n, tensor=tensor).integer_tensor.den == d


@pytest.mark.parametrize("bits", [1, 64, 320, 321])
def test_products_of_long_entries_are_charged_more(monkeypatch, bits):
    """The associative b0∗b0 = C·b0 + b1 needs 4 products (the two entries
    ending in b0 meet the two that start at b0 or have it in the middle).
    Entries of up to five 64-bit words are charged one each, so the limit on
    short entries is unchanged; a sixth word makes the charge 1 + 36//32 = 2."""
    alg = AlgebraSpec(dim=2, tensor={(0, 0, 0): Fraction(2**bits - 1), (0, 0, 1): Fraction(1)})
    monkeypatch.setattr(algebra_module, "MAX_ASSOCIATIVITY_PRODUCTS", 4)
    if bits <= 320:
        assert alg.integer_tensor.associativity_failures() == []
    else:
        with pytest.raises(la.CapExceededError, match=r"needs 8 tensor products \(4 products of 6"):
            alg.integer_tensor.associativity_failures()


def test_associativity_through_cancellation():
    # b0∗b0 = 2b0 − b1, b0∗b2 = b1, b1∗b2 = 2b1: (b0 b0) b2 = 2b1 − 2b1 = 0 =
    # b0 (b0 b2), so (0, 0, 2) holds only because two terms cancel
    alg = AlgebraSpec(
        dim=3,
        tensor={
            (0, 0, 0): Fraction(2),
            (0, 0, 1): Fraction(-1),
            (0, 2, 1): Fraction(1),
            (1, 2, 1): Fraction(2),
        },
    )
    assert alg.verify_axioms().associativity_failures == [(0, 2, 2), (1, 2, 2)]
    assert reference_axioms(alg)[1] == [(0, 2, 2), (1, 2, 2)]


def test_identity_and_associativity_use_no_fraction_products(monkeypatch):
    alg = la.builtin("m2-regular")

    def refuse(*args):
        raise AssertionError("multiply called")

    monkeypatch.setattr(AlgebraSpec, "multiply", refuse)
    monkeypatch.setattr(AlgebraSpec, "basis_product", refuse)
    assert alg.has_identity()
    assert alg.require_identity() == vec([1, 0, 0, 1])
    assert alg.integer_tensor.associativity_failures() == []


# -- algebras without an identity ----------------------------------------------

NO_IDENTITY = {
    "left-units": {"dim": 3, "tensor": [[i, j, j, 1] for i in range(3) for j in range(3)]},
    "right-units": {"dim": 3, "tensor": [[i, j, i, 1] for i in range(3) for j in range(3)]},
    "noid3": {key: value for key, value in la.builtin_dict("noid3").items() if key != "name"},
    "empty": {"dim": 3, "tensor": []},
}


@pytest.mark.parametrize("name", sorted(NO_IDENTITY))
def test_no_identity_is_reported_as_such(name, tmp_path, capsys):
    # Left units alone solve e ∗ b = b (every e with Σ e_j = 1 does), and
    # the solved candidate then fails b ∗ e = b: still "no identity".
    data = dict(NO_IDENTITY[name], elements={"x": [1, 2, 3]})
    assert not la.algebra_from_dict(data).has_identity()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    for fmt in ("text", "json"):
        assert main(["spectrum", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: algebra {name} has no identity\n"


def test_wrong_declared_identity_is_named():
    data = dict(NO_IDENTITY["left-units"], identity=[1, 0, 0])
    with pytest.raises(NoIdentityError, match="candidate identity fails"):
        la.algebra_from_dict(data).solve_identity()


def test_wrong_declared_identity_fails_verify(tmp_path, capsys):
    # b0∗b0 = b0 and b1∗b1 = b1: (1, 1) is the identity, the declared (1, 0) is not
    data = {"dim": 2, "tensor": [[0, 0, 0, 1], [1, 1, 1, 1]], "identity": [1, 0]}
    report = la.algebra_from_dict(data).verify_axioms()
    assert not report.has_identity and not report.ok
    assert report.identity == vec([1, 0])
    assert (report.identity_laws_ok, report.identity_positive, report.identity_norm_one) == (
        False, True, True
    )
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:5] == ["identity: (1, 0)", "  laws: FAIL; positive: yes; norm one: yes"]
    assert lines[-1] == "result: FAIL"
    assert main(["verify", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity"] == [1, 0]
    assert payload["identity_laws_ok"] is False and payload["ok"] is False
    # the report prints the same verdict and exits 1, as verify does
    assert main(["report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "- identity: (1, 0) — laws FAIL, positive: yes, norm one: yes\n" in out
    # commands that need the identity still refuse the candidate
    assert main(["center", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: candidate identity fails e∗b = b∗e = b on the basis\n"
    )


@pytest.mark.parametrize(
    "alg",
    # the builtins without their declared identities, so that the solve runs
    [
        AlgebraSpec(dim=b.dim, tensor=b.tensor, name=b.name)
        for b in map(la.builtin, la.BUILTIN_NAMES)
    ]
    + [la.algebra_from_dict(data) for data in NO_IDENTITY.values()]
    + [AlgebraSpec(dim=64, tensor={})],
    ids=lambda alg: f"{alg.name or 'unnamed'}-{alg.dim}",
)
def test_identity_solve_uses_only_touched_rows(alg, monkeypatch):
    real_solve = la.linalg.solve
    row_counts = []

    def recording_solve(rows, rhs):
        row_counts.append(len(rows))
        return real_solve(rows, rhs)

    monkeypatch.setattr(la.linalg, "solve", recording_solve)
    alg.has_identity()
    # Row (i, k) of e ∗ b_i = b_i is touched by the entries c[(j, i, k)].
    touched = {(i, k) for _j, i, k in alg.tensor}
    assert row_counts and row_counts[0] <= alg.dim + len(touched)
    if not alg.tensor:
        assert row_counts == [alg.dim]
