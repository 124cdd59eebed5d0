"""Structure tensors, axioms, identities, direct sums."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import latticealg as la
from latticealg import AlgebraSpec, InputError, NoIdentityError, vec
from latticealg import algebra as algebra_module
from latticealg.inner import summand_supports

positives = st.fractions(min_value=0, max_value=8, max_denominator=8)


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
    family = la.validate_family(alg, [alg.elements["p1"], alg.elements["p2"]])
    for _ in range(3):
        for x in alg.elements.values():
            la.is_band_projection(alg, x)
            la.is_left_bp(alg, x)
            la.is_right_bp(alg, x)
        summand_supports(alg, family)
        la.search_band_projections(alg, la.GridSpec.from_resolution(2))
    assert builds == [alg]
    # another spec compiles its own
    la.is_band_projection(la.builtin("noid3"), alg.elements["p1"])
    assert len(builds) == 2
