"""Acceptance suite: one test per criterion.

Each test records a one-line summary in DETAILS before asserting; the
conftest hook prints "criterion N: PASS/FAIL — detail" lines at the end
of the run.

Criterion 2 contains a clause that is mathematically unsatisfiable given
its other clause: if σ(p) = {−1, 0, 1} then L_p is singular, hence
L_p∘R_p = mult_op(p, p) is singular and cannot equal the identity matrix
(it equals diag(1, 1, 0) here).  The clause is asserted as stated and is
expected to fail; the other clauses of the criterion are asserted first
so their status is still checked.
"""

import itertools
import random
import time
from fractions import Fraction

import latticealg as la
from latticealg import GammaSet, GridSpec, OperatorMatrix, vec
from latticealg.cli import RunConfig, run
from latticealg.operators import is_band_projection_op

DETAILS: dict[int, str] = {}

UNITAL = [n for n in la.BUILTIN_NAMES if la.builtin(n).has_identity()]


def F(*args):
    return Fraction(*args)


def test_criterion_1_upper2_oi_and_bp():
    start = time.perf_counter()
    alg = la.builtin("upper2")
    oi = la.enumerate_order_idempotents(alg)
    oi_coords = sorted(p.coords for p in oi)
    oi_expected = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    ray_ok = all(
        la.is_band_projection(alg, vec([0, t, 0])) for t in (0, "1/2", 1, "7/3")
    )
    oi_bp_ok = all(la.is_band_projection(alg, p) for p in oi)
    negatives_ok = not la.is_band_projection(alg, vec([1, 1, 0])) and not (
        la.is_band_projection(alg, vec([1, "1/2", 0]))
    )
    elapsed = time.perf_counter() - start
    DETAILS[1] = (
        f"upper2: OI = 4 diagonal 0/1 matrices, E12-ray in BP at t∈{{0,1/2,1,7/3}}, "
        f"mixtures rejected [{elapsed:.3f}s]"
    )
    assert oi_coords == oi_expected
    assert ray_ok
    assert oi_bp_ok
    assert negatives_ok
    assert elapsed < 1.0


def test_criterion_2_m3_reflection():
    start = time.perf_counter()
    alg = la.builtin("m3-reflection")
    p = alg.elements["p"]
    m = la.mult_op(alg, p, p)
    result = la.spectrum(alg, p)
    char_ok = result.char_poly == (F(0), F(1), F(0), F(-1))
    sigma_ok = result.sigma() == frozenset({F(-1), F(0), F(1)})
    identity_ok = m == OperatorMatrix.identity(3)
    elapsed = time.perf_counter() - start
    DETAILS[2] = (
        f"m3-reflection: char −λ³+λ {'ok' if char_ok else 'WRONG'}; "
        f"σ(p)={{−1,0,1}} {'ok' if sigma_ok else 'WRONG'}; "
        + (
            "mult_op(p,p)=I₃ ok"
            if identity_ok
            else "mult_op(p,p)=I₃ FAILS — it equals diag(1,1,0): σ(p)∋0 makes L_p "
            "singular, so L_p∘R_p can never be the identity"
        )
        + f" [{elapsed:.3f}s]"
    )
    assert char_ok
    assert sigma_ok
    assert elapsed < 1.0
    assert identity_ok


def test_criterion_3_pair_fixture():
    alg = la.builtin("upper2-pair")
    q = alg.elements["q"]
    c = la.classify(alg, q)
    result = la.spectrum(alg, q)
    oi = la.enumerate_order_idempotents(alg)
    sigma_str = "{" + ", ".join(str(s) for s in sorted(result.sigma())) + "}"
    DETAILS[3] = (
        f"upper2-pair: q is BP {c.is_bp} / OI {c.is_oi}; σ(q) = "
        f"{sigma_str}; OI count = {len(oi)}"
    )
    assert c.is_bp is True
    assert c.is_oi is False
    assert result.sigma() == frozenset({F(0), F(1)})
    assert len(oi) == 16


def test_criterion_4_noid3():
    alg = la.builtin("noid3")
    no_identity = la.find_identity(alg) is None
    pool = [vec(bits) for bits in itertools.product([0, 1], repeat=3)]
    core = sorted(
        p.coords
        for p in pool
        if la.is_left_bp(alg, p) and la.is_right_bp(alg, p)
    )
    core_expected = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    family = la.validate_family(alg, [alg.elements["p1"], alg.elements["p2"]])
    found = la.enumerate_inner(alg, family)
    matrices = {
        OperatorMatrix.diagonal([int(i in support) for i in range(3)]).entries
        for _, support in found
    }
    expected_matrices = {
        OperatorMatrix.zero(3).entries,
        OperatorMatrix.diagonal([1, 0, 0]).entries,
        OperatorMatrix.diagonal([0, 1, 0]).entries,
        OperatorMatrix.diagonal([1, 1, 0]).entries,
    }
    zmask = OperatorMatrix.diagonal([0, 0, 1])
    z_is_bp_op = is_band_projection_op(zmask)
    z_witness = la.is_inner(alg, family, zmask)
    DETAILS[4] = (
        f"noid3: identity none; BP_l∩BP_r pool = {{0, p1, p2, p1+p2}}; "
        f"{len(found)} distinct inner; z-projection is a BP operator yet not inner"
    )
    assert no_identity
    assert core == core_expected
    assert len(found) == 4 and matrices == expected_matrices
    assert z_is_bp_op
    assert z_witness is None


def test_criterion_5_rk_oracle_suite():
    start = time.perf_counter()
    rng = random.Random(20260826)

    def rand_scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    checked = 0
    for trial in range(200):
        dim = 2 + trial % 5
        s = OperatorMatrix.from_rows(
            [[rand_scalar() for _ in range(dim)] for _ in range(dim)]
        )
        t = OperatorMatrix.from_rows(
            [[rand_scalar() for _ in range(dim)] for _ in range(dim)]
        )
        sup = la.op_sup(s, t)
        for _ in range(5):
            x = vec([abs(rand_scalar()) for _ in range(dim)])
            assert la.rk_oracle(s, t, x) == sup.apply(x)
            checked += 1
    elapsed = time.perf_counter() - start
    DETAILS[5] = (
        f"{checked} vertex-enumeration suprema over dims 2–6 agree with the "
        f"entrywise formula [{elapsed:.2f}s]"
    )
    assert checked == 1000
    assert elapsed < 30.0


def test_criterion_6_boolean_suites():
    # (a) OI(A) is a Boolean algebra matching the lattice structure
    oi_pairs = 0
    for name in UNITAL:
        alg = la.builtin(name)
        oi = la.enumerate_order_idempotents(alg)
        oi_set = {p.coords for p in oi}
        for p, q in itertools.product(oi, repeat=2):
            res = la.oi_boolean(alg, p, q)  # raises on any law violation
            assert res.join.coords in oi_set
            assert res.meet.coords in oi_set
            assert res.complement_p.coords in oi_set
            oi_pairs += 1
    # (b) inner projections form a Boolean algebra over each 2-member family
    law_checks = 0
    for name, members in (("noid3", ("p1", "p2")), ("m2-regular", ("E11", "E22"))):
        alg = la.builtin(name)
        family = la.validate_family(alg, [alg.elements[m] for m in members])
        gammas = [GammaSet.of(itertools.compress(itertools.product(range(2), repeat=2), bits), 2) for bits in itertools.product((0, 1), repeat=4)]
        for g, h in itertools.product(gammas, repeat=2):
            assert la.boolean_laws(alg, family, g, h).ok
            law_checks += 1
    m2 = la.builtin("m2-regular")
    m2_family = la.validate_family(m2, [m2.elements["E11"], m2.elements["E22"]])
    distinct = len(la.enumerate_inner(m2, m2_family))
    DETAILS[6] = (
        f"OI Boolean ops verified on {oi_pairs} pairs across {len(UNITAL)} unital "
        f"fixtures; inner laws on {law_checks} (Γ,Δ) pairs; m2-regular has "
        f"{distinct} distinct inner projections"
    )
    assert distinct == 16


def test_criterion_7_identity_ideal_suite():
    rng = random.Random(73)

    def rand_scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    recon = ck_checked = inverses = truncations = 0
    for name in UNITAL:
        alg = la.builtin(name)
        e = alg.require_identity()
        basis = la.identity_ideal(alg)
        for _ in range(100):
            x = vec([rand_scalar() for _ in range(alg.dim)])
            x_e = basis.project(x)
            x_d = x - x_e
            assert x_e + x_d == x
            assert la.in_identity_ideal(alg, x_e)
            assert x_d.abs().is_disjoint(e)
            recon += 1
        rep = la.ck_representation(alg)
        total = alg.zero()
        for i, a in enumerate(rep.atoms):
            assert a.is_positive() and not a.is_zero()
            total = total + a
            for j, b in enumerate(rep.atoms):
                assert alg.multiply(a, b) == (a if i == j else alg.zero())
        assert total == e
        x = rep.from_coords([rand_scalar() for _ in range(rep.n_points)])
        y = rep.from_coords([rand_scalar() for _ in range(rep.n_points)])
        assert rep.coords(alg.multiply(x, y)) == tuple(
            cx * cy for cx, cy in zip(rep.coords(x), rep.coords(y))
        )
        assert rep.norm_e(x) == max(abs(c) for c in rep.coords(x))
        ck_checked += 1
        done = 0
        while done < 20:
            coords = [
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(rep.n_points)
            ]
            a = rep.from_coords(coords)
            if la.invert_element(alg, a) is None:
                continue
            report = la.inverse_closed_check(alg, a)
            assert report.ok and report.invertible
            assert report.inverse_in_ideal and report.two_sided
            done += 1
            inverses += 1
        for _ in range(20):
            a = vec([abs(rand_scalar()) for _ in range(alg.dim)])
            report = la.truncation_cauchy_check(alg, a, n_max=20)
            assert report.ok, (name, report.failures)
            assert report.bound_holds and report.monotone
            truncations += 1
    DETAILS[7] = (
        f"per unital fixture: 100 band decompositions, C(K) invariants, 20 "
        f"inverse-closure checks, 20 truncation bounds "
        f"(totals {recon}/{ck_checked}/{inverses}/{truncations})"
    )
    assert recon == 100 * len(UNITAL)
    assert inverses == 20 * len(UNITAL)
    assert truncations == 20 * len(UNITAL)


def test_criterion_8_equivalences_and_spectra():
    grid = GridSpec.from_resolution(2)
    certified = 0
    for name in UNITAL:
        alg = la.builtin(name)
        for p, _left, _right in la.search_band_projections(alg, grid):
            check = la.check_equivalences(alg, p)
            assert check.all_equal, (name, p, check.verdicts)
            assert la.check_bp_spectrum(alg, p).ok, (name, p)
            certified += 1
    u = la.builtin("upper2")
    ck = la.builtin("ck2")
    m3 = la.builtin("m3-reflection")
    center_cases = [
        la.positive_spectrum_center_check(u, u.require_identity().scale(2)),
        la.positive_spectrum_center_check(ck, vec([1, 3])),
        la.positive_spectrum_center_check(m3, m3.elements["p"] + m3.require_identity().scale(2)),
    ]
    shift_ok = (
        la.shifted_idempotent_check(u, u.require_identity(), 0).shifted
        == u.require_identity()
        and la.shifted_idempotent_check(ck, vec([2, 3]), 2).shifted == vec([0, 1])
        and la.shifted_idempotent_check(u, vec([2, 0, 3]), 2).shifted == vec([0, 0, 1])
    )
    DETAILS[8] = (
        f"four-way equivalence and spectrum constraints on {certified} "
        f"grid-certified band projections across {len(UNITAL)} unital fixtures; "
        f"center/shift example cases consistent"
    )
    assert all(c.ok for c in center_cases)
    assert center_cases[0].applicable and center_cases[0].consistent
    assert center_cases[1].applicable and center_cases[1].consistent
    assert not center_cases[2].applicable  # inverse of p+2e is not positive
    assert shift_ok


def test_criterion_9_report_determinism():
    checked = []
    for name in la.BUILTIN_NAMES:
        outputs = []
        for _ in range(2):
            code, text = run(RunConfig(command="report", builtin_name=name))
            assert code == 0
            outputs.append(text)
        assert outputs[0] == outputs[1], f"report for {name} is not deterministic"
        checked.append(name)
    DETAILS[9] = f"byte-identical reports on two runs for {len(checked)} builtins"
    assert len(checked) == len(la.BUILTIN_NAMES)
