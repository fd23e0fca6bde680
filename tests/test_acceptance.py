"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every check is exact (no tolerances beyond stated runtime budgets).
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from padicdesk import iwahori as iw
from padicdesk import mahler, tate
from padicdesk.artinian import ArtinianElement, derivation_from_images
from padicdesk.branch import (BranchModel, GeneratorFamily, MPoint,
                              algebraic_product_value, column_point,
                              twisted_product_value, u_conjugator, v_basepoint)
from padicdesk.characters import PCharacter, gauss_sum
from padicdesk.cyclotomic import CyclotomicElement
from padicdesk.glrep import GLBlockModel, WeightData
from padicdesk.interp import (HalfPowerValue, SatakeData, SmoothCharacter,
                              cpr_identity_check, epsilon_inversion_check)
from padicdesk.matrices import ExactMatrix
from padicdesk.rationals import INF, valuation
from padicdesk.suites import (random_congruence_unipotent, _random_invertible_levi,
                              random_subgroup_point, random_unit_box_point)
from padicdesk.uea import (EquivariantFunction, branching_operator_constant,
                           commutator_leibniz_check, commutator_leibniz_words,
                           h_eigenfunctions, mu_sigma,
                           nonvanishing_closed_form, open_orbit_point, uea_act_at)


def _report(num, budget, started, passed, detail=""):
    elapsed = time.time() - started
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {status}  {elapsed:6.1f}s / {budget}s  {detail}")
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


BRANCH_INSTANCES = [
    WeightData(2, 1, 0, [[0, 0, 0, 0]], [0]),
    WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]),      # j = 0 at the boundary
    WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]),      # j = 1 boundary
    WeightData(2, 1, 0, [[0, 2, -1, -3]], [2]),      # j = 2 boundary
    WeightData(2, 1, 0, [[0, 2, -1, -3]], [1]),      # interior j
    WeightData(2, 1, 1, [[1, 1, -1, -2]], [1]),
    WeightData(2, 1, 0, [[0, 3, -2, -3]], [0]),
    WeightData(2, 1, 0, [[0, 3, -2, -3]], [1]),
    WeightData(2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
    WeightData(3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
    WeightData(3, 1, 2, [[0, 1, 0, 0, 0, -1]], [0]),
]

_MODEL_CACHE = {}


def _model(wd: WeightData) -> BranchModel:
    key = (wd.n, wd.d, wd.kappa0, tuple(wd.kappa), wd.j)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = BranchModel(wd, dim_cap=500)
    return _MODEL_CACHE[key]


def test_criterion_01_closed_form_vs_direct_iteration():
    started = time.time()
    p = 3
    dmax = 18
    ok = True
    rnd = random.Random(1)
    for ngens in (1, 2):
        images = [ArtinianElement.constant(ngens, rnd.randrange(1, 4))
                  for _ in range(ngens)]
        der_images = images
        base = derivation_from_images(der_images)
        for lam in (Fraction(1), Fraction(p), Fraction(p * p)):
            der = tate.ShiftDerivation(base, lam)
            for k in range(9):
                for a in range(6):
                    for b in range(6):
                        s = ArtinianElement.constant(ngens, 1)
                        for t in range(ngens):
                            s = s + ArtinianElement.gen(ngens, t) * ((a + b + t) % 3 - 1)
                        closed = tate.binomial_of_derivation_closed(k, s, a, b, der, dmax)
                        direct = tate.binomial_of_derivation_direct(
                            k, tate.TateSeries.monomial(ngens, dmax, s, a, b), der)
                        if closed != direct:
                            ok = False
    _report(1, 30, started, ok, "closed formula == direct iteration, k<=8 a,b<=5")


def test_criterion_02_iwahori_factorization_diagonal():
    started = time.time()
    ok = True
    for a in range(1, 6):
        for perm in permutations(range(1, a + 1)):
            X = iw.permuted_dual_matrix(perm, a)
            xp, xm = iw.iwahori_factor(X)
            if xp * xm != X:
                ok = False
            if [xp.rows[i][i] for i in range(a)] != \
                    iw.iwahori_diagonal_closed_form(perm, a):
                ok = False
    _report(2, 10, started, ok, "UL diagonal closed form, all sigma in S_a, a<=5")


def test_criterion_03_nonvanishing_closed_form():
    started = time.time()
    ok = True
    # per block shape (a, b): weights admitting block-determinant eigenlines
    cases = [
        (1, 1, [(2, -1)]),
        (1, 2, [(1, 0, -1), (1, 0, 0)]),
        (2, 2, [(1, 1, 0, 0)]),
        (1, 3, [(1, 0, 0, -1), (1, 0, 0, 0)]),
        (2, 3, [(1, 1, 1, 0, 0), (1, 1, 0, 0, 0)]),
    ]
    eigenfunctions = 0
    for (a, b, kappas) in cases:
        shape_found = 0
        for kappa in kappas:
            model = GLBlockModel(a + b, kappa, convention="lower")
            total = -sum(kappa)
            u = open_orbit_point(a, b)
            found = 0
            for nu1 in range(-4, 5):
                if (total - nu1 * a) % b:
                    continue
                nu2 = (total - nu1 * a) // b
                sols = h_eigenfunctions(model, a, b, nu1, nu2)
                if len(sols) != 1:
                    continue
                f = EquivariantFunction(model, sols[0])
                fu = f.value(u)
                if fu == 0:
                    continue
                maps = ([[v] for v in range(1, b + 1)] if a == 1
                        else [list(t) for t in permutations(range(1, b + 1), a)])
                for sigma in maps:
                    if uea_act_at(mu_sigma(a, b, sigma), f, u) / fu != \
                            nonvanishing_closed_form(a, b, sigma, nu1, kappa):
                        ok = False
                found += 1
                eigenfunctions += 1
                if found >= 2:
                    break
            if found == 0:
                ok = False
            shape_found += found
        if shape_found < 2:
            ok = False
    _report(3, 60, started, ok,
            f"dual-number action == cycle product, {eigenfunctions} eigenfunctions")


def test_criterion_04_multiplicity_one_and_normalization():
    started = time.time()
    ok = True
    rnd = random.Random(44)
    for wd in BRANCH_INSTANCES:
        bm = _model(wd)
        if bm.eigen_dimension != 1:
            ok = False
        u = u_conjugator(wd.n, wd.d)
        if bm.pair_value(u, v_basepoint(wd.n, wd.d)) != 1:
            ok = False
        for _ in range(20):
            if not bm.eigen_check(random_subgroup_point(wd.n, wd.d, rnd)):
                ok = False
    _report(4, 120, started, ok,
            f"{len(BRANCH_INSTANCES)} instances, eigenspace dim 1, unit normalization, "
            "20-point eigen transformation each")


def test_criterion_05_unit_values():
    started = time.time()
    p = 3
    ok = True
    rnd = random.Random(55)
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    bm = _model(wd)
    for beta in (1, 2):
        M = beta + 2
        for _ in range(50):
            g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
            a = random_unit_box_point(2, p, beta, M, rnd)
            val = bm.box_restriction_value(g, a)
            if valuation(val - 1, p) < beta:
                ok = False
            if val != bm.open_orbit_value(g, column_point(2, a)):
                ok = False
    _report(5, 30, started, ok, "100 points congruent to 1 mod p^beta, both routes")


def test_criterion_06_operator_proportionality():
    started = time.time()
    ok = True
    constants = []
    rnd = random.Random(66)
    for wd in BRANCH_INSTANCES:
        if wd.j[0] < 1:
            continue
        wd0 = WeightData(wd.n, wd.d, wd.kappa0,
                         [list(r) for r in wd.kappa], [0] * wd.d)
        bm = _model(wd)
        bm0 = _model(wd0)
        res = branching_operator_constant(bm, bm0)
        if res["constant"] == 0:
            ok = False
        constants.append(str(res["constant"]))
        for _ in range(2):
            g = _random_invertible_levi(wd.n, wd.d, rnd)
            a = [Fraction(rnd.randint(-4, 4)) for _ in range(2 * wd.n - 1)]
            if bm.cpol_value(g, a) != \
                    res["constant"] * bm.cpol_value(g, a, coords=res["combination"]):
                ok = False
    _report(6, 120, started, ok, f"constants {constants}")


def test_criterion_07_commutator_leibniz():
    started = time.time()
    ok = True
    for n in (2, 3):
        cols = list(range(n + 1, 2 * n + 1))
        monos = [()]
        monos += [(c,) for c in cols]
        monos += [(c1, c2) for c1 in cols for c2 in cols if c1 <= c2]
        monos += [(c1, c2, c3) for c1 in cols for c2 in cols for c3 in cols
                  if c1 <= c2 <= c3]
        for i in range(2, n + 1):
            for mono in monos:
                if not commutator_leibniz_check(n, i, mono):
                    ok = False
    # also as operators on a function model at sample points
    model = GLBlockModel(4, (1, 0, 0, -1), convention="lower")
    f = EquivariantFunction(model, [Fraction(1)] + [Fraction(0)] * (model.dimension - 1))
    pts = [ExactMatrix([[Fraction(1), Fraction(2), Fraction(0), Fraction(1)],
                        [Fraction(0), Fraction(1), Fraction(1), Fraction(2)],
                        [Fraction(1), Fraction(1), Fraction(2), Fraction(0)],
                        [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]])]
    for mono in [(), (3,), (3, 4), (4, 4), (3, 3, 4)]:
        lhs, rhs = commutator_leibniz_words(2, 2, mono)
        if any(uea_act_at(lhs, f, pt) != uea_act_at(rhs, f, pt) for pt in pts):
            ok = False
    _report(7, 30, started, ok, "UEA identity + function-model action, deg <= 3")


def test_criterion_08_gauss_epsilon_fourier():
    started = time.time()
    ok = True
    for p in (3, 5):
        for c in (1, 2):
            for chi in PCharacter.all_characters(p, c):
                if chi.conductor_exp != c:
                    continue
                g = gauss_sum(chi)
                if g * gauss_sum(chi.inverse()) != chi(-1) * Fraction(p) ** c:
                    ok = False
                if gauss_sum(chi, h=c + 1) != g:
                    ok = False
                eta = SmoothCharacter(chi, HalfPowerValue(p, 1))
                if not epsilon_inversion_check(eta):
                    ok = False
    fourier_points = 0
    for p in (3, 5):
        for beta in (1, 2):
            for bp in range(1, beta + 1):
                chars = [c for c in PCharacter.all_characters(p, bp)
                         if c.conductor_exp == bp]
                if p == 5:
                    chars = chars[:2]
                for chi in chars:
                    rep = mahler.fourier_expand_fchi(beta, bp, chi)
                    fourier_points += rep.npoints
                    if not rep.passed:
                        ok = False
            for n in (2, 3):
                for bp in range(0, beta + 1):
                    rep = mahler.fourier_expand_unit_indicator(p, beta, bp, n)
                    fourier_points += rep.npoints
                    if not rep.passed:
                        ok = False
    _report(8, 60, started, ok,
            f"Gauss products, depth independence, inversion, {fourier_points} Fourier points")


def test_criterion_09_cpr_identity_grid():
    started = time.time()
    ok = True
    rnd = random.Random(99)
    done = 0
    for p in (3, 5, 7):
        for n in (2, 3):
            for d in (1, 2):
                for c0 in (1, 2):
                    for k in (1, 2):
                        if done >= 50:
                            break
                        chi0 = PCharacter.from_log(p, c0, k)
                        if chi0.conductor_exp == 0:
                            continue
                        m = max(chi0.order(), 2)
                        unit = CyclotomicElement.zeta(m, rnd.randrange(1, m + 1))
                        chis = [SmoothCharacter(chi0, HalfPowerValue(p, unit))]
                        e = [max(1, c0)]
                        for _ in range(d - 1):
                            chis.append(SmoothCharacter(PCharacter.trivial(p),
                                                        HalfPowerValue(p, 1)))
                            e.append(1)
                        data = SatakeData(n, d, p)
                        if rnd.randrange(2):
                            data = SatakeData(n, d, p, values={
                                (0, n): HalfPowerValue(p, rnd.choice([1, -1]))})
                        if not cpr_identity_check(data, chis, e, n)["passed"]:
                            ok = False
                        done += 1
    # top up to the 50-instance grid with varied unit values and specializations
    while done < 50:
        p = rnd.choice((3, 5, 7))
        chi0 = PCharacter.from_log(p, 2, rnd.randrange(1, p * (p - 1)))
        if chi0.conductor_exp == 0:
            continue
        m = max(chi0.order(), 2)
        unit = CyclotomicElement.zeta(m, rnd.randrange(1, m + 1))
        chis = [SmoothCharacter(chi0, HalfPowerValue(p, unit))]
        data = SatakeData(2, 1, p, values={(0, rnd.choice((1, 2))):
                                           HalfPowerValue(p, rnd.choice([1, -1]))})
        if not cpr_identity_check(data, chis, [chi0.conductor_exp], 2)["passed"]:
            ok = False
        done += 1
    _report(9, 30, started, ok and done >= 50, f"{done} symbolic instances")


def test_criterion_10_coset_combinatorics():
    started = time.time()
    ok = True
    # index exponent against the rank-one enumeration oracle
    if iw.iwahori_index_exponent(2, 1, 2) != 6:
        ok = False
    for p in (2, 3):
        if iw.gl2_index_enumeration(p, 1, 2) != p:
            ok = False
    for p in (2, 3):
        rep = iw.double_coset_singleton(2, p, 1)
        if not rep["passed"] or rep["checked"] != p ** 6:
            ok = False
        ri = iw.intersection_check(2, p, 1, 200, seed=7)
        if not ri["passed"]:
            ok = False
    for n in (2, 3):
        if not iw.coset_witness_identity(n, 1, 3)["passed"]:
            ok = False
        if not iw.coset_witness_identity(n, 2, 3)["passed"]:
            ok = False
    rs = iw.similitude_congruence_check(2, 3, 1, 500, seed=7)
    if not rs["passed"]:
        ok = False
    _report(10, 300, started, ok,
            "index oracle, singletons p in {2,3}, witness n in {2,3}")


def test_criterion_11_perturbation_and_overconvergence():
    started = time.time()
    p = 3
    ok = True
    thresholds = []
    for npow in (3, 4, 5):
        T = tate.shift_matrix(4, p) + tate.cyclic_shift_matrix(4, p ** npow)
        rep = tate.epsilon_action_bound(T, Fraction(1, 2), 12, p)
        thresholds.append(rep["eventually_below_target_from"])
        if not rep["passed"]:
            ok = False
    chain = tate.OverconvergenceChain(p, 1, 24)
    if chain.annihilator_exponent() != 9 or chain.stage_for_delta(Fraction(1, 2)) != 2:
        ok = False
    rnd = random.Random(111)
    stage = chain.stage_for_delta(Fraction(1, 2))
    for _ in range(200):
        v = {}
        for _ in range(rnd.randrange(1, 6)):
            v[rnd.randrange(-24, 25)] = Fraction(rnd.randrange(-80, 81),
                                                 p ** rnd.randrange(0, 3))
        if not chain.verify_implication(v, Fraction(1, 2), stage)["passed"]:
            ok = False
    # the exhibited special shape from the chain argument
    v = {-18: Fraction(9), 0: Fraction(1)}
    if not chain.verify_implication(v, Fraction(1, 2))["passed"]:
        ok = False
    _report(11, 120, started, ok,
            f"decay thresholds {thresholds}, stage bound on 200 samples")
