"""Verification suites: each runs a module's identity checks at a configured
scale and returns a JSON-serializable report.

Every check entry carries a stable identifier and a self-describing
statement of the identity it verifies; reports are deterministic for a
fixed configuration (including the seed).  A check whose enumeration grows
with p or n charges its size to `work.charge` under its identifier before
the enumeration starts, in report order, so `--budget` refuses it without
running it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import branch as branch_mod
from . import iwahori as iw
from . import mahler
from . import tate
from . import work
from .artinian import ArtinianElement, derivation_from_images
from .characters import PCharacter, gauss_sum
from .cyclotomic import CyclotomicElement
from .glrep import WeightData, cone_decompose, cone_reconstruct, pieri_character_check
from .interp import (HalfPowerValue, SatakeData, SmoothCharacter, cpr_identity_check,
                     depletion_eigen_factor, epsilon_inversion_check, modulus_deltaB)
from .matrices import ExactMatrix
from .rationals import INF, valuation
from .uea import (EquivariantFunction, UEAElement, branching_operator_constant,
                  commutator_leibniz_check, commute_check, h_eigenfunctions, mu_sigma,
                  nonvanishing_closed_form, open_orbit_point, pbw_normalize, uea_act_at)


def _check(checks: list, cid: str, description: str, passed: bool, **extra):
    entry = {"id": cid, "description": description, "passed": bool(passed)}
    entry.update(extra)
    checks.append(entry)
    return passed


def _report(suite: str, checks: list) -> dict:
    # no timing fields: identical configurations must give identical bytes
    return {
        "suite": suite,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


# ---------------------------------------------------------------------------


def run_mahler_suite(p: int = 3, seed: int = 0) -> dict:
    checks = []
    rnd = random.Random(seed)

    # reconstruction from finite differences at full depth: each depth
    # evaluates p^depth coefficients at p^depth points
    work.charge("mahler.reconstruction", sum(p ** (2 * depth) for depth in (1, 2)),
                "binomial terms")
    ok = True
    for depth in (1, 2):
        table = [Fraction(rnd.randrange(-20, 20)) for _ in range(p ** depth)]
        series = mahler.mahler_coefficients(table, p)
        ok = ok and all(series.evaluate(x) == table[x] for x in range(p ** depth))
    _check(checks, "mahler.reconstruction",
           "finite-difference coefficients reproduce the table through binomials", ok)

    # submultiplicativity of the weighted sup norm under series products
    ok = True
    for _ in range(10):
        f = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 9), p ** rnd.randrange(0, 3))
                                    for _ in range(rnd.randrange(2, 9))])
        g = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 9), p ** rnd.randrange(0, 3))
                                    for _ in range(rnd.randrange(2, 9))])
        eps = Fraction(rnd.randrange(0, 3), 2)
        lhs = mahler.epsilon_norm(mahler.series_product(f, g), eps)
        rhs_f, rhs_g = mahler.epsilon_norm(f, eps), mahler.epsilon_norm(g, eps)
        if lhs != -INF and (rhs_f == -INF or rhs_g == -INF or lhs > rhs_f + rhs_g):
            ok = False
    _check(checks, "mahler.norm_submultiplicative",
           "weighted sup norm exponent of a product is at most the sum", ok)

    # weighted indicator translation invariance
    chi = PCharacter.from_log(p, 1, 1)
    n = 2
    ok = True
    for _ in range(20):
        beta = rnd.randrange(1, 3)
        shift_mod = p ** max(beta, chi.conductor_exp)
        a = [Fraction(rnd.randrange(0, p ** 3), p ** beta) for _ in range(n)]
        a += [Fraction(rnd.randrange(0, p ** 3)) for _ in range(n - 1)]
        v1 = mahler.weighted_indicator(beta, chi, a)
        shifted = [x + shift_mod * rnd.randrange(-2, 3) for x in a]
        v2 = mahler.weighted_indicator(beta, chi, shifted)
        if v1 != v2:
            ok = False
    _check(checks, "mahler.indicator_translation",
           "weighted unit-box indicator is invariant mod p^max(beta, conductor)", ok)

    # Fourier expansions over p-power roots of unity
    for beta in (1, 2):
        for bp in range(1, beta + 1):
            for chi in PCharacter.all_characters(p, bp):
                if chi.conductor_exp != bp:
                    continue
                cid = f"mahler.fourier_slice.b{beta}.bp{bp}.o{chi.order()}"
                # p^(2 beta) points, one term per unit of Z/p^beta at each
                work.charge(cid, p ** (2 * beta) * (p ** beta - p ** (beta - 1)), "terms")
                rep = mahler.fourier_expand_fchi(beta, bp, chi)
                _check(checks, cid, "unit-slice function equals its root-of-unity expansion",
                       rep.passed, points=rep.npoints)
                break  # one character per conductor suffices at suite scale
    for n in (2, 3):
        for beta in (1, 2):
            for bp in range(0, beta + 1):
                cid = f"mahler.fourier_indicator.n{n}.b{beta}.bp{bp}"
                # p^(beta (n-1)) points, p^(beta-bp) histogram entries per coordinate
                work.charge(cid, p ** (beta * (n - 1)) * (n - 1) * p ** (beta - bp),
                            "histogram entries")
                rep = mahler.fourier_expand_unit_indicator(p, beta, bp, n)
                _check(checks, cid, "box indicator equals its root-of-unity expansion",
                       rep.passed, points=rep.npoints)
    return _report("mahler", checks)


# ---------------------------------------------------------------------------


def run_tate_suite(p: int = 3, seed: int = 0, k_max: int = 8, dmax: int = 12) -> dict:
    checks = []
    rnd = random.Random(seed)

    rings = [1, 2]  # one and two nilpotent generators
    lam_values = [Fraction(1), Fraction(p), Fraction(p * p)]
    small_dmax = 6
    closed_calls = [(k, a, b) for k in range(k_max + 1) for a in range(6)
                    for b in range(6) if a + b + k <= dmax]
    norm_calls = [(k, a) for k in range(min(k_max, small_dmax) + 1)
                  for a in range(small_dmax - k + 1)]
    patterns = (len(rings) * len(lam_values)
                * sum(tate.closed_form_patterns(k, a) for k, a, _ in closed_calls)
                + sum(tate.closed_form_patterns(k, a) for k, a in norm_calls))
    work.charge("tate.closed_equals_direct", patterns, "subset patterns")
    ok = True
    exponent_tables = {}
    for ngens in rings:
        images = [ArtinianElement.constant(ngens, rnd.randrange(1, 5))
                  for _ in range(ngens)]
        base = derivation_from_images(images)
        for lam in lam_values:
            der = tate.ShiftDerivation(base, lam)
            for k, a, b in closed_calls:
                s = ArtinianElement.constant(ngens, 1)
                for t in range(ngens):
                    s = s + ArtinianElement.gen(ngens, t) * rnd.randrange(-2, 3)
                closed = tate.binomial_of_derivation_closed(k, s, a, b, der, dmax)
                f = tate.TateSeries.monomial(ngens, dmax, s, a, b)
                direct = tate.binomial_of_derivation_direct(k, f, der)
                if closed != direct:
                    ok = False
    _check(checks, "tate.closed_equals_direct",
           "closed combinatorial formula equals direct operator iteration", ok,
           k_max=k_max, dmax=dmax)

    # binomial operator recursion
    ok = True
    base = derivation_from_images([ArtinianElement.constant(1, 1)])
    der = tate.ShiftDerivation(base, Fraction(1))
    for k in range(min(k_max, 7) + 1):
        s = ArtinianElement.constant(1, 1) + ArtinianElement.gen(1, 0)
        f = tate.TateSeries.monomial(1, dmax, s, 2, 1)
        if not tate.binomial_operator_recursion_check(k, f, der):
            ok = False
    _check(checks, "tate.binomial_recursion",
           "f_k(T)(T - k) = (k+1) f_(k+1)(T) on the truncation", ok)

    # weighted norms of the formula outputs stay within the matrix-certified bound
    der_int = tate.ShiftDerivation(derivation_from_images(
        [ArtinianElement.constant(1, 1)]), Fraction(1))
    mat, _basis = tate.derivation_matrix(der_int, 1, small_dmax)
    eps = Fraction(1, 2)
    bound_rep = tate.epsilon_action_bound(mat, eps, k_max, p)
    cert = max(e for e in bound_rep["exponents"] if e != -INF)
    ok = True
    s = ArtinianElement.gen(1, 0) + 1
    for k, a in norm_calls:
        out = tate.binomial_of_derivation_closed(k, s, a, 0, der_int, small_dmax)
        e = out.norm_exponent(p)
        if e != -INF and -k * eps + e > cert:
            ok = False
    _check(checks, "tate.weighted_norm_bound",
           "formula outputs respect the matrix-certified weighted norm constant",
           ok, certified_exponent=str(cert))

    # perturbation decay, with the empirical congruence-depth threshold
    T = tate.shift_matrix(4, p) + tate.cyclic_shift_matrix(4, p ** 3)
    rep = tate.epsilon_action_bound(T, Fraction(1, 2), 12, p)
    thr = tate.perturbation_threshold(tate.shift_matrix(4, p),
                                      tate.cyclic_shift_matrix(4, 1),
                                      Fraction(1, 2), 12, p, n_max=5)
    _check(checks, "tate.perturbation_decay",
           "weighted exponents of the shifted operator eventually stay below 0",
           rep["passed"] and thr["first_passing_depth"] is not None,
           from_index=rep["eventually_below_target_from"],
           empirical_depth_threshold=thr["first_passing_depth"],
           exponents=[str(e) for e in rep["exponents"]])

    # vanishing for scalar integer operator
    rep2 = tate.epsilon_action_bound(ExactMatrix([[Fraction(3)]]), Fraction(1, 2), 8, p)
    _check(checks, "tate.binomial_vanishing",
           "binomials of an integer scalar vanish beyond its value",
           rep2["exponents"][4] == -INF and rep2["passed"])

    # overconvergence chain
    chain = tate.OverconvergenceChain(p, 1, max(20, p ** 2 * 2))
    work.charge("tate.overconvergence_chain", chain.scan_size(), "norm evaluations")
    M = chain.annihilator_exponent()
    s_half = chain.stage_for_delta(Fraction(1, 2))
    ok = M == p ** 2
    samples_pass = 0
    for _ in range(50):
        v = {}
        for _ in range(rnd.randrange(1, 5)):
            i = rnd.randrange(-chain.depth, chain.depth + 1)
            v[i] = Fraction(rnd.randrange(-50, 50), p ** rnd.randrange(0, 3))
        res = chain.verify_implication(v, Fraction(1, 2), s_half)
        if res["passed"]:
            samples_pass += 1
        else:
            ok = False
    _check(checks, "tate.overconvergence_chain",
           "annihilator-certified stage satisfies the norm interpolation bound",
           ok, annihilator=M, stage=s_half, samples=samples_pass)
    return _report("tate", checks)


# ---------------------------------------------------------------------------


def _random_cone_weight(n: int, d: int, rnd, bound: int = 6) -> WeightData:
    """Rejection-sample a weight in the cone with entries bounded by `bound`."""
    while True:
        w = -rnd.randrange(0, 3)
        head = sorted([rnd.randrange(-bound, bound + 1) for _ in range(n - 1)],
                      reverse=True)  # positions 2..n
        k_mid = min(w, head[-1]) - rnd.randrange(0, 2)  # position n+1
        kap = [rnd.randrange(-2, 3)] + head + [k_mid]
        for i in range(n, 1, -1):  # positions n+2..2n paired with n..2
            kap.append(w - kap[i - 1])
        jmax = kap[n] - kap[n + 1]
        rows = [kap]
        js = [rnd.randrange(0, jmax + 1) if jmax >= 0 else -1]
        for _ in range(d - 1):
            half = sorted([rnd.randrange(0, bound // 2 + 1) for _ in range(n)],
                          reverse=True)
            rows.append(half + [-x for x in reversed(half)])
            js.append(rnd.randrange(0, half[n - 1] + 1))
        try:
            wd = WeightData(n, d, rnd.randrange(-2, 3), rows, js)
        except ValueError:
            continue
        if wd.in_cone():
            return wd


def run_rep_suite(p: int = 3, seed: int = 0) -> dict:
    checks = []
    rnd = random.Random(seed)

    ok = True
    cone_samples = 100
    for _ in range(cone_samples):
        n = rnd.choice((2, 3))
        d = rnd.choice((1, 2))
        wd = _random_cone_weight(n, d, rnd)
        co = cone_decompose(wd)
        back = cone_reconstruct(n, d, co)
        if (back.kappa0, back.kappa, back.j) != (wd.kappa0, wd.kappa, wd.j):
            ok = False
    _check(checks, "rep.cone_roundtrip",
           "generator decomposition reconstructs the weight exactly", ok,
           samples=cone_samples)

    ok = True
    for (kappa, j) in [((2, 0), 1), ((2, 1, 0), 2), ((1, 1, 0), 1), ((3, 1, 0, -1), 2)]:
        if not pieri_character_check(kappa, j):
            ok = False
    _check(checks, "rep.pieri_characters",
           "alternant identity certifies the one-column tensor decomposition", ok)

    # branching instances
    instances = [
        WeightData(2, 1, 0, [[0, 0, 0, 0]], [0]),
        WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]),
        WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]),
        WeightData(2, 1, 0, [[0, 2, -1, -3]], [2]),
        WeightData(2, 1, 1, [[1, 1, -1, -2]], [1]),
        WeightData(2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
        WeightData(3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
    ]
    models = []
    ok = True
    for wd in instances:
        bm = branch_mod.BranchModel(wd)
        models.append(bm)
        if bm.eigen_dimension != 1 or bm.normalization_value() != 1:
            ok = False
    _check(checks, "rep.multiplicity_one",
           "joint eigenspace is one-dimensional with unit base-point value", ok,
           instances=len(instances))

    ok = True
    for bm in models[:4]:
        for _ in range(5):
            m = random_subgroup_point(bm.wd.n, bm.wd.d, rnd)
            if not bm.eigen_check(m):
                ok = False
    _check(checks, "rep.group_eigen_property",
           "group-level eigen transformation holds on integral subgroup points", ok)

    # unit values on the congruence set, with the column-point oracle
    ok = True
    beta = 1
    M = beta + 2
    for bm in models:
        n, d = bm.wd.n, bm.wd.d
        for _ in range(6):
            g = random_congruence_unipotent(n, d, p, beta, M, rnd)
            a = random_unit_box_point(n, p, beta, M, rnd)
            val = bm.box_restriction_value(g, a)
            if valuation(val - 1, p) < beta:
                ok = False
            if val != bm.open_orbit_value(g, branch_mod.column_point(n, a)):
                ok = False
    _check(checks, "rep.unit_values",
           "box restriction is congruent to 1 and matches the column-point oracle",
           ok, beta=beta, depth=M)

    # weighted-indicator compatibility through the generator family
    fam = branch_mod.GeneratorFamily(2, 1)
    chi = PCharacter.from_log(p, 1, 1)
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    bm = branch_mod.BranchModel(wd)
    ok = True
    for trial in range(10):
        g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
        a = random_unit_box_point(2, p, beta, M, rnd)
        if trial % 3 == 2:
            a[2 - 1] = Fraction(p * rnd.randrange(0, p))  # leave the unit box
        tw = branch_mod.twisted_product_value(fam, wd, [chi], g, a)
        ind = mahler.weighted_indicator(beta, chi, a)
        if mahler.in_unit_box(a, 2, p):
            direct = bm.box_restriction_value(g, a)
            if direct != branch_mod.algebraic_product_value(fam, wd, g, a):
                ok = False
            if tw != ind * direct:
                ok = False
        elif not (tw.is_zero() and ind == 0):
            ok = False
    _check(checks, "rep.twisted_restriction",
           "character-twisted restriction equals indicator times plain restriction", ok)
    return _report("rep", checks)


def random_subgroup_point(n: int, d: int, rnd, spread: int = 2) -> branch_mod.MPoint:
    def rand_unimod(m):
        mat = [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]
        for _ in range(2 * m):
            i, j = rnd.randrange(m), rnd.randrange(m)
            if i != j:
                c = rnd.randint(-spread, spread)
                for k in range(m):
                    mat[i][k] += c * mat[j][k]
        return mat

    blk = [[Fraction(1) if i == j else Fraction(0) for j in range(2 * n - 1)]
           for i in range(2 * n - 1)]
    m2, m3 = rand_unimod(n - 1), rand_unimod(n)
    for i in range(n - 1):
        for j in range(n - 1):
            blk[i][j] = m2[i][j]
    for i in range(n):
        for j in range(n):
            blk[n - 1 + i][n - 1 + j] = m3[i][j]
    blocks = [ExactMatrix(blk)]
    for _ in range(d - 1):
        big = [[Fraction(1) if i == j else Fraction(0) for j in range(2 * n)]
               for i in range(2 * n)]
        z1, z2 = rand_unimod(n), rand_unimod(n)
        for i in range(n):
            for j in range(n):
                big[i][j] = z1[i][j]
                big[n + i][n + j] = z2[i][j]
        blocks.append(ExactMatrix(big))
    return branch_mod.MPoint(Fraction(rnd.choice([1, -1, 2])),
                             Fraction(rnd.choice([1, -1, 2, 3])), blocks)


def random_congruence_unipotent(n: int, d: int, p: int, beta: int, M: int, rnd):
    mdim = 2 * n - 1
    blk = [[Fraction(1) if i == j else Fraction(0) for j in range(mdim)] for i in range(mdim)]
    for i in range(mdim):
        for j in range(i):
            blk[i][j] = Fraction(p ** beta * rnd.randrange(0, p ** (M - beta)))
    return branch_mod.MPoint(1, 1, [ExactMatrix(blk)] +
                             [ExactMatrix.identity(2 * n) for _ in range(d - 1)])


def random_unit_box_point(n: int, p: int, beta: int, M: int, rnd) -> list:
    a = [Fraction(rnd.randrange(0, p ** M)) for _ in range(n - 1)]
    a += [Fraction(1 + p ** beta * rnd.randrange(0, p ** (M - beta)))]
    a += [Fraction(p * rnd.randrange(0, p ** (M - 1))) for _ in range(n - 1)]
    return a


# ---------------------------------------------------------------------------


def run_uea_suite(seed: int = 0) -> dict:
    checks = []
    rnd = random.Random(seed)

    # pbw sanity
    e21, e12 = UEAElement.generator(0, 1, 0), UEAElement.generator(0, 0, 1)
    nf = pbw_normalize(e21 * e12)
    want = pbw_normalize(e12 * e21 + UEAElement.generator(0, 1, 1)
                         - UEAElement.generator(0, 0, 0))
    ok = nf == want and pbw_normalize(nf) == nf
    # random products: normal(xy) == normal(normal(x) normal(y))
    gens = [UEAElement.generator(0, i, j) for i in range(3) for j in range(3)]
    for _ in range(15):
        x = gens[rnd.randrange(len(gens))] * gens[rnd.randrange(len(gens))]
        y = gens[rnd.randrange(len(gens))]
        if pbw_normalize(x * y) != pbw_normalize(pbw_normalize(x) * pbw_normalize(y)):
            ok = False
    _check(checks, "uea.pbw_normal_form",
           "rewriting is idempotent and a fixpoint for products", ok)

    # determinant arrays commute and are order-independent
    ok = all(commute_check([[UEAElement.generator(0, i, j + n) for j in range(n)]
                            for i in range(n)]) for n in (2, 3))
    _check(checks, "uea.det_entries_commute",
           "all entries of the determinant arrays pairwise commute", ok)

    # commutator bracket instance
    ok = True
    for n in (2, 3):
        for i in range(2, n + 1):
            for k in range(n + 1, 2 * n + 1):
                x = UEAElement.generator(0, i - 1, 0)
                y = UEAElement.generator(0, 0, k - 1)
                if pbw_normalize(x * y - y * x) != UEAElement.generator(0, i - 1, k - 1):
                    ok = False
    _check(checks, "uea.bracket_e_i1_e_1k",
           "[E_(i,1), E_(1,k)] = E_(i,k) in the relevant index range", ok)

    # commutator-Leibniz identity for all monomials of degree <= 3
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
    _check(checks, "uea.commutator_leibniz",
           "straightening identity holds for all monomials of degree <= 3", ok)

    # closed form vs dual-number action
    ok = True
    combos = [(1, 1, (2, -1)), (1, 2, (1, 0, -1)), (2, 2, (1, 1, 0, 0)),
              (2, 3, (1, 1, 1, 0, 0)), (1, 3, (1, 0, 0, -1))]
    tested = 0
    for (a, b, kappa) in combos:
        from .glrep import GLBlockModel

        model = GLBlockModel(a + b, kappa, convention="lower")
        total = -sum(kappa)
        found = 0
        for nu1 in range(-4, 5):
            if (total - nu1 * a) % b:
                continue
            nu2 = (total - nu1 * a) // b
            sols = h_eigenfunctions(model, a, b, nu1, nu2)
            if len(sols) != 1:
                continue
            f = EquivariantFunction(model, sols[0])
            u = open_orbit_point(a, b)
            fu = f.value(u)
            if fu == 0:
                continue
            found += 1
            from itertools import permutations as iperm

            maps = []
            if a == 1:
                maps = [[v] for v in range(1, b + 1)]
            else:
                maps = [list(t) for t in iperm(range(1, b + 1), a)]
            for sigma in maps:
                ratio = uea_act_at(mu_sigma(a, b, sigma), f, u) / fu
                if ratio != nonvanishing_closed_form(a, b, sigma, nu1, kappa):
                    ok = False
            tested += 1
            if found >= 2:
                break
    _check(checks, "uea.nonvanishing_closed_form",
           "dual-number action matches the cycle-product closed form", ok,
           eigenfunctions_tested=tested)

    # branching operator constants
    ok = True
    constants = {}
    cases = [
        (WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]),
         WeightData(2, 1, 0, [[3, 2, -2, -3]], [0])),
        (WeightData(2, 1, 0, [[0, 2, -1, -3]], [2]),
         WeightData(2, 1, 0, [[0, 2, -1, -3]], [0])),
        (WeightData(3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
         WeightData(3, 1, 0, [[0, 1, 1, 0, -1, -1]], [0])),
    ]
    for wdj, wd0 in cases:
        bj = branch_mod.BranchModel(wdj)
        b0 = branch_mod.BranchModel(wd0)
        res = branching_operator_constant(bj, b0)
        constants[str(wdj.kappa) + f" j={wdj.j}"] = str(res["constant"])
        if res["constant"] == 0:
            ok = False
        for _ in range(3):
            g = _random_invertible_levi(wdj.n, wdj.d, rnd)
            a = [Fraction(rnd.randint(-4, 4)) for _ in range(2 * wdj.n - 1)]
            if bj.cpol_value(g, a) != res["constant"] * bj.cpol_value(g, a, coords=res["combination"]):
                ok = False
    _check(checks, "uea.branching_operator",
           "determinant-operator image is parallel to the twisted vector, "
           "nonzero constant confirmed by evaluation", ok, constants=constants)
    return _report("uea", checks)


def _random_invertible_levi(n: int, d: int, rnd) -> branch_mod.MPoint:
    while True:
        blk = [[Fraction(rnd.randint(-3, 3)) for _ in range(2 * n - 1)]
               for _ in range(2 * n - 1)]
        m = ExactMatrix(blk)
        if m.det() != 0:
            break
    blocks = [m]
    for _ in range(d - 1):
        while True:
            cand = [[Fraction(rnd.randint(-2, 2)) for _ in range(2 * n)]
                    for _ in range(2 * n)]
            mm = ExactMatrix(cand)
            if mm.det() != 0:
                blocks.append(mm)
                break
    return branch_mod.MPoint(1, 1, blocks)


# ---------------------------------------------------------------------------


def run_iwahori_suite(n: int = 2, p: int = 3, beta: int = 1, seed: int = 0) -> dict:
    checks = []
    from itertools import permutations as iperm

    ok = True
    a_max = 5
    for a in range(1, a_max + 1):
        for perm in iperm(range(1, a + 1)):
            X = iw.permuted_dual_matrix(perm, a)
            xp, xm = iw.iwahori_factor(X)
            if (xp * xm) != X:
                ok = False
            diag = [xp.rows[i][i] for i in range(a)]
            if diag != iw.iwahori_diagonal_closed_form(perm, a):
                ok = False
    _check(checks, "iwahori.factorization_diagonal",
           "elimination agrees with the cycle closed form for every permutation",
           ok, a_max=a_max)

    exp = iw.iwahori_index_exponent(n, 1, beta + 1)
    _check(checks, "iwahori.index_formula",
           "congruence index exponent equals (beta - e) n (2n - 1)",
           exp == beta * n * (2 * n - 1), exponent=exp)
    # a, b, d mod p^2 and c over the multiples of p
    work.charge("iwahori.gl2_enumeration", (p, 7), "tuples")
    idx = iw.gl2_index_enumeration(p, 1, 2)
    _check(checks, "iwahori.gl2_enumeration",
           "rank-one analogue index matches full enumeration", idx == p, index=idx)

    work.charge("iwahori.double_coset_singleton", (p, n * (2 * n - 1)), "representatives")
    rep = iw.double_coset_singleton(n, p, beta)
    _check(checks, "iwahori.double_coset_singleton",
           "every depth representative is connected through the conjugated subgroup",
           rep["passed"], checked=rep["checked"])

    ri = iw.intersection_check(n, p, beta, 200, seed)
    _check(checks, "iwahori.intersection",
           "membership equivalence between conjugate depth subgroups",
           ri["passed"], samples=ri["samples"])

    rs = iw.similitude_congruence_check(n, p, beta, 500, seed)
    _check(checks, "iwahori.similitude_congruence",
           "block determinant ratio lies in 1 + p^beta", rs["passed"],
           samples=rs["samples"])

    r_uv = iw.orbit_stabilizer_uv(n)
    _check(checks, "iwahori.orbit_uv",
           "distinguished pair stabilizer is the diagonal line pattern, orbit open",
           r_uv["open"] and r_uv["stabilizer_dim"] == 2, **r_uv)
    r_uv2 = iw.orbit_stabilizer_uv(n, distinguished=False)
    _check(checks, "iwahori.orbit_uv_other",
           "other-component pair orbit is open", r_uv2["open"], **r_uv2)
    r_gh = iw.orbit_stabilizer_gammahat(n)
    _check(checks, "iwahori.orbit_gammahat",
           "big-cell orbit through the conjugator is open", r_gh["open"], **r_gh)

    ok = True
    for nn in (2, 3):
        for bb in (1, 3):
            if not iw.coset_witness_identity(nn, bb, p)["passed"]:
                ok = False
    _check(checks, "iwahori.matrix_witness",
           "translation-by-powers witness lands in the depth-one Iwahori", ok)

    ok = all(iw.hecke_diagonal_multiplicativity(nn, p, e)
             for nn in (2, 3) for e in (1, 2))
    _check(checks, "iwahori.hecke_diagonal",
           "stepped diagonal equals the product of one-step diagonals", ok)

    # the units mod p^(bp+1), p^bp (p - 1) of them, once for each nn
    work.charge("iwahori.frobenius_twist", 2 * sum(p ** bp * (p - 1) for bp in (1, 2)),
                "units")
    ok = all(iw.frobenius_twist_identity(nn, p, bp)["passed"]
             for nn in (2, 3) for bp in (1, 2))
    _check(checks, "iwahori.frobenius_twist",
           "scaled-unit conjugation shifts the unipotent coordinate by c", ok)

    r_coset = iw.gammahat_coset_relation(n)
    _check(checks, "iwahori.gammahat_simple_form",
           "conjugator factors through the simple form times an integral Borel element",
           r_coset["passed"])
    return _report("iwahori", checks)


# ---------------------------------------------------------------------------


def run_interp_suite(seed: int = 0) -> dict:
    checks = []
    rnd = random.Random(seed)
    primes, cpr_instances = (3, 5, 7), 50

    ok = True
    h_ok = True
    for p in primes:
        for c in (1, 2):
            for chi in PCharacter.all_characters(p, c):
                if chi.conductor_exp != c:
                    continue
                g = gauss_sum(chi)
                if g * gauss_sum(chi.inverse()) != chi(-1) * Fraction(p) ** c:
                    ok = False
                if gauss_sum(chi, h=c + 1) != g or gauss_sum(chi, h=c + 2) != g:
                    h_ok = False
    _check(checks, "interp.gauss_product",
           "product of a Gauss sum with its inverse twin is the parity times p^c", ok)
    _check(checks, "interp.gauss_depth_independence",
           "Gauss sums are independent of the auxiliary summation depth", h_ok)

    ok = True
    for p in primes[:2]:
        for c in (1, 2):
            count = 0
            for chi in PCharacter.all_characters(p, c):
                if chi.conductor_exp == 0:
                    continue
                unit = CyclotomicElement.zeta(max(chi.order(), 2),
                                              rnd.randrange(max(chi.order(), 2)))
                eta = SmoothCharacter(chi, HalfPowerValue(p, unit))
                if not epsilon_inversion_check(eta):
                    ok = False
                count += 1
                if count >= 5:
                    break
    _check(checks, "interp.epsilon_inversion",
           "epsilon times epsilon of the inverse equals the parity", ok)

    # modulus character multiplicativity
    ok = True
    for _ in range(20):
        n = rnd.choice((2, 3))
        e1 = [[rnd.randrange(0, 4) for _ in range(2 * n)]]
        e2 = [[rnd.randrange(0, 4) for _ in range(2 * n)]]
        p = rnd.choice(primes)
        d1 = modulus_deltaB([[Fraction(p) ** k for k in e1[0]]], n, p)
        d2 = modulus_deltaB([[Fraction(p) ** k for k in e2[0]]], n, p)
        d12 = modulus_deltaB([[Fraction(p) ** (a + b) for a, b in zip(e1[0], e2[0])]], n, p)
        if d1 * d2 != d12:
            ok = False
    _check(checks, "interp.modulus_multiplicative",
           "Borel modulus character is multiplicative on diagonal p-powers", ok)

    # CPR grid
    ok = True
    done = 0
    grid = []
    for p in primes:
        for n in (2, 3):
            for d in (1, 2):
                for c0 in (1, 2):
                    grid.append((p, n, d, c0))
    for (p, n, d, c0) in grid:
        if done >= cpr_instances:
            break
        for k in range(1, 3):
            if done >= cpr_instances:
                break
            chi0 = PCharacter.from_log(p, c0, k)
            if chi0.conductor_exp == 0:
                continue
            unit = CyclotomicElement.zeta(max(chi0.order(), 2),
                                          rnd.randrange(1, max(chi0.order(), 2) + 1))
            chis = [SmoothCharacter(chi0, HalfPowerValue(p, unit))]
            e = [max(1, c0)]
            for _ in range(d - 1):
                ct = rnd.randrange(0, 2)
                chit = PCharacter.from_log(p, ct, 1) if ct else PCharacter.trivial(p)
                chis.append(SmoothCharacter(chit, HalfPowerValue(p, 1)))
                e.append(max(1, chit.conductor_exp))
            data = SatakeData(n, d, p)
            if rnd.randrange(2):
                data = SatakeData(n, d, p, values={(0, n): HalfPowerValue(p, rnd.choice([1, -1]))})
            rep = cpr_identity_check(data, chis, e, n)
            if not rep["passed"]:
                ok = False
            done += 1
    _check(checks, "interp.cpr_identity",
           "both epsilon-factor forms agree with the interpolation factor", ok,
           instances=done)

    # depletion factor valuation bookkeeping
    p = 3
    quad = PCharacter.from_log(p, 1, 1)
    a0 = HalfPowerValue(p, 1, 2)
    a1 = HalfPowerValue(p, 1, 0)
    val = depletion_eigen_factor(a0, a1, 1, 2, SmoothCharacter(quad, HalfPowerValue(p, 1)))
    # exponent bookkeeping: b*kappa + b*(v(a0) - v(a1)) plus the unit-level parts
    _check(checks, "interp.depletion_factor",
           "depletion multiplier computed; p-power part matches the bookkeeping",
           val.half_exp == 2 * 1 * 2 + 2, half_exp=val.half_exp)
    return _report("interp", checks)


SUITES = {
    "mahler": run_mahler_suite,
    "tate": run_tate_suite,
    "rep": run_rep_suite,
    "uea": run_uea_suite,
    "iwahori": run_iwahori_suite,
    "interp": run_interp_suite,
}
