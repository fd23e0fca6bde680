"""Verification suites: each runs a module's identity checks at a configured
scale and returns a JSON-serializable report.

Each check opens with `Suite.check`, which writes its identifier once,
charges the size of an enumeration that grows with p or n to `work.charge`
under that identifier before the enumeration starts (so `--budget` refuses
it without running it; `Check.charge` adds a finer count under the same
identifier), and appends its report entry: `id`, `description`,
`passed` and the check's own fields.  `Check.expect` marks a check failed at
its first false condition and records that instance as `first_failure`.
Loops never stop at a failure, so every random draw is made and a later
check's draws do not depend on an earlier outcome; reports are
deterministic for a fixed configuration (including the seed).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations

from . import branch as branch_mod
from . import iwahori as iw
from . import mahler
from . import tate
from . import work
from .artinian import ArtinianElement, derivation_from_images
from .characters import PCharacter, gauss_sum
from .cyclotomic import CyclotomicElement
from .glrep import (GLBlockModel, WeightData, cone_decompose, cone_reconstruct,
                    pieri_character_check)
from .interp import (HalfPowerValue, SatakeData, SmoothCharacter, cpr_identity_check,
                     depletion_eigen_factor, epsilon_inversion_check, modulus_deltaB)
from .matrices import ExactMatrix
from .rationals import INF, valuation
from .uea import (EquivariantFunction, UEAElement, branching_operator_constant,
                  commutator_leibniz_check, commute_check, h_eigenfunctions, mu_sigma,
                  nonvanishing_closed_form, open_orbit_point, pbw_normalize, uea_act_at)

CPR_IDENTITY = "interp.cpr_identity"  # also the one check of `interp factor`


class Check(dict):
    """One check's report entry, open while its instances run."""

    __slots__ = ()

    def expect(self, condition, **instance):
        """Return `condition`; the first false one fails the check and names `instance`."""
        if not condition and self["passed"]:
            self["passed"] = False
            # written as the report writes it, before the loop changes the objects
            self["first_failure"] = json.loads(json.dumps(instance, default=str))
        return condition

    note = dict.update  # fields known only after the instances ran

    def charge(self, count, unit: str) -> None:  # under this check's id
        work.charge(self["id"], count, unit)


class Suite:
    """The checks of one suite run, in the order they open."""

    def __init__(self, name: str):
        self.name = name
        self.checks = []

    def check(self, cid: str, description: str, count=None, unit: str | None = None,
              **fields) -> Check:
        """Open check `cid`; a `count` of `unit`s is charged before the check runs."""
        entry = Check(id=cid, description=description, passed=True, **fields)
        if count is not None:
            entry.charge(count, unit)
        self.checks.append(entry)
        return entry

    def report(self) -> dict:
        # no timing fields: identical configurations must give identical bytes
        return {
            "suite": self.name,
            "passed": all(c["passed"] for c in self.checks),
            "checks": self.checks,
        }


# ---------------------------------------------------------------------------


def run_mahler_suite(p: int = 3, seed: int = 0) -> dict:
    suite = Suite("mahler")
    rnd = random.Random(seed)

    # reconstruction from finite differences at full depth: each depth
    # evaluates p^depth coefficients at p^depth points
    c = suite.check("mahler.reconstruction",
                    "finite-difference coefficients reproduce the table through binomials",
                    sum(p ** (2 * depth) for depth in (1, 2)), "binomial terms")
    for depth in (1, 2):
        table = [Fraction(rnd.randrange(-20, 20)) for _ in range(p ** depth)]
        series = mahler.mahler_coefficients(table, p)
        for x in range(p ** depth):
            c.expect(series.evaluate(x) == table[x], depth=depth, x=x)

    # submultiplicativity of the weighted sup norm under series products
    c = suite.check("mahler.norm_submultiplicative",
                    "weighted sup norm exponent of a product is at most the sum")
    for sample in range(10):
        f = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 9), p ** rnd.randrange(0, 3))
                                    for _ in range(rnd.randrange(2, 9))])
        g = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 9), p ** rnd.randrange(0, 3))
                                    for _ in range(rnd.randrange(2, 9))])
        eps = Fraction(rnd.randrange(0, 3), 2)
        lhs = mahler.epsilon_norm(mahler.series_product(f, g), eps)
        rhs_f, rhs_g = mahler.epsilon_norm(f, eps), mahler.epsilon_norm(g, eps)
        c.expect(lhs == -INF or (rhs_f != -INF and rhs_g != -INF and lhs <= rhs_f + rhs_g),
                 sample=sample, eps=eps)

    # weighted indicator translation invariance
    chi = PCharacter.from_log(p, 1, 1)
    n = 2
    c = suite.check("mahler.indicator_translation",
                    "weighted unit-box indicator is invariant mod p^max(beta, conductor)")
    for sample in range(20):
        beta = rnd.randrange(1, 3)
        shift_mod = p ** max(beta, chi.conductor_exp)
        a = [Fraction(rnd.randrange(0, p ** 3), p ** beta) for _ in range(n)]
        a += [Fraction(rnd.randrange(0, p ** 3)) for _ in range(n - 1)]
        v1 = mahler.weighted_indicator(beta, chi, a)
        shifted = [x + shift_mod * rnd.randrange(-2, 3) for x in a]
        v2 = mahler.weighted_indicator(beta, chi, shifted)
        c.expect(v1 == v2, sample=sample, beta=beta, a=a, shifted=shifted)

    # Fourier expansions over p-power roots of unity
    for beta in (1, 2):
        for bp in range(1, beta + 1):
            for chi in PCharacter.all_characters(p, bp):
                if chi.conductor_exp != bp:
                    continue
                # p^(2 beta) points, one term per unit of Z/p^beta at each
                c = suite.check(f"mahler.fourier_slice.b{beta}.bp{bp}.o{chi.order()}",
                                "unit-slice function equals its root-of-unity expansion",
                                p ** (2 * beta) * (p ** beta - p ** (beta - 1)), "terms")
                rep = mahler.fourier_expand_fchi(beta, bp, chi)
                c.expect(rep.passed, point=rep.counterexample)
                c.note(points=rep.npoints)
                break  # one character per conductor suffices at suite scale
    for n in (2, 3):
        for beta in (1, 2):
            for bp in range(0, beta + 1):
                # p^(beta (n-1)) points, p^(beta-bp) histogram entries per coordinate
                c = suite.check(f"mahler.fourier_indicator.n{n}.b{beta}.bp{bp}",
                                "box indicator equals its root-of-unity expansion",
                                p ** (beta * (n - 1)) * (n - 1) * p ** (beta - bp),
                                "histogram entries")
                rep = mahler.fourier_expand_unit_indicator(p, beta, bp, n)
                c.expect(rep.passed, point=rep.counterexample)
                c.note(points=rep.npoints)
    return suite.report()


# ---------------------------------------------------------------------------


def run_tate_suite(p: int = 3, seed: int = 0, k_max: int = 8, dmax: int = 12) -> dict:
    suite = Suite("tate")
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
    c = suite.check("tate.closed_equals_direct",
                    "closed combinatorial formula equals direct operator iteration",
                    patterns, "subset patterns", k_max=k_max, dmax=dmax)
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
                c.expect(closed == direct, ring=ngens, lam=lam, k=k, a=a, b=b, s=s)

    # binomial operator recursion
    c = suite.check("tate.binomial_recursion",
                    "f_k(T)(T - k) = (k+1) f_(k+1)(T) on the truncation")
    base = derivation_from_images([ArtinianElement.constant(1, 1)])
    der = tate.ShiftDerivation(base, Fraction(1))
    for k in range(min(k_max, 7) + 1):
        s = ArtinianElement.constant(1, 1) + ArtinianElement.gen(1, 0)
        f = tate.TateSeries.monomial(1, dmax, s, 2, 1)
        c.expect(tate.binomial_operator_recursion_check(k, f, der), k=k)

    # weighted norms of the formula outputs stay within the matrix-certified bound
    der_int = tate.ShiftDerivation(derivation_from_images(
        [ArtinianElement.constant(1, 1)]), Fraction(1))
    mat, _basis = tate.derivation_matrix(der_int, 1, small_dmax)
    eps = Fraction(1, 2)
    c = suite.check("tate.weighted_norm_bound",
                    "formula outputs respect the matrix-certified weighted norm constant",
                    tate.epsilon_action_work(mat, k_max), "row entries")
    c.charge(tate.epsilon_action_words(mat, k_max), "entry words")
    bound_rep = tate.epsilon_action_bound(mat, eps, k_max, p)
    cert = max(e for e in bound_rep["exponents"] if e != -INF)
    c.note(certified_exponent=str(cert))
    s = ArtinianElement.gen(1, 0) + 1
    for k, a in norm_calls:
        out = tate.binomial_of_derivation_closed(k, s, a, 0, der_int, small_dmax)
        e = out.norm_exponent(p)
        c.expect(e == -INF or -k * eps + e <= cert, k=k, a=a)

    # perturbation decay, with the empirical congruence-depth threshold
    T = tate.shift_matrix(4, p) + tate.cyclic_shift_matrix(4, p ** 3)
    rep = tate.epsilon_action_bound(T, Fraction(1, 2), 12, p)
    thr = tate.perturbation_threshold(tate.shift_matrix(4, p), tate.cyclic_shift_matrix(4, 1),
                                      Fraction(1, 2), 12, p)
    c = suite.check("tate.perturbation_decay",
                    "weighted exponents of the shifted operator eventually stay below 0",
                    from_index=rep["eventually_below_target_from"],
                    empirical_depth_threshold=thr["first_passing_depth"],
                    exponents=[str(e) for e in rep["exponents"]])
    c.expect(rep["passed"] and thr["first_passing_depth"] is not None)

    # vanishing for scalar integer operator
    rep2 = tate.epsilon_action_bound(ExactMatrix([[Fraction(3)]]), Fraction(1, 2), 8, p)
    c = suite.check("tate.binomial_vanishing",
                    "binomials of an integer scalar vanish beyond its value")
    c.expect(rep2["exponents"][4] == -INF and rep2["passed"])

    # overconvergence chain
    chain = tate.OverconvergenceChain(p, 1, max(20, p ** 2 * 2))
    c = suite.check("tate.overconvergence_chain",
                    "annihilator-certified stage satisfies the norm interpolation bound",
                    chain.scan_size(), "norm evaluations")
    M = chain.annihilator_exponent()
    s_half = chain.stage_for_delta(Fraction(1, 2))
    c.expect(M == p ** 2, annihilator=M)
    samples_pass = 0
    for sample in range(50):
        v = {}
        for _ in range(rnd.randrange(1, 5)):
            i = rnd.randrange(-chain.depth, chain.depth + 1)
            v[i] = Fraction(rnd.randrange(-50, 50), p ** rnd.randrange(0, 3))
        res = chain.verify_implication(v, Fraction(1, 2), s_half)
        if c.expect(res["passed"], sample=sample, v=v):
            samples_pass += 1
    c.note(annihilator=M, stage=s_half, samples=samples_pass)
    return suite.report()


# ---------------------------------------------------------------------------


def _random_cone_weight(n: int, d: int, rnd) -> WeightData:
    """Rejection-sample a weight in the cone with head entries bounded by 6
    and the other components' entries by 3."""
    while True:
        w = -rnd.randrange(0, 3)
        head = sorted([rnd.randrange(-6, 7) for _ in range(n - 1)],
                      reverse=True)  # positions 2..n
        k_mid = min(w, head[-1]) - rnd.randrange(0, 2)  # position n+1
        kap = [rnd.randrange(-2, 3)] + head + [k_mid]
        for i in range(n, 1, -1):  # positions n+2..2n paired with n..2
            kap.append(w - kap[i - 1])
        jmax = kap[n] - kap[n + 1]
        rows = [kap]
        js = [rnd.randrange(0, jmax + 1) if jmax >= 0 else -1]
        for _ in range(d - 1):
            half = sorted([rnd.randrange(0, 4) for _ in range(n)],
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
    suite = Suite("rep")
    rnd = random.Random(seed)

    cone_samples = 100
    c = suite.check("rep.cone_roundtrip",
                    "generator decomposition reconstructs the weight exactly",
                    samples=cone_samples)
    for sample in range(cone_samples):
        n = rnd.choice((2, 3))
        d = rnd.choice((1, 2))
        wd = _random_cone_weight(n, d, rnd)
        co = cone_decompose(wd)
        back = cone_reconstruct(n, d, co)
        c.expect((back.kappa0, back.kappa, back.j) == (wd.kappa0, wd.kappa, wd.j),
                 sample=sample, kappa0=wd.kappa0, kappa=wd.kappa, j=wd.j)

    c = suite.check("rep.pieri_characters",
                    "alternant identity certifies the one-column tensor decomposition")
    for (kappa, j) in [((2, 0), 1), ((2, 1, 0), 2), ((1, 1, 0), 1), ((3, 1, 0, -1), 2)]:
        c.expect(pieri_character_check(kappa, j), kappa=kappa, j=j)

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
    c = suite.check("rep.multiplicity_one",
                    "joint eigenspace is one-dimensional with unit base-point value",
                    instances=len(instances))
    models = [branch_mod.BranchModel(wd) for wd in instances]
    for bm in models:
        c.expect(bm.eigen_dimension == 1 and bm.normalization_value() == 1,
                 kappa0=bm.wd.kappa0, kappa=bm.wd.kappa, j=bm.wd.j)

    c = suite.check("rep.group_eigen_property",
                    "group-level eigen transformation holds on integral subgroup points")
    for bm in models[:4]:
        for sample in range(5):
            m = random_subgroup_point(bm.wd.n, bm.wd.d, rnd)
            c.expect(bm.eigen_check(m), kappa=bm.wd.kappa, j=bm.wd.j, sample=sample)

    # unit values on the congruence set, with the column-point oracle
    beta = 1
    M = beta + 2
    c = suite.check("rep.unit_values",
                    "box restriction is congruent to 1 and matches the column-point oracle",
                    beta=beta, depth=M)
    for bm in models:
        n, d = bm.wd.n, bm.wd.d
        for sample in range(6):
            g = random_congruence_unipotent(n, d, p, beta, M, rnd)
            a = random_unit_box_point(n, p, beta, M, rnd)
            val = bm.box_restriction_value(g, a)
            where = {"kappa": bm.wd.kappa, "j": bm.wd.j, "sample": sample, "a": a}
            c.expect(valuation(val - 1, p) >= beta, **where)
            c.expect(val == bm.open_orbit_value(g, branch_mod.column_point(n, a)), **where)

    # weighted-indicator compatibility through the generator family
    fam = branch_mod.GeneratorFamily(2, 1)
    chi = PCharacter.from_log(p, 1, 1)
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    bm = branch_mod.BranchModel(wd)
    c = suite.check("rep.twisted_restriction",
                    "character-twisted restriction equals indicator times plain restriction")
    for trial in range(10):
        g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
        a = random_unit_box_point(2, p, beta, M, rnd)
        if trial % 3 == 2:
            a[2 - 1] = Fraction(p * rnd.randrange(0, p))  # leave the unit box
        tw = branch_mod.twisted_product_value(fam, wd, [chi], g, a)
        ind = mahler.weighted_indicator(beta, chi, a)
        if mahler.in_unit_box(a, 2, p):
            direct = bm.box_restriction_value(g, a)
            c.expect(direct == branch_mod.algebraic_product_value(fam, wd, g, a),
                     trial=trial, a=a)
            c.expect(tw == ind * direct, trial=trial, a=a)
        else:
            c.expect(tw.is_zero() and ind == 0, trial=trial, a=a)
    return suite.report()


def random_subgroup_point(n: int, d: int, rnd) -> branch_mod.MPoint:
    def rand_unimod(m):
        mat = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        for _ in range(2 * m):
            i, j = rnd.randrange(m), rnd.randrange(m)
            if i != j:
                c = rnd.randint(-2, 2)
                for k in range(m):
                    mat[i][k] += c * mat[j][k]
        return mat

    def block_diagonal(first, second):
        # diag(first, second), both square, as one matrix
        k = len(first)
        entries = {(i, j): x for i, row in enumerate(first) for j, x in enumerate(row)}
        entries.update(((k + i, k + j), x) for i, row in enumerate(second)
                       for j, x in enumerate(row))
        return ExactMatrix.sparse(k + len(second), entries)

    blocks = [block_diagonal(rand_unimod(n - 1), rand_unimod(n))]
    blocks += [block_diagonal(rand_unimod(n), rand_unimod(n)) for _ in range(d - 1)]
    return branch_mod.MPoint(Fraction(rnd.choice([1, -1, 2])),
                             Fraction(rnd.choice([1, -1, 2, 3])), blocks)


def random_congruence_unipotent(n: int, d: int, p: int, beta: int, M: int, rnd):
    """A Levi point with int entries: lower unitriangular at component 0, with
    entries below the diagonal in p^beta Z / p^M, and the identity elsewhere."""
    m = 2 * n - 1
    depth, top = p ** beta, p ** (M - beta)
    blk = ExactMatrix([[depth * rnd.randrange(0, top) if j < i else int(i == j) for j in range(m)]
                       for i in range(m)])
    return branch_mod.MPoint(1, 1, [blk] +
                             [ExactMatrix.identity(2 * n, 1, 0) for _ in range(d - 1)])


def random_unit_box_point(n: int, p: int, beta: int, M: int, rnd) -> list:
    a = [Fraction(rnd.randrange(0, p ** M)) for _ in range(n - 1)]
    a += [Fraction(1 + p ** beta * rnd.randrange(0, p ** (M - beta)))]
    a += [Fraction(p * rnd.randrange(0, p ** (M - 1))) for _ in range(n - 1)]
    return a


# ---------------------------------------------------------------------------


def run_uea_suite(seed: int = 0) -> dict:
    suite = Suite("uea")
    rnd = random.Random(seed)

    # pbw sanity
    c = suite.check("uea.pbw_normal_form",
                    "rewriting is idempotent and a fixpoint for products")
    e21, e12 = UEAElement.generator(0, 1, 0), UEAElement.generator(0, 0, 1)
    nf = pbw_normalize(e21 * e12)
    want = pbw_normalize(e12 * e21 + UEAElement.generator(0, 1, 1)
                         - UEAElement.generator(0, 0, 0))
    c.expect(nf == want and pbw_normalize(nf) == nf, product="E21 E12")
    # random products: normal(xy) == normal(normal(x) normal(y))
    gens = [UEAElement.generator(0, i, j) for i in range(3) for j in range(3)]
    for sample in range(15):
        x = gens[rnd.randrange(len(gens))] * gens[rnd.randrange(len(gens))]
        y = gens[rnd.randrange(len(gens))]
        c.expect(pbw_normalize(x * y) == pbw_normalize(pbw_normalize(x) * pbw_normalize(y)),
                 sample=sample)

    # determinant arrays commute and are order-independent
    c = suite.check("uea.det_entries_commute",
                    "all entries of the determinant arrays pairwise commute")
    for n in (2, 3):
        c.expect(commute_check([[UEAElement.generator(0, i, j + n) for j in range(n)]
                                for i in range(n)]), n=n)

    # commutator bracket instance
    c = suite.check("uea.bracket_e_i1_e_1k",
                    "[E_(i,1), E_(1,k)] = E_(i,k) in the relevant index range")
    for n in (2, 3):
        for i in range(2, n + 1):
            for k in range(n + 1, 2 * n + 1):
                x = UEAElement.generator(0, i - 1, 0)
                y = UEAElement.generator(0, 0, k - 1)
                c.expect(pbw_normalize(x * y - y * x) == UEAElement.generator(0, i - 1, k - 1),
                         n=n, i=i, k=k)

    # commutator-Leibniz identity for all monomials of degree <= 3
    c = suite.check("uea.commutator_leibniz",
                    "straightening identity holds for all monomials of degree <= 3")
    for n in (2, 3):
        cols = list(range(n + 1, 2 * n + 1))
        monos = [()]
        monos += [(col,) for col in cols]
        monos += [(c1, c2) for c1 in cols for c2 in cols if c1 <= c2]
        monos += [(c1, c2, c3) for c1 in cols for c2 in cols for c3 in cols
                  if c1 <= c2 <= c3]
        for i in range(2, n + 1):
            for mono in monos:
                c.expect(commutator_leibniz_check(n, i, mono), n=n, i=i, mono=mono)

    # closed form vs dual-number action
    c = suite.check("uea.nonvanishing_closed_form",
                    "dual-number action matches the cycle-product closed form")
    combos = [(1, 1, (2, -1)), (1, 2, (1, 0, -1)), (2, 2, (1, 1, 0, 0)),
              (2, 3, (1, 1, 1, 0, 0)), (1, 3, (1, 0, 0, -1))]
    tested = 0
    for (a, b, kappa) in combos:
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
            for sigma in map(list, permutations(range(1, b + 1), a)):
                ratio = uea_act_at(mu_sigma(a, b, sigma), f, u) / fu
                c.expect(ratio == nonvanishing_closed_form(a, b, sigma, nu1, kappa),
                         a=a, b=b, kappa=kappa, nu1=nu1, sigma=sigma)
            tested += 1
            if found >= 2:
                break
    c.note(eigenfunctions_tested=tested)

    # branching operator constants
    constants = {}
    c = suite.check("uea.branching_operator",
                    "determinant-operator image is parallel to the twisted vector, "
                    "nonzero constant confirmed by evaluation", constants=constants)
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
        c.expect(res["constant"] != 0, kappa=wdj.kappa, j=wdj.j)
        for sample in range(3):
            g = _random_invertible_levi(wdj.n, wdj.d, rnd)
            a = [Fraction(rnd.randint(-4, 4)) for _ in range(2 * wdj.n - 1)]
            c.expect(bj.cpol_value(g, a)
                     == res["constant"] * bj.cpol_value(g, a, coords=res["combination"]),
                     kappa=wdj.kappa, j=wdj.j, sample=sample, a=a)
    return suite.report()


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
    suite = Suite("iwahori")

    a_max = 5
    c = suite.check("iwahori.factorization_diagonal",
                    "elimination agrees with the cycle closed form for every permutation",
                    a_max=a_max)
    for a in range(1, a_max + 1):
        for perm in permutations(range(1, a + 1)):
            X = iw.permuted_dual_matrix(perm, a)
            xp, xm = iw.iwahori_factor(X)
            c.expect(xp * xm == X, perm=perm)
            diag = [xp.rows[i][i] for i in range(a)]
            c.expect(diag == iw.iwahori_diagonal_closed_form(perm, a), perm=perm)

    exp = iw.iwahori_index_exponent(n, 1, beta + 1)
    suite.check("iwahori.index_formula",
                "congruence index exponent equals (beta - e) n (2n - 1)",
                exponent=exp).expect(exp == beta * n * (2 * n - 1))
    # a, b, d mod p^2 and c over the multiples of p
    c = suite.check("iwahori.gl2_enumeration",
                    "rank-one analogue index matches full enumeration", (p, 7), "tuples")
    idx = iw.gl2_index_enumeration(p, 1, 2)
    c.expect(idx == p)
    c.note(index=idx)

    # the residue arithmetic of a representative or a sample grows with the
    # size of p^(beta+2): a product of two residues costs words^2 word-products
    words = iw.residue_words(p, beta)
    c = suite.check("iwahori.double_coset_singleton",
                    "every depth representative is connected through the conjugated subgroup",
                    (p, n * (2 * n - 1)), "representatives")
    c.charge(p ** (n * (2 * n - 1)) * words ** 2, "word-products")
    rep = iw.double_coset_singleton(n, p, beta)
    c.expect(rep["passed"])
    c.note(checked=rep["checked"])

    ri = iw.intersection_check(n, p, beta, 200, seed)
    suite.check("iwahori.intersection",
                "membership equivalence between conjugate depth subgroups",
                samples=ri["samples"]).expect(ri["passed"])

    samples = 500
    c = suite.check("iwahori.similitude_congruence",
                    "block determinant ratio lies in 1 + p^beta",
                    samples * words ** 2, "word-products")
    rs = iw.similitude_congruence_check(n, p, beta, samples, seed)
    c.note(samples=rs["samples"])
    c.expect(rs["passed"])

    r_uv = iw.orbit_stabilizer_uv(n)
    suite.check("iwahori.orbit_uv",
                "distinguished pair stabilizer is the diagonal line pattern, orbit open",
                **r_uv).expect(r_uv["open"] and r_uv["stabilizer_dim"] == 2)
    r_uv2 = iw.orbit_stabilizer_uv(n, distinguished=False)
    suite.check("iwahori.orbit_uv_other",
                "other-component pair orbit is open", **r_uv2).expect(r_uv2["open"])
    r_gh = iw.orbit_stabilizer_gammahat(n)
    suite.check("iwahori.orbit_gammahat",
                "big-cell orbit through the conjugator is open", **r_gh).expect(r_gh["open"])

    c = suite.check("iwahori.matrix_witness",
                    "translation-by-powers witness lands in the depth-one Iwahori")
    for nn in (2, 3):
        for bb in (1, 3):
            c.expect(iw.coset_witness_identity(nn, bb, p)["passed"], nn=nn, beta=bb)

    c = suite.check("iwahori.hecke_diagonal",
                    "stepped diagonal equals the product of one-step diagonals")
    for nn in (2, 3):
        for e in (1, 2):
            c.expect(iw.hecke_diagonal_multiplicativity(nn, p, e), nn=nn, e=e)

    c = suite.check("iwahori.frobenius_twist",
                    "scaled-unit conjugation shifts the unipotent coordinate by c")
    for nn in (2, 3):
        for bp in (1, 2):
            c.expect(iw.frobenius_twist_identity(nn, p, bp)["passed"], nn=nn, bp=bp)

    r_coset = iw.gammahat_coset_relation(n)
    c = suite.check("iwahori.gammahat_simple_form",
                    "conjugator factors through the simple form times an integral Borel element")
    c.expect(r_coset["passed"])
    return suite.report()


# ---------------------------------------------------------------------------


def run_interp_suite(seed: int = 0) -> dict:
    suite = Suite("interp")
    rnd = random.Random(seed)
    primes, cpr_instances = (3, 5, 7), 50

    # one loop feeds both Gauss-sum checks
    product = suite.check("interp.gauss_product", "product of a Gauss sum with its "
                          "inverse twin is the parity times p^c")
    depth = suite.check("interp.gauss_depth_independence",
                        "Gauss sums are independent of the auxiliary summation depth")
    for p in primes:
        for c in (1, 2):
            for chi in PCharacter.all_characters(p, c):
                if chi.conductor_exp != c:
                    continue
                g = gauss_sum(chi)
                product.expect(g * gauss_sum(chi.inverse()) == chi(-1) * Fraction(p) ** c,
                               p=p, c=c, log=chi.log)
                depth.expect(gauss_sum(chi, h=c + 1) == g and gauss_sum(chi, h=c + 2) == g,
                             p=p, c=c, log=chi.log)

    check = suite.check("interp.epsilon_inversion",
                        "epsilon times epsilon of the inverse equals the parity")
    for p in primes[:2]:
        for c in (1, 2):
            count = 0
            for chi in PCharacter.all_characters(p, c):
                if chi.conductor_exp == 0:
                    continue
                unit = CyclotomicElement.zeta(max(chi.order(), 2),
                                              rnd.randrange(max(chi.order(), 2)))
                eta = SmoothCharacter(chi, HalfPowerValue(p, unit))
                check.expect(epsilon_inversion_check(eta), p=p, c=c, log=chi.log, at_p=unit)
                count += 1
                if count >= 5:
                    break

    # modulus character multiplicativity
    check = suite.check("interp.modulus_multiplicative",
                        "Borel modulus character is multiplicative on diagonal p-powers")
    for sample in range(20):
        n = rnd.choice((2, 3))
        e1 = [[rnd.randrange(0, 4) for _ in range(2 * n)]]
        e2 = [[rnd.randrange(0, 4) for _ in range(2 * n)]]
        p = rnd.choice(primes)
        d1 = modulus_deltaB([[Fraction(p) ** k for k in e1[0]]], n, p)
        d2 = modulus_deltaB([[Fraction(p) ** k for k in e2[0]]], n, p)
        d12 = modulus_deltaB([[Fraction(p) ** (a + b) for a, b in zip(e1[0], e2[0])]], n, p)
        check.expect(d1 * d2 == d12, sample=sample, n=n, p=p, e1=e1[0], e2=e2[0])

    # CPR grid
    check = suite.check(CPR_IDENTITY,
                        "both epsilon-factor forms agree with the interpolation factor")
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
            check.expect(rep["passed"], p=p, n=n, d=d, c0=c0, log=k, instance=done)
            done += 1
    check.note(instances=done)

    # depletion factor valuation bookkeeping
    p = 3
    quad = PCharacter.from_log(p, 1, 1)
    a0 = HalfPowerValue(p, 1, 2)
    a1 = HalfPowerValue(p, 1, 0)
    val = depletion_eigen_factor(a0, a1, 1, 2, SmoothCharacter(quad, HalfPowerValue(p, 1)))
    # exponent bookkeeping: b*kappa + b*(v(a0) - v(a1)) plus the unit-level parts
    suite.check("interp.depletion_factor",
                "depletion multiplier computed; p-power part matches the bookkeeping",
                half_exp=val.half_exp).expect(val.half_exp == 2 * 1 * 2 + 2)
    return suite.report()


SUITES = {
    "mahler": run_mahler_suite,
    "tate": run_tate_suite,
    "rep": run_rep_suite,
    "uea": run_uea_suite,
    "iwahori": run_iwahori_suite,
    "interp": run_interp_suite,
}
