import random
from fractions import Fraction
from itertools import combinations, groupby
from math import comb, factorial, gcd, lcm, prod

import pytest

from padicdesk import tate
from padicdesk.artinian import ArtinianElement, derivation_from_images, from_numerators
from padicdesk.matrices import ExactMatrix
from padicdesk.rationals import INF


def one_gen_setup(lam=Fraction(1)):
    base = derivation_from_images([ArtinianElement.constant(1, 1)])  # D(eps) = 1
    return tate.ShiftDerivation(base, lam)


def _runs(subset) -> list:
    """The maximal runs of consecutive integers of a sorted tuple."""
    return [[x for _, x in grp] for _, grp in groupby(enumerate(subset), lambda t: t[1] - t[0])]


def _closed_by_patterns(k, s, a, b, der, dmax):
    """The closed form summed pattern by pattern, each product built from scratch.

    Pattern I contributes prod over its runs of (1/len!) prod (D - i) applied
    to s, weighted by comb(a, r) lam^r / (comb(k, r) multinomial(k - r; runs)).
    """
    out = tate.TateSeries(s.ngens, dmax, {})
    patterns = 0
    for r in range(min(k, a) + 1):
        for subset in combinations(range(k), k - r):
            patterns += 1
            runs = _runs(subset)
            assert sum(len(run) for run in runs) == k - r
            fs = s
            for i in subset:
                fs = der.base(fs) - fs * i
            run_factorials = prod(factorial(len(run)) for run in runs)
            multinom = Fraction(factorial(k - r), run_factorials)
            weight = Fraction(comb(a, r), comb(k, r)) / multinom * der.lam ** r
            out = out + tate.TateSeries.monomial(s.ngens, dmax, fs * (weight / run_factorials),
                                                 a - r, b + r)
    return out, patterns


def test_closed_form_matches_pattern_by_pattern_sum():
    assert _runs((0, 1, 3, 5, 6)) == [[0, 1], [3], [5, 6]]
    rnd = random.Random(5)
    images = [ArtinianElement.gen(2, 1) * 3 + 1, ArtinianElement.constant(2, Fraction(2, 3))]
    der = tate.ShiftDerivation(derivation_from_images(images), Fraction(5, 2))
    dmax = 14
    for k in range(9):
        for a in range(min(k, 4), 5):
            s = ArtinianElement(2, {(): rnd.randrange(1, 4),
                                    (0,): Fraction(rnd.randrange(-3, 4), 2),
                                    (0, 1): rnd.randrange(-2, 3)})
            want, patterns = _closed_by_patterns(k, s, a, 1, der, dmax)
            assert tate.binomial_of_derivation_closed(k, s, a, 1, der, dmax) == want
            assert tate.closed_form_patterns(k, a) == patterns


def test_closed_form_degree_zero_and_one():
    der = one_gen_setup()
    eps = ArtinianElement.gen(1, 0)
    dmax = 12
    out = tate.binomial_of_derivation_closed(0, eps, 2, 1, der, dmax)
    assert out == tate.TateSeries.monomial(1, dmax, eps, 2, 1)
    out = tate.binomial_of_derivation_closed(1, eps, 1, 0, der, dmax)
    one = ArtinianElement.constant(1, 1)
    want = (tate.TateSeries.monomial(1, dmax, one, 1, 0)
            + tate.TateSeries.monomial(1, dmax, eps, 0, 1))
    assert out == want


def test_closed_form_spec_instance():
    # f_2 applied to eps*X: -X/2 + lam Y - (lam/2) eps Y, frozen by iteration
    lam = Fraction(1)
    der = one_gen_setup(lam)
    eps = ArtinianElement.gen(1, 0)
    dmax = 12
    closed = tate.binomial_of_derivation_closed(2, eps, 1, 0, der, dmax)
    direct = tate.binomial_of_derivation_direct(
        2, tate.TateSeries.monomial(1, dmax, eps, 1, 0), der)
    want = (tate.TateSeries.monomial(1, dmax, ArtinianElement.constant(1, Fraction(-1, 2)), 1, 0)
            + tate.TateSeries.monomial(1, dmax, ArtinianElement.constant(1, lam), 0, 1)
            + tate.TateSeries.monomial(1, dmax, eps * (-lam / 2), 0, 1))
    assert closed == direct == want


def test_closed_equals_direct_zero_base_derivation():
    # k > a with D = 0: lambda-terms truncate at r = a
    base = derivation_from_images([ArtinianElement(1, {})])
    der = tate.ShiftDerivation(base, Fraction(2))
    s = ArtinianElement.constant(1, 1) + ArtinianElement.gen(1, 0)
    dmax = 12
    for k in range(5):
        closed = tate.binomial_of_derivation_closed(k, s, 2, 1, der, dmax)
        direct = tate.binomial_of_derivation_direct(
            k, tate.TateSeries.monomial(1, dmax, s, 2, 1), der)
        assert closed == direct
        for (a, b) in closed.terms:
            assert a >= 0


def test_closed_equals_direct_two_generators():
    rnd = random.Random(4)
    ngens = 2
    images = [ArtinianElement.constant(ngens, 2), ArtinianElement.gen(ngens, 0)]
    der = tate.ShiftDerivation(derivation_from_images(images), Fraction(3))
    dmax = 10
    for k in range(5):
        for a in range(4):
            for b in range(3):
                if a + b + k > dmax:
                    continue
                s = ArtinianElement.constant(ngens, rnd.randrange(-2, 3))
                s = s + ArtinianElement.gen(ngens, 0) * rnd.randrange(-2, 3)
                s = s + ArtinianElement.gen(ngens, 1) * rnd.randrange(-2, 3)
                closed = tate.binomial_of_derivation_closed(k, s, a, b, der, dmax)
                direct = tate.binomial_of_derivation_direct(
                    k, tate.TateSeries.monomial(ngens, dmax, s, a, b), der)
                assert closed == direct


def _memo_bases(ngens):
    """Linear maps on the ring: an honest derivation, unit images, a product."""
    gens = [ArtinianElement.gen(ngens, t) for t in range(ngens)]
    honest = derivation_from_images([g * (t + 2) for t, g in enumerate(gens)])
    # D(T_i) a unit: linear, but no derivation of the truncated ring
    units = derivation_from_images([g * -1 + Fraction(t + 1, 2) for t, g in enumerate(gens)])
    m = gens[-1] * Fraction(-3, 2) + 2
    return [honest, units, lambda x: x * m]


@pytest.mark.parametrize("ngens", [1, 2, 3])
def test_products_kept_per_derivation_match_fresh_and_direct(ngens):
    rnd = random.Random(30 + ngens)
    dmax = 11
    coeffs = [-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-5, 3)]
    pool = []
    for _ in range(3):
        s = ArtinianElement.constant(ngens, rnd.choice([1, Fraction(2, 3)]))
        for t in range(ngens):
            s = s + ArtinianElement.gen(ngens, t) * rnd.choice(coeffs)
        pool.append(s)
    for base in _memo_bases(ngens):
        # two lambdas on one base: each derivation keeps its own products
        ders = [tate.ShiftDerivation(base, lam) for lam in (Fraction(1), Fraction(-7, 2))]
        calls = [(der, k, a, b, s) for der in ders for s in pool
                 for k in range(6) for a in range(4) for b in range(2)
                 if rnd.random() < 0.3]
        rnd.shuffle(calls)
        for der, k, a, b, s in calls:
            kept = tate.binomial_of_derivation_closed(k, s, a, b, der, dmax)
            fresh = tate.binomial_of_derivation_closed(
                k, s, a, b, tate.ShiftDerivation(base, der.lam), dmax)
            direct = tate.binomial_of_derivation_direct(
                k, tate.TateSeries.monomial(ngens, dmax, s, a, b), der)
            assert kept == fresh == direct, (k, a, b, s, der.lam)
        for der in ders:
            assert len(der.products) == len({s for d, *_, s in calls if d is der})


def _zero_base(ngens):
    return derivation_from_images([ArtinianElement(ngens, {})] * ngens)


def _random_element(rnd, ngens):
    coeffs = [-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
    return ArtinianElement(ngens, {mono: rnd.choice(coeffs) for size in range(ngens + 1)
                                   for mono in combinations(range(ngens), size)})


@pytest.mark.parametrize("ngens", [1, 2, 3])
def test_action_table_reproduces_base(ngens):
    rnd = random.Random(60 + ngens)
    for base in [*_memo_bases(ngens), _zero_base(ngens)]:
        calls = []
        der = tate.ShiftDerivation(lambda x: calls.append(x) or base(x), Fraction(2))
        rows, den = der.table(ngens)
        assert der.table(ngens) == (rows, den) and len(calls) == 2 ** ngens
        for _ in range(20):
            x = _random_element(rnd, ngens)
            got = ArtinianElement(ngens, {})
            for mono, c in x.terms.items():
                image = {frozenset(i for i in range(ngens) if m >> i & 1): Fraction(t, den)
                         for m, t in rows[sum(1 << i for i in mono)]}
                got = got + ArtinianElement(ngens, image) * c
            assert got == base(x)
        assert len(calls) == 2 ** ngens


def _combination(parts, den):
    """sum of (c / d) * x over the (x, c, d) in parts, divided by den, as one element.

    Summed as integer numerators over one common denominator, with no
    intermediate element.
    """
    common, out = 1, {}
    for x, c, d in parts:
        d *= x.den
        if common % d:  # a new denominator: rescale what is summed so far
            g = d // gcd(common, d)
            common, out = common * g, {m: v * g for m, v in out.items()}
        f = c * (common // d)
        for m, v in x.nums.items():
            out[m] = out.get(m, 0) + v * f
    return from_numerators(parts[0][0].ngens, out, common * den)


def _shifted_by_elements(der, f, j, den):
    """(D - j) f / den, each coefficient combined from its parts as elements.

    A term s X^a Y^b contributes base(s) - j s at X^a Y^b and lam a s at
    X^(a-1) Y^(b+1); each combination is checked against the element sum.
    """
    lam = der.lam
    parts = {}
    for (a, b), s in f.terms.items():
        here = parts.setdefault((a, b), [])
        here.append((der.base(s), 1, 1))
        if j:
            here.append((s, -j, 1))
        if a:
            parts.setdefault((a - 1, b + 1), []).append((s, lam.numerator * a, lam.denominator))
    out = {}
    for key, ps in parts.items():
        got = _combination(ps, den)
        assert gcd(got.den, *got.nums.values()) == 1 and 0 not in got.nums.values()
        want = ArtinianElement(f.ngens, {})
        for x, c, d in ps:
            want = want + x * c * Fraction(1, d)
        assert got == want * Fraction(1, den)
        out[key] = got
    return tate.TateSeries(f.ngens, f.dmax, out)


@pytest.mark.parametrize("ngens", [1, 2, 3])
def test_flat_direct_equals_the_elementwise_shifted_oracle(ngens):
    rnd = random.Random(70 + ngens)
    dmax, k_max = 10, 6
    for base in [*_memo_bases(ngens), _zero_base(ngens)]:
        for lam in (Fraction(1), Fraction(-7, 2), Fraction(9)):
            der = tate.ShiftDerivation(base, lam)
            for _ in range(3):
                terms = {}
                while len(terms) < 3:
                    a = rnd.randrange(dmax - k_max + 1)
                    terms[(a, rnd.randrange(dmax - k_max - a + 1))] = _random_element(rnd, ngens)
                f = tate.TateSeries(ngens, dmax, terms)
                want = f
                for k in range(k_max + 1):
                    assert tate.binomial_of_derivation_direct(k, f, der) == want, (k, lam)
                    assert der.shifted(want, k) == _shifted_by_elements(der, want, k, 1)
                    want = _shifted_by_elements(der, want, k, k + 1)


def test_closed_form_sums_every_pattern(monkeypatch):
    yielded = []

    def counted(pool, size):
        for subset in combinations(pool, size):
            yielded.append(subset)
            yield subset

    monkeypatch.setattr(tate, "combinations", counted)
    rnd = random.Random(9)
    for ngens in (1, 2):
        der = tate.ShiftDerivation(_memo_bases(ngens)[0], Fraction(-7, 2))
        s = _random_element(rnd, ngens)
        for k in range(8):
            for a in range(5):
                for _ in range(2):  # the second call reads every product from `products`
                    yielded.clear()
                    tate.binomial_of_derivation_closed(k, s, a, 1, der, 14)
                    assert len(yielded) == tate.closed_form_patterns(k, a), (k, a)


def test_degree_overflow_error():
    der = one_gen_setup()
    with pytest.raises(ValueError, match="truncation"):
        tate.binomial_of_derivation_closed(10, ArtinianElement.gen(1, 0), 2, 2, der, 12)
    with pytest.raises(ValueError, match="exceeds"):
        tate.TateSeries.monomial(1, 3, ArtinianElement.constant(1, 1), 2, 2)


def test_operator_recursion_identity():
    der = one_gen_setup(Fraction(3))
    dmax = 14
    s = ArtinianElement.constant(1, 1) + ArtinianElement.gen(1, 0) * 2
    f = (tate.TateSeries.monomial(1, dmax, s, 2, 1)
         + tate.TateSeries.monomial(1, dmax, ArtinianElement.gen(1, 0), 0, 3))
    for k in range(8):
        assert tate.binomial_operator_recursion_check(k, f, der)


def test_leibniz_rule_on_truncated_products():
    # base derivation T -> 2T is a genuine derivation of the quotient ring
    base = derivation_from_images([ArtinianElement.gen(1, 0) * 2])
    der = tate.ShiftDerivation(base, Fraction(2))
    dmax = 8
    eps = ArtinianElement.gen(1, 0)
    f = tate.TateSeries.monomial(1, dmax, eps + 1, 1, 0)
    g = tate.TateSeries.monomial(1, dmax, eps * 2 + 3, 2, 1)
    assert der(f * g) == der(f) * g + f * der(g)
    # pure shift part (zero base derivation) obeys Leibniz on any product
    der0 = tate.ShiftDerivation(derivation_from_images([ArtinianElement(1, {})]),
                                Fraction(3))
    assert der0(f * g) == der0(f) * g + f * der0(g)


def test_epsilon_action_bound_examples():
    p = 3
    # zero operator: binomials vanish for k >= 1
    rep = tate.epsilon_action_bound(ExactMatrix([[Fraction(0)]]), Fraction(1, 2), 6, p)
    assert rep["exponents"][0] == 0
    assert all(e == -INF for e in rep["exponents"][1:])
    assert rep["passed"]
    # multiplication by integer m: vanishing beyond k = m
    rep = tate.epsilon_action_bound(ExactMatrix([[Fraction(3)]]), Fraction(1, 2), 8, p)
    assert all(e == -INF for e in rep["exponents"][4:])
    # perturbation instance
    T = tate.shift_matrix(4, p) + tate.cyclic_shift_matrix(4, p ** 3)
    rep = tate.epsilon_action_bound(T, Fraction(1, 2), 12, p)
    assert rep["passed"]
    assert rep["eventually_below_target_from"] is not None


def test_epsilon_action_bound_derivation_matrix_pinned():
    # the 56x56 matrix of the tate suite; table computed with dense matrix products
    mat, basis = tate.derivation_matrix(one_gen_setup(), 1, 6)
    assert mat.nrows == len(basis) == 56
    assert sum(1 for row in mat.rows for e in row if e) == 70
    rep = tate.epsilon_action_bound(mat, Fraction(1, 2), 8, 3)
    assert rep["exponents"] == [Fraction(e) for e in
                                ("0", "-1/2", "-1", "-1/2", "-1", "-3/2", "-1", "-5/2", "-3")]
    assert rep["eventually_below_target_from"] == 1
    assert rep["passed"]


def _recurrence_visits(T: ExactMatrix, K: int) -> int:
    """Row entries the binomial recurrence of `epsilon_action_bound` visits, counted."""
    t_rows = [{j: e for j, e in enumerate(row) if e} for row in T.rows]
    fk = [{i: Fraction(1)} for i in range(T.nrows)]
    visits = 0
    for k in range(1, K + 1):
        nxt = []
        for row in fk:
            out = {}
            for j, c in row.items():
                visits += len(t_rows[j]) + 1
                for col, t in t_rows[j].items():
                    out[col] = out.get(col, 0) + c * t
                out[j] = out.get(j, 0) - (k - 1) * c
            nxt.append({col: x / k for col, x in out.items() if x})
        fk = nxt
    return visits


@pytest.mark.parametrize("K", [0, 1, 8, 20])
def test_epsilon_action_work_bounds_the_recurrence(K):
    mat, _basis = tate.derivation_matrix(one_gen_setup(), 1, 6)
    assert tate.epsilon_action_work(mat, K) == 504 * K
    rnd = random.Random(K)
    sparse = ExactMatrix([[Fraction(rnd.randrange(-2, 3)) if rnd.random() < 0.2 else Fraction(0)
                           for _ in range(7)] for _ in range(7)])
    for T in (mat, tate.shift_matrix(5, 3), tate.cyclic_shift_matrix(4, 2), sparse,
              ExactMatrix([[Fraction(0)]])):
        assert _recurrence_visits(T, K) <= tate.epsilon_action_work(T, K)
    # a single shift reaches every lower index: row i costs 2i + 1
    assert tate.epsilon_action_work(tate.shift_matrix(5, 3), K) == 25 * K


@pytest.mark.parametrize("K", [1, 8, 20])
def test_epsilon_action_words_bound_the_entries(K):
    # an entry of binom(T, k) is N / (D^k k!) with |N| <= prod_(i<k) (R + i D), so
    # its numerator and denominator fit in k (bitlen(R + k D) + bitlen(D) + bitlen(k)) bits
    mat, _basis = tate.derivation_matrix(one_gen_setup(), 1, 6)
    rnd = random.Random(K)
    sparse = ExactMatrix([[Fraction(rnd.randrange(-5, 6), rnd.randrange(1, 4))
                           if rnd.random() < 0.3 else Fraction(0) for _ in range(6)]
                          for _ in range(6)])
    for T in (mat, tate.shift_matrix(5, 3), tate.cyclic_shift_matrix(4, Fraction(2, 3)),
              sparse, ExactMatrix([[Fraction(1)]]), ExactMatrix([[Fraction(0)]])):
        den = lcm(*(x.denominator for row in T.rows for x in row))
        rows = max(sum(abs(x) for x in row) for row in T.rows) * den
        binom = ExactMatrix.identity(T.nrows)
        bits = []
        for k in range(1, K + 1):
            shifted = T + ExactMatrix.identity(T.nrows, Fraction(1 - k), Fraction(0))
            binom = (binom * shifted).scale(Fraction(1, k))
            bound = prod(rows + i * den for i in range(k))
            bits.append(k * (int(rows + k * den).bit_length() + den.bit_length()
                             + k.bit_length()))
            for x in (x for row in binom.rows for x in row):
                assert abs(x) * den ** k * factorial(k) <= bound
                assert x.numerator.bit_length() + x.denominator.bit_length() <= bits[-1]
        assert tate.epsilon_action_words(T, K) == \
            tate.epsilon_action_work(T, 1) * sum(b // 64 + 1 for b in bits)
    assert tate.epsilon_action_words(mat, 8) == 504 * 9  # the eighth step takes two words


def test_perturbation_threshold_empirical():
    # the shifted operator needs a minimum congruence depth before decay
    p = 3
    thresholds = {}
    for npow in range(0, 5):
        T = tate.shift_matrix(4, p) + tate.cyclic_shift_matrix(4, p ** npow)
        rep = tate.epsilon_action_bound(T, Fraction(1, 2), 16, p)
        thresholds[npow] = rep["passed"]
    assert thresholds[4] and thresholds[3]


def test_overconvergence_chain():
    chain = tate.OverconvergenceChain(3, 1, 20)
    assert chain.annihilator_exponent() == 9
    assert chain.stage_for_delta(Fraction(1, 2)) == 2
    # trivially-scaled element
    res = chain.verify_implication({0: Fraction(27)}, Fraction(1, 2))
    assert res["passed"]
    # the (p h^-M)^m w shape
    v = {-18: Fraction(9), -9: Fraction(3), 0: Fraction(1)}
    res = chain.verify_implication(v, Fraction(1, 2))
    assert res["passed"]
    rnd = random.Random(8)
    for _ in range(200):
        v = {}
        for _ in range(rnd.randrange(1, 6)):
            i = rnd.randrange(-20, 21)
            v[i] = Fraction(rnd.randrange(-80, 81), 3 ** rnd.randrange(0, 3))
        assert chain.verify_implication(v, Fraction(1, 2))["passed"]


def test_overconvergence_chain_depth_error():
    chain = tate.OverconvergenceChain(3, 1, 5)
    with pytest.raises(ValueError, match="need depth >= 9"):
        chain.annihilator_exponent()


def test_tate_norm_exponent():
    s = ArtinianElement.constant(1, Fraction(1, 3))
    f = tate.TateSeries.monomial(1, 6, s, 1, 1)
    assert f.norm_exponent(3) == 1
    assert tate.TateSeries(1, 6, {}).norm_exponent(3) == -INF


def _old_annihilator(chain):
    """The scan before it was kept per chain, as a test-local copy."""
    q = chain.p ** (chain.r + 1)
    best = 0
    for i in range(1, chain.depth + 1):
        e = -(-i // q)
        m = 0
        while chain.norm_exponent({m - i: Fraction(chain.p) ** e}, chain.r) > -1:
            m += 1
        best = max(best, m)
    return best


@pytest.mark.parametrize("p", [3, 5])
def test_annihilator_scan_runs_once_per_chain(p, monkeypatch):
    chain = tate.OverconvergenceChain(p, 1, 2 * p ** 2 + 3)
    want = _old_annihilator(tate.OverconvergenceChain(p, 1, 2 * p ** 2 + 3))
    calls = []
    real = tate.OverconvergenceChain.norm_exponent
    monkeypatch.setattr(tate.OverconvergenceChain, "norm_exponent",
                        lambda self, v, s: calls.append(s) or real(self, v, s))
    assert chain.annihilator_exponent() == want == p ** 2
    chain.stage_for_delta(Fraction(1, 2))
    chain.stage_for_delta(Fraction(1, 3))
    assert chain.annihilator_exponent() == want
    assert len(calls) == chain.scan_size()
