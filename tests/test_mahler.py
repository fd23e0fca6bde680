import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk import mahler
from padicdesk.characters import PCharacter
from padicdesk.rationals import INF


def test_coefficients_constant_and_linear():
    ms = mahler.mahler_coefficients([7, 7, 7, 7], 2)
    assert ms.coeffs == [7, 0, 0, 0]
    ms = mahler.mahler_coefficients([0, 1, 2, 3], 2)
    assert ms.coeffs == [0, 1, 0, 0]


def test_coefficients_odd_indicator_depth_two():
    # forward differences of (0,1,0,1): frozen from the finite-difference oracle
    ms = mahler.mahler_coefficients([0, 1, 0, 1], 2, K=4)
    assert ms.coeffs == [0, 1, -2, 4]
    assert [ms.evaluate(x) for x in range(4)] == [0, 1, 0, 1]


def test_coefficients_truncation_error():
    with pytest.raises(ValueError):
        mahler.mahler_coefficients([1, 2], 3, K=5)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=27))
@settings(max_examples=40, deadline=None)
def test_reconstruction_property(values):
    ms = mahler.mahler_coefficients(values, 3)
    assert all(ms.evaluate(x) == values[x] for x in range(len(values)))


def test_epsilon_norm_examples():
    p = 3
    # a_k = p^k at eps = 1: every term has exponent 0
    ms = mahler.MahlerSeries(p, [Fraction(p) ** k for k in range(6)])
    assert mahler.epsilon_norm(ms, 1) == 0
    ms = mahler.MahlerSeries(p, [1, 0, 0])
    assert mahler.epsilon_norm(ms, Fraction(7, 2)) == 0
    ms = mahler.MahlerSeries(p, [1, Fraction(1, 3), Fraction(1, 9)])
    assert mahler.epsilon_norm(ms, Fraction(1, 2)) == 3
    assert mahler.epsilon_norm(mahler.MahlerSeries(p, [0, 0]), 1) == -INF


def test_epsilon_norm_monotone_in_eps():
    ms = mahler.MahlerSeries(3, [Fraction(2), Fraction(5, 3), Fraction(1, 27)])
    norms = [mahler.epsilon_norm(ms, e) for e in (0, Fraction(1, 2), 1, 2)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))


def test_product_submultiplicative():
    rnd = random.Random(2)
    p = 3
    for _ in range(25):
        f = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 10), p ** rnd.randrange(3))
                                    for _ in range(rnd.randrange(2, 16))])
        g = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 10), p ** rnd.randrange(3))
                                    for _ in range(rnd.randrange(2, 16))])
        eps = Fraction(rnd.randrange(3), 2)
        lhs = mahler.epsilon_norm(mahler.series_product(f, g), eps)
        fa, fb = mahler.epsilon_norm(f, eps), mahler.epsilon_norm(g, eps)
        if lhs == -INF:
            continue
        assert fa != -INF and fb != -INF
        assert lhs <= fa + fb


def test_weighted_indicator_values():
    p = 3
    chi = PCharacter.from_log(p, 1, 1)  # quadratic mod 3
    trivial = PCharacter.trivial(p)
    # unit middle coordinate, integral head, p-divisible tail
    point = (Fraction(2), Fraction(1), Fraction(3))
    assert mahler.weighted_indicator(1, trivial, point) == 1
    # middle coordinate in pZp: vanishes
    assert mahler.weighted_indicator(1, chi, (Fraction(0), Fraction(3), Fraction(0))) == 0
    # quadratic character at 2
    assert mahler.weighted_indicator(1, chi, (Fraction(0), Fraction(2), Fraction(0))) == -1


def test_weighted_indicator_preconditions():
    chi = PCharacter.from_log(3, 1, 1)
    deep_chi = PCharacter.from_log(3, 2, 1)
    with pytest.raises(ValueError, match="conductor"):
        mahler.weighted_indicator(1, deep_chi, (Fraction(0), Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="not representable"):
        mahler.weighted_indicator(1, chi, (Fraction(1, 9), Fraction(1), Fraction(0)))


def test_weighted_indicator_translation_invariance():
    rnd = random.Random(9)
    p = 3
    chi = PCharacter.from_log(p, 1, 1)
    for beta in (1, 2):
        step = p ** max(beta, 1)
        for _ in range(30):
            a = [Fraction(rnd.randrange(0, p ** 3), p ** beta) for _ in range(2)]
            a += [Fraction(rnd.randrange(0, p ** 3))]
            v = mahler.weighted_indicator(beta, chi, a)
            shifted = [x + step * rnd.randrange(-3, 4) for x in a]
            assert mahler.weighted_indicator(beta, chi, shifted) == v


def test_fourier_slice_examples():
    chi = PCharacter.from_log(3, 1, 1)
    rep = mahler.fourier_expand_fchi(1, 1, chi)
    assert rep.passed and rep.npoints == 9
    rep = mahler.fourier_expand_fchi(2, 1, chi)
    assert rep.passed and rep.npoints == 81
    with pytest.raises(ValueError, match="conductor"):
        mahler.fourier_expand_fchi(2, 2, chi)


def test_fourier_unit_indicator_examples():
    # beta' = beta collapses to the single zero term
    rep = mahler.fourier_expand_unit_indicator(3, 2, 2, 2)
    assert rep.passed
    rep = mahler.fourier_expand_unit_indicator(3, 2, 1, 2)
    assert rep.passed and rep.npoints == 9
    rep = mahler.fourier_expand_unit_indicator(3, 1, 0, 3)
    assert rep.passed


def _old_evaluate(series, x):
    """The evaluation before the integer binomial: each binom(t, k) from scratch."""
    t = Fraction(x)
    out = Fraction(0)
    for k, a in enumerate(series.coeffs):
        if a:
            binom = Fraction(1)
            for i in range(k):
                binom *= t - i
            out += a * binom / factorial(k)
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_integer_binomial_evaluation_matches_the_old_one(p):
    rnd = random.Random(p)
    for _ in range(20):
        series = mahler.MahlerSeries(p, [Fraction(rnd.randrange(-9, 9), p ** rnd.randrange(3))
                                         for _ in range(rnd.randrange(1, 3 * p))])
        for x in range(-2 * p, 3 * p):
            got = series.evaluate(x)
            assert got == _old_evaluate(series, x) and type(got) is Fraction
            assert series.evaluate(Fraction(x)) == got
        with pytest.raises(ValueError, match="domain Z"):
            series.evaluate(Fraction(1, p))


def _old_d_histogram(ms, p, beta, beta_prime):
    """The histogram before the coordinate-at-a-time build: every d-tuple visited."""
    dvals = [p ** beta_prime * e for e in range(p ** (beta - beta_prime))]
    weights = {}
    for ds in product(dvals, repeat=len(ms)):
        expo = sum(d * m for d, m in zip(ds, ms)) % p ** beta
        weights[expo] = weights.get(expo, Fraction(0)) + 1
    return weights


@pytest.mark.parametrize("p", [3, 5])
def test_d_histogram_matches_the_full_tuple_loop(p):
    for n in (2, 3):
        for beta in (1, 2):
            for bp in range(beta + 1):
                for ms in product(range(p ** beta), repeat=n - 1):
                    assert (mahler._d_histogram(ms, p, beta, bp)
                            == _old_d_histogram(ms, p, beta, bp)), (n, beta, bp, ms)
