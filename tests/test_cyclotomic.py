"""Cyclotomic polynomials, reductions, embeddings and power sums against sympy."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk.cyclotomic import CyclotomicElement, _reduce, cyclotomic_polynomial, zeta_power_sum

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _rem_coeffs(terms, m) -> list:
    """sympy.rem of sum c x^k by Phi_m, as Fractions lowest degree first, padded to deg Phi_m."""
    poly = sum((sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * X ** k
                for k, c in terms), sympy.Integer(0))
    phi = sympy.cyclotomic_poly(m, X)
    rem = sympy.Poly(sympy.rem(poly, phi, X), X)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return coeffs + [Fraction(0)] * (sympy.degree(phi, X) - len(coeffs))


def test_cyclotomic_polynomial_matches_sympy():
    for m in [*range(1, 301), 1014, 2028]:
        ref = sympy.Poly(sympy.cyclotomic_poly(m, X), X).all_coeffs()
        assert list(cyclotomic_polynomial(m)) == [int(c) for c in reversed(ref)], m


_WEIGHTS = st.one_of(st.integers(-20, 20),
                     st.fractions(min_value=-10, max_value=10, max_denominator=12))
_ORDERS = st.sampled_from([1, 2, 3, 4, 6, 9, 12, 15, 20, 28, 30, 36, 42, 49, 60, 105])


@given(_ORDERS, st.dictionaries(st.integers(0, 400), _WEIGHTS, max_size=12))
@settings(max_examples=80, deadline=None)
def test_reduction_matches_sympy_rem(m, weights):
    expected = _rem_coeffs(weights.items(), m)
    power_sum = zeta_power_sum(m, weights)
    assert all(type(c) is Fraction for c in power_sum.coeffs)
    assert list(power_sum.coeffs) == expected
    assert [Fraction(c) for c in _reduce(m, weights.items())] == expected
    # the constructor reduces a coefficient list longer than deg Phi_m
    dense = [Fraction(0)] * (max(weights, default=0) + 1)
    for k, c in weights.items():
        dense[k] = Fraction(c)
    built = CyclotomicElement(m, dense)
    assert all(type(c) is Fraction for c in built.coeffs)
    assert list(built.coeffs) == expected


@given(_ORDERS, st.sampled_from([1, 2, 3, 5, 6]), st.lists(_WEIGHTS, max_size=40))
@settings(max_examples=60, deadline=None)
def test_embed_matches_sympy_rem(m, step, coeffs):
    x = CyclotomicElement(m, coeffs)
    image = x.embed(m * step)
    assert all(type(c) is Fraction for c in image.coeffs)
    assert list(image.coeffs) == _rem_coeffs(
        [(k * step, c) for k, c in enumerate(x.coeffs)], m * step)


def test_large_field_power_sum_matches_sympy_rem():
    weights = {k: (k % 7) - 3 for k in range(0, 1014, 5)}
    weights[1013] = Fraction(5, 3)
    power_sum = zeta_power_sum(1014, weights)
    assert all(type(c) is Fraction for c in power_sum.coeffs)
    assert list(power_sum.coeffs) == _rem_coeffs(weights.items(), 1014)


def _general_product(x, y):
    """x * y by the schoolbook product of the two operands brought to one field by _pair."""
    a, b = x._pair(y)
    prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
    for i, u in enumerate(a.coeffs):
        for j, v in enumerate(b.coeffs):
            prod[i + j] += u * v
    return CyclotomicElement(a.m, prod)


@pytest.mark.parametrize("m", [12, 20, 294])
def test_rational_scalar_product_matches_general_product(m):
    rnd = random.Random(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    for _ in range(4):
        x = CyclotomicElement(m, [Fraction(rnd.randrange(-9, 10), rnd.randrange(1, 5))
                                  for _ in range(deg)])
        for q in (0, 1, -1, 3, Fraction(-5, 7), Fraction(rnd.randrange(-20, 20), 11)):
            expected = _general_product(x, q)
            for scalar in (q, CyclotomicElement.from_rational(q)):
                for got in (x * scalar, scalar * x):
                    assert got.m == m and got.coeffs == expected.coeffs
                    assert all(type(c) is Fraction for c in got.coeffs)
        # an element of Q(zeta_1) times one of Q(zeta_1) stays in Q(zeta_1)
        one = CyclotomicElement.from_rational(Fraction(2, 3))
        assert (one * one).m == 1 and (one * one).coeffs == _general_product(one, one).coeffs
        assert x * 1 is x and CyclotomicElement.from_rational(1) * x is x
