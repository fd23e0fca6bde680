"""Cyclotomic polynomials, reductions, embeddings and power sums against sympy."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk import cyclotomic
from padicdesk.cyclotomic import CyclotomicElement, _reduce, cyclotomic_polynomial, zeta_power_sum
from padicdesk.matrices import SparseEchelon

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


def _sparse_element(rnd, m):
    """Up to three terms of degree below 8 over the denominator 2.  sympy's
    extended Euclid takes tens of seconds per inverse on a random dense
    element of a large field, or on a sparse one with mixed denominators."""
    low = min(8, len(cyclotomic_polynomial(m)) - 1)
    coeffs = [0] * low
    for k in rnd.sample(range(low), min(3, low)):
        coeffs[k] = Fraction(rnd.choice([-1, 1]) * rnd.randrange(1, 10), 2)
    return CyclotomicElement(m, coeffs)


def _sympy_poly(x, m):
    """x in Q[X] with zeta_(x.m) sent to X^(m / x.m), as a sympy Poly over QQ."""
    step = m // x.m
    return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator) * X ** (k * step)
                           for k, c in enumerate(x.coeffs)), sympy.Integer(0)), X, domain="QQ")


def _residue(poly, m) -> list:
    """poly mod Phi_m as Fractions, lowest degree first, padded to deg Phi_m."""
    phi = sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain="QQ")
    coeffs = [Fraction(int(c.numerator), int(c.denominator))
              for c in reversed(poly.rem(phi).all_coeffs())]
    return coeffs + [Fraction(0)] * (phi.degree() - len(coeffs))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 12, 20, 294, 1014])
def test_field_operations_match_sympy_rem_and_invert(m):
    rnd = random.Random(m)
    phi = sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain="QQ")
    sub = rnd.choice([d for d in range(1, m + 1) if m % d == 0 and d != m] or [1])
    x, y = _sparse_element(rnd, m), _sparse_element(rnd, sub)  # y in a subfield
    q = Fraction(-7, 3)
    mono = CyclotomicElement.zeta(m) * q  # inverted by the monomial short-cut
    px, py = _sympy_poly(x, m), _sympy_poly(y, m)
    # y is inverted in its own field, then embedded by X -> X^(m / sub)
    inv_x = px.invert(phi)
    inv_y = _sympy_poly(y, sub).invert(sympy.Poly(sympy.cyclotomic_poly(sub, X), X, domain="QQ"))
    inv_y = inv_y.compose(sympy.Poly(X ** (m // sub), X, domain="QQ"))
    cases = {
        "x + y": (x + y, px + py), "y + x": (y + x, px + py), "x + q": (x + q, px + q),
        "q + x": (q + x, px + q), "x - y": (x - y, px - py), "y - x": (y - x, py - px),
        "q - x": (q - x, q - px), "-x": (-x, -px), "x * y": (x * y, px * py),
        "y * x": (y * x, px * py), "q * x": (q * x, px * q), "x / y": (x / y, px * inv_y),
        "y / x": (y / x, py * inv_x), "x / q": (x / q, px * (1 / q)),
        "q / x": (q / x, inv_x * q), "x.inverse()": (x.inverse(), inv_x),
        "x ** 0": (x ** 0, px ** 0), "x ** 1": (x ** 1, px), "x ** 5": (x ** 5, px ** 5),
        "x ** -1": (x ** -1, inv_x), "x ** -2": (x ** -2, inv_x ** 2),
        "mono.inverse()": (mono.inverse(), _sympy_poly(mono, m).invert(phi)),
    }
    for name, (got, poly) in cases.items():
        assert got.m == m and list(got.coeffs) == _residue(poly, m), (m, name)
        assert got.den > 0 and gcd(got.den, *got.nums) == 1, (m, name)  # the canonical form
    for step in (2, 3):
        image = x.embed(m * step)
        assert list(image.coeffs) == _residue(_sympy_poly(x, m * step), m * step), (m, step)
        # one element, two fields: equal both ways, and one hash
        assert image == x and x == image and hash(image) == hash(x)
        assert image != x + CyclotomicElement.zeta(m * step) and x != x + 1
    assert y.embed(m) == y and hash(y.embed(m)) == hash(y)


@pytest.mark.parametrize("m", [21, 42, 147, 294])
def test_dense_inverse_matches_sympy_invert(m):
    # every power-basis coefficient nonzero, over mixed denominators
    rnd = random.Random(m)
    deg = len(cyclotomic_polynomial(m)) - 1
    x = CyclotomicElement(m, [Fraction(rnd.choice([-1, 1]) * rnd.randrange(1, 10),
                                       rnd.randrange(1, 4)) for _ in range(deg)])
    assert all(x.nums)
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    assert inv.den > 0 and gcd(inv.den, *inv.nums) == 1
    if m <= 42:
        phi = sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain="QQ")
        assert list(inv.coeffs) == _residue(_sympy_poly(x, m).invert(phi), m)


def test_hash_agrees_with_equality_across_fields():
    one, also_one = CyclotomicElement.from_rational(1, 1), CyclotomicElement.from_rational(1, 4)
    assert one == also_one and len({one, also_one}) == 1
    z3 = CyclotomicElement.zeta(3)
    assert z3 == z3.embed(6) and len({z3, z3.embed(6), z3.embed(12)}) == 1
    # a rational element equals its int or Fraction, so it hashes like it
    for q, m in ((3, 1), (3, 12), (Fraction(-2, 7), 20), (0, 5)):
        x = CyclotomicElement.from_rational(q, m)
        assert x == q and hash(x) == hash(q) and len({x, q}) == 1
    # the same holds for a rational reached by arithmetic
    z5 = CyclotomicElement.zeta(5)
    total = z5 + z5 ** 2 + z5 ** 3 + z5 ** 4
    assert total == -1 and hash(total) == hash(-1)


def _echelon_inverse(x):
    """x^-1 by a linear solve, the oracle for the norm chain: the rows x * zeta^j,
    j < deg Phi_m, go into a fraction-free echelon, and the coordinates of 1 on
    them are the power-basis coefficients of the inverse."""
    m, deg = x.m, len(x.nums)
    ech = SparseEchelon()
    for j in range(deg):
        ech.add(dict(enumerate(_reduce(m, ((k + j, c) for k, c in enumerate(x.nums))))), j)
    coords, scale = ech.coordinates({0: 1})
    return CyclotomicElement(m, [Fraction(coords.get(j, 0) * x.den, scale) for j in range(deg)])


def _dense_element(rnd, m):
    """Every power-basis coefficient nonzero, over mixed denominators."""
    deg = len(cyclotomic_polynomial(m)) - 1
    return CyclotomicElement(m, [Fraction(rnd.choice([-1, 1]) * rnd.randrange(1, 10),
                                          rnd.randrange(1, 4)) for _ in range(deg)])


# every order in which `verify --suite interp` (seeds 7 and 13) or an `interp
# factor` round of bench/gen.py (seeds 1-11) inverts an element that is not a
# monomial, and 2028 = lcm(13^2, 12), the m = 2028 stratum the benchmark leaves out
_INTERP_ORDERS = [3, 6, 9, 10, 14, 18, 20, 21, 22, 25, 42, 49, 50, 52, 55, 78, 100, 110,
                  147, 156, 242, 294, 338, 1014, 2028]


@pytest.mark.parametrize("m", _INTERP_ORDERS)
def test_inverse_matches_the_echelon_solve(m):
    rnd = random.Random(m)
    # sparse: two terms, then three below zeta^8 (the echelon takes 20 s on
    # some three-term elements of Q(zeta_2028), so that field gets two)
    sparse = [CyclotomicElement(m, [rnd.randrange(1, 5), 0, rnd.choice([-3, 2])])]
    if m != 2028:
        sparse.append(_sparse_element(rnd, m))
    for x in sparse:
        assert x.as_monomial() is None
        inv, expected = x.inverse(), _echelon_inverse(x)
        assert (inv.nums, inv.den) == (expected.nums, expected.den), m
    # dense: the echelon is cubic in deg Phi_m (4.6 s at m = 338), so above
    # degree 84 the dense inverse is checked by its product with x alone
    x = _dense_element(rnd, m)
    inv = x.inverse()
    assert x * inv == 1 and inv.den > 0 and gcd(inv.den, *inv.nums) == 1
    if len(x.nums) <= 84:
        assert inv == _echelon_inverse(x), m


@given(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 30]),
       st.lists(_WEIGHTS, min_size=1, max_size=16))
@settings(max_examples=120, deadline=None)
def test_inverse_is_an_involution_with_product_one(m, coeffs):
    x = CyclotomicElement(m, coeffs)
    if x.is_zero():
        return
    inv = x.inverse()
    assert x * inv == 1 and inv * x == 1
    assert inv.inverse() == x


# the chain makes at most 17 products at these orders, each of at most deg^2
# coefficient products; in all they form at most 11.1 deg^2 (a dense element
# of Q(zeta_338))
_CHARGE_MULTIPLE = 12


@pytest.mark.parametrize("m, kind", [
    *((m, kind) for m in (6, 9, 10, 14, 18, 20, 21, 22, 25, 42, 49, 50, 52, 55, 78, 100, 110,
                          156, 242, 294, 338, 1014, 2028) for kind in ("sparse", "dense")),
    (997, "1 + zeta")])
def test_inverse_work_is_bounded_by_its_charge(m, kind, monkeypatch):
    # the orders of the interp-factor strata, 2028, and the slowest small element
    # known, 1 + zeta_997, whose order-83 step forms most of its products
    rnd = random.Random(m)
    x = {"sparse": lambda: _sparse_element(rnd, m), "dense": lambda: _dense_element(rnd, m),
         "1 + zeta": lambda: CyclotomicElement(m, [1, 1])}[kind]()
    formed = []
    product = cyclotomic._product

    def counted(m, a, b):
        formed.append(sum(1 for v in a if v) * sum(1 for v in b if v))
        return product(m, a, b)

    monkeypatch.setattr(cyclotomic, "_product", counted)
    charges = []
    monkeypatch.setattr(cyclotomic.work, "charge", lambda *args: charges.append(args))
    inv = x.inverse()
    deg = len(x.nums)
    assert charges == [("cyclotomic.inverse", deg * deg, "echelon entries")]
    assert sum(formed) <= _CHARGE_MULTIPLE * deg * deg, (m, kind, sum(formed) / deg ** 2)
    monkeypatch.setattr(cyclotomic, "_product", product)
    assert x * inv == 1
