import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk import work
from padicdesk.artinian import ArtinianElement
from padicdesk.cyclotomic import CyclotomicElement, cyclotomic_polynomial
from padicdesk.matrices import ExactMatrix
from padicdesk.rationals import INF, is_prime, valuation


def test_valuation_examples():
    assert valuation(12, 3) == 1
    assert valuation(0, 3) == INF
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(Fraction(1, 9), 3) == -2
    with pytest.raises(ValueError):
        valuation(5, 4)


def test_valuation_rejects_non_prime_on_every_call():
    for _ in range(2):
        for p in (4, 1):
            with pytest.raises(ValueError, match="not prime"):
                valuation(Fraction(12, 5), p)
        assert valuation(Fraction(12, 5), 2) == 2


nonzero_rationals = st.fractions(min_value=-1000, max_value=1000).filter(lambda x: x != 0)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_valuation_multiplicative_and_ultrametric(x, y, p):
    assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
    vx, vy = valuation(x, p), valuation(y, p)
    if x + y != 0:
        v = valuation(x + y, p)
        assert v >= min(vx, vy)
        if vx != vy:
            assert v == min(vx, vy)


def _naive_multiplicity(num, p):
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v


def test_valuation_matches_one_division_per_factor():
    # small and large multiplicities, in the numerator and the denominator,
    # on both sides of the switch from single divisions to squared powers
    rnd = random.Random(11)
    for _ in range(400):
        p = rnd.choice([2, 3, 5, 7, 11])
        a, b = rnd.choice([(rnd.randrange(400), 0), (0, rnd.randrange(400)),
                           (rnd.randrange(40), rnd.randrange(40))])
        x = Fraction(rnd.choice([1, -1]) * rnd.randrange(1, 10 ** 6) * p ** a,
                     rnd.randrange(1, 10 ** 6) * p ** b)
        assert valuation(x, p) == (_naive_multiplicity(x.numerator, p)
                                   - _naive_multiplicity(x.denominator, p))
    assert valuation(3 ** 100000 * 7, 3) == 100000
    assert valuation(Fraction(2, 5 ** 1000), 5) == -1000


def test_cyclotomic_reduction_is_ring_map():
    rnd = random.Random(3)
    for m in (3, 4, 5, 8):
        for _ in range(5):
            a = [Fraction(rnd.randrange(-4, 5)) for _ in range(7)]
            b = [Fraction(rnd.randrange(-4, 5)) for _ in range(7)]
            prod = [Fraction(0)] * 13
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            assert CyclotomicElement(m, prod) == CyclotomicElement(m, a) * CyclotomicElement(m, b)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9])
def test_cyclotomic_norm_relation(m):
    # product of (X - zeta^k) over primitive k equals Phi_m, coefficientwise
    from math import gcd

    prim = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    # polynomial with cyclotomic coefficients, lowest degree first
    poly = [CyclotomicElement.from_rational(1, m)]
    for k in prim:
        root = CyclotomicElement.zeta(m, k)
        new = [CyclotomicElement.from_rational(0, m) for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * root
        poly = new
    phi = cyclotomic_polynomial(m)
    assert len(poly) == len(phi)
    for c, expected in zip(poly, phi):
        assert c == CyclotomicElement.from_rational(expected, m)


def test_cyclotomic_power_and_inverse():
    z = CyclotomicElement.zeta(5)
    assert z ** 5 == 1
    assert z * z.inverse() == 1
    assert (1 + z).inverse() * (1 + z) == 1


def test_cyclotomic_serialization():
    z = CyclotomicElement.zeta(8) * Fraction(3, 2) + 1
    assert CyclotomicElement.from_json(z.to_json()) == z


def test_artinian_inverse_examples():
    one = ArtinianElement.constant(2, 1)
    zero = ArtinianElement(2, {})
    T1, T2 = ArtinianElement.gen(2, 0), ArtinianElement.gen(2, 1)
    assert (one + T1 * T2).inverse() == one - T1 * T2
    x = ArtinianElement(2, {frozenset(): Fraction(5, 2), frozenset([0]): 7,
                            frozenset([0, 1]): Fraction(-1, 3)})
    assert x.inverse() * x == 1
    assert x / x == 1
    with pytest.raises(ZeroDivisionError, match="not a unit"):
        T1.inverse()
    # the 2x2 adjugate oracle: X^-1 = adj(X) / det(X) with det a unit
    X = ExactMatrix([[one, T1], [T2, one]])
    det = X.det()
    assert det == one - T1 * T2
    Xi = ExactMatrix([[one, -T1], [-T2, one]]).map(lambda e: e * det.inverse())
    assert X * Xi == ExactMatrix.identity(2, one, zero)
    assert Xi.rows[0][0] == one + T1 * T2


def test_artinian_invert_singular_residue():
    # a matrix whose residue (all T_i -> 0) is singular has a non-unit det
    T1 = ArtinianElement.gen(1, 0)
    X = ExactMatrix([[T1]])
    assert X.det().constant_term() == 0
    with pytest.raises(ZeroDivisionError, match="not a unit"):
        X.det().inverse()


def test_artinian_nilpotency():
    a = 3
    m = ArtinianElement.gen(a, 0) + ArtinianElement.gen(a, 1) + ArtinianElement.gen(a, 2)
    power = ArtinianElement.constant(a, 1)
    for _ in range(a + 1):
        power = power * m
    assert power.is_zero()


def test_det_multiplicative():
    rnd = random.Random(5)
    for _ in range(10):
        size = rnd.randrange(1, 4)
        A = ExactMatrix([[Fraction(rnd.randrange(-4, 5)) for _ in range(size)] for _ in range(size)])
        B = ExactMatrix([[Fraction(rnd.randrange(-4, 5)) for _ in range(size)] for _ in range(size)])
        assert (A * B).det() == A.det() * B.det()


def test_det_of_empty_matrix_is_an_error():
    # with no entries there is no ring to take the 1 of
    with pytest.raises(ValueError, match="ring of its entries is unknown"):
        ExactMatrix([]).det()


def test_is_prime_matches_sympy_and_decides_large_primes_quickly():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(-3, 5000) if is_prime(n)] == list(sympy.primerange(0, 5000))
    # Mersenne primes and composites, a Carmichael number, and strong
    # pseudoprimes to every base up to 23 and up to 37, which base 41 exposes;
    # trial division would not finish on any of the large ones
    for n in (2 ** 61 - 1, 2 ** 31 - 1, 2 ** 67 - 1, (2 ** 61 - 1) * 1000003, 561,
              3825123056546413051, 318665857834031151167461, 3317044064679887385961979):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_charges_trial_division_only_past_the_exact_bound():
    sympy = pytest.importorskip("sympy")
    is_prime.cache_clear()  # answers cached under the default budget were never charged
    with work.budget(1):
        assert [n for n in range(-3, 3000) if is_prime(n)] == list(sympy.primerange(0, 3000))
        for n in (2 ** 61 - 1, 2 ** 67 - 1, (2 ** 61 - 1) * 1000003, 3825123056546413051,
                  3317044064679887385961979, 3317044064679887385961981 - 2):
            assert is_prime(n) == sympy.isprime(n), n
        for n in (3317044064679887385961981, (2 ** 61 - 1) * (2 ** 31 - 1)):
            with pytest.raises(work.BudgetExceeded, match="rationals.is_prime needs"
                                                          f" {isqrt(n) - 1} trial divisions"):
                is_prime(n)
    # past the bound, under a budget that allows the divisions: 3 divides it
    with work.budget(10 ** 13):
        assert is_prime(3317044064679887385961981 + 2) is False
