import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk.characters import PCharacter, gauss_sum, primitive_root
from padicdesk.cyclotomic import CyclotomicElement
from padicdesk.interp import (HalfPowerValue, SatakeData, SmoothCharacter,
                              cpr_identity_check, depletion_eigen_factor,
                              epsilon_factor, epsilon_inversion_check,
                              interpolation_factor, modulus_character_exponent,
                              modulus_deltaB, t_p_e_exponents)


def test_character_construction():
    chi = PCharacter.from_log(3, 1, 1)
    assert chi.conductor_exp == 1 and chi.order() == 2
    assert chi(2) == -1 and chi(1) == 1
    assert chi.parity() == -1
    assert chi(Fraction(1, 2)) == chi(2)  # 1/2 = 2 mod 3
    with pytest.raises(ValueError):
        chi(3)
    # exact conductor canonicalization
    lifted = PCharacter.from_log(3, 2, 3)  # order-2 character factoring through mod 3
    assert lifted.conductor_exp == 1
    assert PCharacter.from_log(3, 2, 0).conductor_exp == 0


def test_character_group_law():
    chi = PCharacter.from_log(5, 1, 1)
    assert chi.order() == 4
    sq = chi * chi
    assert sq.order() == 2
    assert (chi * chi.inverse()).conductor_exp == 0
    for a in (1, 2, 3, 4):
        assert sq(a) == chi(a) * chi(a)


def test_gauss_sum_quadratic():
    chi = PCharacter.from_log(3, 1, 1)
    z = CyclotomicElement.zeta(3)
    g = gauss_sum(chi)
    assert g == z - z ** 2
    assert g * g == -3


def test_gauss_sum_depth_independence():
    for p, c in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        for chi in PCharacter.all_characters(p, c):
            if chi.conductor_exp != c:
                continue
            base = gauss_sum(chi)
            assert gauss_sum(chi, h=c + 1) == base
            assert gauss_sum(chi, h=c + 2) == base
            break


def test_gauss_sum_product_relation():
    for p, c in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        for chi in PCharacter.all_characters(p, c):
            if chi.conductor_exp != c:
                continue
            assert gauss_sum(chi) * gauss_sum(chi.inverse()) == chi(-1) * Fraction(p) ** c
    # the order-4 instance evaluates to -5
    chi5 = PCharacter.from_log(5, 1, 1)
    assert gauss_sum(chi5) * gauss_sum(chi5.inverse()) == -5


def test_gauss_sum_conductor_error():
    with pytest.raises(ValueError, match="conductor"):
        gauss_sum(PCharacter.trivial(3))


def test_half_power_algebra():
    p = 3
    a = HalfPowerValue(p, 2, 1, {(0, 1): 1})
    b = HalfPowerValue(p, Fraction(1, 2), 3, {(0, 1): -1, (0, 2): 2})
    prod = a * b
    assert prod.half_exp == 4 and prod.theta == (((0, 2), 2),)
    assert prod.coeff == CyclotomicElement.from_rational(1)
    assert a * a.inverse() == HalfPowerValue.one(p)
    assert (a ** 3).half_exp == 3
    # even shifts of the p-power resolve into the coefficient
    assert HalfPowerValue(p, 3, 0) == HalfPowerValue(p, 1, 2)
    # odd shifts never do
    assert HalfPowerValue(p, 1, 1) != HalfPowerValue(p, 1, 0)
    with pytest.raises(ValueError):
        a + b


def _fields(v):
    return v.p, v.coeff, v.half_exp, v.theta


_VALUES = st.builds(
    lambda coeff, half_exp, theta: HalfPowerValue(3, coeff, half_exp, theta),
    st.sampled_from([0, 1, -2, Fraction(5, 7), CyclotomicElement.zeta(3),
                     CyclotomicElement(6, [1, Fraction(-1, 2)])]),
    st.integers(-4, 4),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(1, 3)), st.integers(-2, 2),
                    max_size=5))


@given(_VALUES, _VALUES)
@settings(max_examples=150, deadline=None)
def test_half_power_ring_operations_match_the_constructor(a, b):
    # each operation builds its result directly; __init__ is the reference
    summed = dict(a.theta)
    for key, e in b.theta:
        summed[key] = summed.get(key, 0) + e
    assert _fields(a * b) == _fields(HalfPowerValue(3, a.coeff * b.coeff,
                                                    a.half_exp + b.half_exp, summed))
    assert _fields(-a) == _fields(HalfPowerValue(3, -a.coeff, a.half_exp, dict(a.theta)))
    if a:
        assert _fields(a.inverse()) == _fields(HalfPowerValue(
            3, a.coeff.inverse(), -a.half_exp, {k: -e for k, e in a.theta}))
        # like terms, including a sum that cancels to zero
        like = HalfPowerValue(3, b.coeff, a.half_exp, dict(a.theta))
        assert _fields(a + like) == _fields(HalfPowerValue(3, a.coeff + b.coeff, a.half_exp,
                                                           dict(a.theta)))
        assert _fields(a + -a) == (3, CyclotomicElement.from_rational(0), 0, ())


def test_satake_alpha():
    sd = SatakeData(2, 1, 3)
    a1 = sd.alpha(0, 1)
    assert a1.half_exp == 3 and a1.theta == (((0, 1), 1),)
    # self-duality: theta_3 = theta_2^-1, theta_4 = theta_1^-1 for n = 2
    assert sd.theta_at_p(0, 3) == sd.theta_at_p(0, 2).inverse()
    ratio = sd.alpha(0, 2) / sd.alpha(0, 1)
    assert ratio.half_exp == 1 and ratio.theta == (((0, 2), 1),)


def test_modulus_character():
    assert modulus_character_exponent([[3, 2, 1, 0]], 2) == -10
    assert modulus_character_exponent([[1, 0, 0, 0]], 2) == -3
    assert modulus_deltaB([[1, 1, 1, 1]], 2, 3) == HalfPowerValue.one(3)
    v = modulus_deltaB([[Fraction(27), Fraction(9), Fraction(3), 1]], 2, 3)
    assert v == HalfPowerValue.p_power(3, -20)
    with pytest.raises(ValueError, match="power of p"):
        modulus_deltaB([[2, 1, 1, 1]], 2, 3)
    # multiplicativity
    rnd = random.Random(0)
    for _ in range(10):
        e1 = [rnd.randrange(0, 4) for _ in range(4)]
        e2 = [rnd.randrange(0, 4) for _ in range(4)]
        d1 = modulus_deltaB([[Fraction(3) ** k for k in e1]], 2, 3)
        d2 = modulus_deltaB([[Fraction(3) ** k for k in e2]], 2, 3)
        d12 = modulus_deltaB([[Fraction(3) ** (a + b) for a, b in zip(e1, e2)]], 2, 3)
        assert d1 * d2 == d12


def test_epsilon_factor_example():
    quad = PCharacter.from_log(3, 1, 1)
    eta = SmoothCharacter(quad, HalfPowerValue.one(3))
    z = CyclotomicElement.zeta(3)
    assert epsilon_factor(eta) == HalfPowerValue(3, -(z - z ** 2), -1)
    with pytest.raises(ValueError, match="ramified"):
        epsilon_factor(SmoothCharacter(PCharacter.trivial(3), HalfPowerValue.one(3)))


def test_epsilon_inversion_identity():
    rnd = random.Random(4)
    count = 0
    for p in (3, 5):
        for c in (1, 2):
            for chi in PCharacter.all_characters(p, c):
                if chi.conductor_exp == 0 or count >= 10:
                    continue
                m = max(chi.order(), 2)
                unit = CyclotomicElement.zeta(m, rnd.randrange(m))
                eta = SmoothCharacter(chi, HalfPowerValue(p, unit))
                assert epsilon_inversion_check(eta)
                count += 1
    assert count == 10


def test_interpolation_factor_symbolic():
    p, n = 3, 2
    quad = PCharacter.from_log(p, 1, 1)
    chi0 = SmoothCharacter(quad, HalfPowerValue(p, 1))
    sd = SatakeData(n, 1, p)
    value = interpolation_factor(sd, [chi0], [1], n)
    # the closed form in the theta symbols: a Laurent monomial in theta_1, theta_2
    exps = dict(value.theta)
    assert set(exps) <= {(0, 1), (0, 2)}
    # e doubled transforms by the visible power law in the theta part
    value2 = interpolation_factor(sd, [SmoothCharacter(PCharacter.from_log(p, 2, 1),
                                                       HalfPowerValue(p, 1))],
                                  [2], n)
    assert dict(value2.theta)[(0, 1)] == 2 * exps[(0, 1)]
    with pytest.raises(ValueError, match="ramified"):
        interpolation_factor(sd, [SmoothCharacter(PCharacter.trivial(p),
                                                  HalfPowerValue(p, 1))], [1], n)


def test_cpr_identity_instances():
    p = 3
    quad = PCharacter.from_log(p, 1, 1)
    chi0 = SmoothCharacter(quad, HalfPowerValue(p, 1))
    rep = cpr_identity_check(SatakeData(2, 1, p), [chi0], [1], 2)
    assert rep["passed"]
    chi5 = PCharacter.from_log(5, 1, 1)
    rep = cpr_identity_check(SatakeData(2, 1, 5),
                             [SmoothCharacter(chi5, HalfPowerValue(5, CyclotomicElement.zeta(4)))],
                             [1], 2)
    assert rep["passed"]
    # degenerate self-dual specialization theta_n(p) = 1
    sd = SatakeData(2, 1, p, values={(0, 2): HalfPowerValue(p, 1)})
    rep = cpr_identity_check(sd, [chi0], [1], 2)
    assert rep["passed"]
    # deeper conductor and two components
    chis = [SmoothCharacter(PCharacter.from_log(p, 2, 1), HalfPowerValue(p, CyclotomicElement.zeta(6))),
            SmoothCharacter(PCharacter.trivial(p), HalfPowerValue(p, 1))]
    rep = cpr_identity_check(SatakeData(3, 2, p), chis, [2, 1], 3)
    assert rep["passed"]


def test_cpr_identity_builds_one_tail_and_keeps_the_direct_value(monkeypatch):
    import padicdesk.interp as interp

    p = 3
    chis = [SmoothCharacter(PCharacter.from_log(p, 2, 1), HalfPowerValue(p, CyclotomicElement.zeta(6))),
            SmoothCharacter(PCharacter.trivial(p), HalfPowerValue(p, 1))]
    sd = SatakeData(3, 2, p)
    tails = []

    def counted(*args):
        tails.append(args)
        return raw_tail(*args)

    raw_tail = interp._factor_tail
    monkeypatch.setattr(interp, "_factor_tail", counted)
    rep = cpr_identity_check(sd, chis, [2, 1], 3)
    assert rep["passed"] and len(tails) == 1
    assert rep["direct"] == interpolation_factor(sd, chis, [2, 1], 3)


def test_depletion_eigen_factor():
    p = 3
    quad = PCharacter.from_log(p, 1, 1)
    z = CyclotomicElement.zeta(3)
    a = HalfPowerValue(p, 1, 4)
    val = depletion_eigen_factor(a, a, 1, 0, SmoothCharacter(quad, HalfPowerValue(p, 1)))
    assert val == HalfPowerValue(p, Fraction(2, 3) * (-1) * (z - z ** 2))
    # valuation bookkeeping: half_exp = 2 b kappa + b (v(a0) - v(a1)) doubled
    a0 = HalfPowerValue(p, 1, 6)
    a1 = HalfPowerValue(p, 1, 2)
    val = depletion_eigen_factor(a0, a1, 2, 1, SmoothCharacter(quad, HalfPowerValue(p, 1)))
    assert val.half_exp == (6 - 2) * 2 + 2 * 2 * 1
    with pytest.raises(ValueError):
        depletion_eigen_factor(a0, HalfPowerValue(p, 0), 1, 0,
                               SmoothCharacter(quad, HalfPowerValue(p, 1)))
    with pytest.raises(ValueError):
        depletion_eigen_factor(a0, a1, 0, 0, SmoothCharacter(quad, HalfPowerValue(p, 1)))


def test_t_p_e_exponents():
    assert t_p_e_exponents(2, [1]) == [[3, 2, 1, 0]]
    assert t_p_e_exponents(2, [2, 1]) == [[6, 4, 2, 0], [3, 2, 1, 0]]


def test_primitive_root():
    assert primitive_root(3, 1) == 2
    g = primitive_root(7, 2)
    assert pow(g, 42, 49) == 1 and pow(g, 21, 49) != 1 and pow(g, 14, 49) != 1


def test_gauss_sum_root_scaling_recorded():
    # replacing the fixed root zeta by zeta^u multiplies the sum by chi(u)^-1;
    # recorded behavior of the convention, computed by an explicit re-summation
    p, c = 5, 1
    chi = PCharacter.from_log(p, c, 1)
    u = 2
    field = 20  # lcm of the root order and the value order
    from padicdesk.cyclotomic import zeta_power_sum

    weights = {}
    for a in range(1, p):
        val = chi(a)
        vstep = field // val.m
        mono = val.as_monomial()
        k, coeff = mono
        key = (k * vstep + a * u * (field // p)) % field
        weights[key] = weights.get(key, 0) + coeff
    scaled = zeta_power_sum(field, weights)
    assert scaled == chi(u).inverse() * gauss_sum(chi)


def _old_alpha_p_e(data, e):
    """alpha_p^e before the running product: every alpha_(i, tau) from scratch."""
    out = HalfPowerValue.one(data.p)
    for tau in range(data.d):
        for i in range(1, 2 * data.n):
            out = out * data.alpha(tau, i) ** e[tau]
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_alpha_p_e_running_product_matches_the_old_one(p):
    zeta = CyclotomicElement.zeta(4, 1)
    for n in (2, 3, 4):
        for d in (1, 2):
            for values in (None, {(0, 1): HalfPowerValue(p, Fraction(2, 3), 1),
                                  (d - 1, n): HalfPowerValue(p, zeta, -3, {(d - 1, n): 1})}):
                data = SatakeData(n, d, p, values)
                for e in ([1] * d, [2, 1][:d], [3, 2][:d]):
                    got, want = data.alpha_p_e(e), _old_alpha_p_e(data, e)
                    assert got == want and got.to_json() == want.to_json()
