"""Characters against oracles that share no code with the discrete-log kernel."""

import cmath
import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from padicdesk import characters, suites
from padicdesk.characters import PCharacter, gauss_sum
from padicdesk.cyclotomic import CyclotomicElement
from padicdesk.interp import HalfPowerValue, SatakeData, SmoothCharacter, interpolation_factor

PRIMES = (3, 5, 7, 11, 13)


@lru_cache(maxsize=None)
def _generator(p, c):
    """Smallest g whose powers walk all of (Z/p^c)^*, found by brute force."""
    modulus, phi = p ** c, p ** (c - 1) * (p - 1)
    for g in range(2, modulus):
        x, steps = g, 1
        while x != 1:
            x, steps = x * g % modulus, steps + 1
        if steps == phi:
            return g


def _oracle(p, c, k):
    """a -> (order, e) with chi(a) = zeta_order^e, from chi(g^t) = zeta_phi^(k t) at depth c."""
    modulus, phi = p ** c, p ** (c - 1) * (p - 1)
    order = next(o for o in range(1, phi + 1) if k * o % phi == 0)
    g, x, table = _generator(p, c), 1, {}
    for t in range(phi):
        table[x] = (order, k * t * order // phi % order)
        x = x * g % modulus
    return table


def _oracle_conductor(p, c, table):
    for cc in range(c + 1):
        if all(e == 0 for a, (_, e) in table.items() if (a - 1) % p ** cc == 0):
            return cc


@lru_cache(maxsize=None)
def _zeta(order, e):
    return CyclotomicElement.zeta(order, e)


def _angle(order, e):
    """zeta_order^e as the fraction e/order mod 1, in lowest terms."""
    return Fraction(e, order) % 1


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("c", (1, 2))
def test_characters_match_brute_force_oracle(p, c):
    for k in range(p ** (c - 1) * (p - 1)):
        table = _oracle(p, c, k)
        chi = PCharacter.from_log(p, c, k)
        order = table[1][0]
        assert chi.order() == order
        assert chi.conductor_exp == _oracle_conductor(p, c, table)
        assert chi.parity() == (1 if table[p ** c - 1][1] == 0 else -1)
        inv = chi.inverse()
        for a, (o, e) in table.items():
            value = chi(a)
            expected = _zeta(o, e)
            assert (value.m, value.coeffs) == (expected.m, expected.coeffs)
            assert _angle(*inv.exponent(a)) == _angle(o, -e)


@pytest.mark.parametrize("p", PRIMES)
def test_character_product_matches_oracle(p):
    rnd = random.Random(p)
    logs = [(c, k) for c in (1, 2) for k in range(p ** (c - 1) * (p - 1))]
    for _ in range(40):
        (c1, k1), (c2, k2) = rnd.choice(logs), rnd.choice(logs)
        t1, t2 = _oracle(p, c1, k1), _oracle(p, c2, k2)
        prod = PCharacter.from_log(p, c1, k1) * PCharacter.from_log(p, c2, k2)
        for a in range(1, p ** 2):
            if a % p:
                expected = _angle(*t1[a % p ** c1]) + _angle(*t2[a % p ** c2])
                assert _angle(*prod.exponent(a)) == expected % 1


def test_reindexing_does_not_assume_generators_agree(monkeypatch):
    # the canonical generators mod 7 and mod 49 are both 3; force 5 mod 7
    p = 7
    canonical = characters.primitive_root
    monkeypatch.setattr(characters, "primitive_root",
                        lambda q, c: 5 if (q, c) == (p, 1) else canonical(q, c))
    characters._dlog_table.cache_clear()
    try:
        for j in range(1, p - 1):
            chi = PCharacter.from_log(p, 2, p * j)
            assert chi.conductor_exp == 1
            for a, (o, e) in _oracle(p, 2, p * j).items():
                assert chi(a) == _zeta(o, e)
            prod = chi * PCharacter.from_log(p, 2, 1)
            for a, (o, e) in _oracle(p, 2, p * j + 1).items():
                assert _angle(*prod.exponent(a)) == _angle(o, e)
    finally:
        characters._dlog_table.cache_clear()


def test_character_rejects_bad_input():
    with pytest.raises(ValueError):
        PCharacter.from_log(4, 1, 1)
    with pytest.raises(ValueError):
        PCharacter.from_log(5, -1, 1)
    with pytest.raises(ValueError, match="odd p"):
        PCharacter.from_log(2, 2, 1)
    assert PCharacter.from_log(2, 1, 1).conductor_exp == 0
    with pytest.raises(ValueError, match="at 0"):
        PCharacter.trivial(5)(0)


def test_character_json_form():
    # a character is stored by its conductor and discrete log, reduced
    chi = PCharacter.from_log(7, 2, 14)
    assert (chi.p, chi.conductor_exp, chi.log) == (7, 1, 2)
    assert PCharacter(7, 1, 2) == chi


def _complex(x: CyclotomicElement) -> complex:
    return sum(float(c) * cmath.exp(2j * cmath.pi * k / x.m) for k, c in enumerate(x.coeffs))


@pytest.mark.parametrize("p, c", [(p, 1) for p in PRIMES] + [(3, 2), (5, 2), (7, 2)])
def test_gauss_sum_absolute_value_complex(p, c):
    # |G(chi)|^2 = p^c and G(chi) G(chi^-1) = chi(-1) p^c (Washington, GTM 83, section 4)
    for chi in PCharacter.all_characters(p, c):
        if chi.conductor_exp != c:
            continue
        g = _complex(gauss_sum(chi))
        assert abs(abs(g) ** 2 - p ** c) < 1e-9
        g_inv = _complex(gauss_sum(chi.inverse()))
        assert abs(g * g_inv - chi.parity() * p ** c) < 1e-9


def _brute_gauss_sum(chi, h):
    """p^-(h-c) * sum over a in (Z/p^h)^* of chi(a) zeta_{p^c}^a, one addition per unit.

    Summands with one character value are added in Q(zeta_{p^c}) first, then
    each group is multiplied by that value.
    """
    p, c = chi.p, chi.conductor_exp
    groups = {}
    for a in range(1, p ** h):
        if a % p:
            value, z = chi(a), CyclotomicElement.zeta(p ** c, a)
            groups[value] = groups[value] + z if value in groups else z
    total = CyclotomicElement.from_rational(0)
    for value, part in groups.items():
        total = total + value * part
    return total * Fraction(1, p ** (h - c))


# odd p and c with p^(c+1) <= 250, so that both depths h = c, c + 1 stay small
# for the brute-force sum (its additions cost far more than the integer loop)
_GAUSS_CASES = [(p, c) for p in (3, 5, 7, 11, 13) for c in range(1, 5) if p ** (c + 1) <= 250]


@pytest.mark.parametrize("p, c", _GAUSS_CASES)
def test_integer_gauss_sum_matches_brute_force(p, c):
    for chi in PCharacter.all_characters(p, c):
        if chi.conductor_exp != c:
            continue
        for h in (c, c + 1):
            fast, slow = gauss_sum(chi, h), _brute_gauss_sum(chi, h)
            assert (fast.m, fast.coeffs) == (slow.m, slow.coeffs), (p, c, chi.log, h)


def test_gauss_sums_are_computed_once_per_character_and_depth(monkeypatch):
    cached = characters._gauss_sum
    cached.cache_clear()
    keys = []
    monkeypatch.setattr(characters, "_gauss_sum", lambda *key: keys.append(key) or cached(*key))
    suites.run_interp_suite(7)
    distinct = set(keys)
    assert len(keys) > len(distinct)
    assert cached.cache_info().misses == len(distinct)
    # the depth-independence check computes each auxiliary depth on its own
    for p, c, log, h in distinct:
        if h == c:
            assert {(p, c, log, c + 1), (p, c, log, c + 2)} <= distinct


def test_interpolation_factor_stays_in_the_gauss_sum_field():
    # chi0 of conductor 13^2 with a second character of order 12: the signs
    # chi_tau(-1)^n are rational, so the value lives in Q(zeta_676)
    p, n = 13, 2
    chis = [SmoothCharacter(PCharacter.from_log(p, 2, 3), HalfPowerValue(p, 1)),
            SmoothCharacter(PCharacter.from_log(p, 1, 1), HalfPowerValue(p, 1))]
    assert chis[1].finite.order() == 12
    value = interpolation_factor(SatakeData(n, 2, p), chis, [2, 1], n)
    assert value.coeff.m == 676
    assert value.half_exp == 28
    assert value.theta == (((0, 1), -6), ((1, 1), -3), ((1, 2), -1))
    # the same number as when the signs were kept in Q(zeta_12): its image in
    # Q(zeta_2028), pinned from that computation
    pinned = "8dcaf4a8fd2e8ee3c894c5fd34e789da49f7211009c06534613f00e79e14b2f3"
    image = json.dumps(value.coeff.embed(2028).to_json()).encode()
    assert hashlib.sha256(image).hexdigest() == pinned
