"""Finite-order characters of Z_p^* with exact cyclotomic values, and Gauss sums.

For odd p the group (Z/p^c)^* is cyclic, generated by g = primitive_root(p, c),
so a character of conductor p^c is stored as three integers: p, c and its
discrete log k mod phi(p^c), meaning chi(g^t) = zeta_phi^(k t).  The stored c
is always the exact conductor and k is indexed against the generator mod p^c.
Order, product, inverse and parity are integer arithmetic on k; values are
built only on evaluation.  The root-of-unity system is the fixed one: zeta_k
is the class of X mod Phi_k, and zeta_k = zeta_m^(m/k) for k | m.  Gauss sums
always pair the character against zeta_{p^c} from this system.  They are
summed in integers, one exponent of zeta_field per unit read off the
discrete-log table, and memoized per (p, c, log, depth).

Only odd p is supported for nontrivial characters.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import CyclotomicElement, zeta_power_sum
from .rationals import is_prime


def _phi(p: int, c: int) -> int:
    return p ** (c - 1) * (p - 1)


@lru_cache(maxsize=None)
def primitive_root(p: int, c: int) -> int:
    """A generator of (Z/p^c)^*, odd p."""
    if p == 2:
        raise ValueError("odd p required")
    modulus = p ** c
    phi = _phi(p, c)
    prime_factors = set()
    t = phi
    d = 2
    while d * d <= t:
        if t % d == 0:
            prime_factors.add(d)
            while t % d == 0:
                t //= d
        d += 1
    if t > 1:
        prime_factors.add(t)
    for g in range(2, modulus):
        if g % p == 0:
            continue
        if all(pow(g, phi // q, modulus) != 1 for q in prime_factors):
            return g
    raise RuntimeError("no primitive root found")


@lru_cache(maxsize=None)
def _dlog_table(p: int, c: int) -> dict:
    """a -> t with a = g^t mod p^c, for g = primitive_root(p, c)."""
    modulus = p ** c
    g = primitive_root(p, c)
    table = {}
    x = 1
    for t in range(_phi(p, c)):
        table[x] = t
        x = x * g % modulus
    return table


class PCharacter:
    """Finite-order character of Z_p^* with exact conductor p^c.

    A value at p, which makes it a character of Q_p^*, is carried by
    `interp.SmoothCharacter`.
    """

    __slots__ = ("p", "conductor_exp", "log")

    def __init__(self, p: int, conductor_exp: int, log: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if conductor_exp < 0:
            raise ValueError("conductor exponent must be >= 0")
        c = conductor_exp
        k = log % _phi(p, c) if c else 0
        if k and p == 2:
            raise ValueError("odd p required")
        # chi is trivial on 1 + p^(c-1) Z_p iff p | k; then it factors through
        # (Z/p^(c-1))^*, and chi(g') = zeta_phi^(k dlog g') re-indexes k to g'
        while k and c > 1 and k % p == 0:
            k = k // p * _dlog_table(p, c)[primitive_root(p, c - 1)] % _phi(p, c - 1)
            c -= 1
        self.p = p
        self.conductor_exp = c if k else 0
        self.log = k

    # -- constructors -------------------------------------------------

    @classmethod
    def trivial(cls, p: int) -> "PCharacter":
        return cls(p, 0, 0)

    @classmethod
    def from_log(cls, p: int, c: int, k: int) -> "PCharacter":
        """chi(g^t) = zeta_phi(p^c)^(k t) for the canonical generator g of (Z/p^c)^*."""
        return cls(p, c, k)

    @classmethod
    def all_characters(cls, p: int, c: int):
        """All characters of conductor dividing p^c."""
        return [cls.from_log(p, c, k) for k in range(_phi(p, c))]

    # -- evaluation / group law ----------------------------------------

    def exponent(self, a) -> tuple[int, int]:
        """(order, e) with chi(a) = zeta_order^e, for a p-unit a."""
        if self.conductor_exp == 0:
            if Fraction(a) == 0:
                raise ValueError("character evaluated at 0")
            return 1, 0
        modulus = self.p ** self.conductor_exp
        a = Fraction(a)
        if gcd(a.numerator, self.p) != 1 or gcd(a.denominator, self.p) != 1:
            raise ValueError(f"{a} is not a p-unit")
        r = (a.numerator * pow(a.denominator, -1, modulus)) % modulus
        # chi(g^t) = zeta_phi^(k t) = zeta_order^((k / s) t), s = gcd(phi, k)
        phi = _phi(self.p, self.conductor_exp)
        s = gcd(phi, self.log)
        return phi // s, self.log // s * _dlog_table(self.p, self.conductor_exp)[r] % (phi // s)

    def __call__(self, a) -> CyclotomicElement:
        return CyclotomicElement.zeta(*self.exponent(a))

    def order(self) -> int:
        """Exact multiplicative order of the character."""
        if self.conductor_exp == 0:
            return 1
        phi = _phi(self.p, self.conductor_exp)
        return phi // gcd(phi, self.log)

    def parity(self) -> int:
        """chi(-1) as +1 or -1: -1 = g^(phi/2), so chi(-1) = (-1)^k."""
        return -1 if self.log % 2 else 1

    def __mul__(self, other: "PCharacter") -> "PCharacter":
        if self.p != other.p:
            raise ValueError("mixed primes")
        c = max(self.conductor_exp, other.conductor_exp)
        if c == 0:
            return PCharacter.trivial(self.p)
        # the log of each factor at depth c is read off its value at the generator
        g = primitive_root(self.p, c)
        phi = _phi(self.p, c)
        log = 0
        for chi in (self, other):
            order, e = chi.exponent(g)
            log += e * (phi // order)
        return PCharacter(self.p, c, log)

    def inverse(self) -> "PCharacter":
        return PCharacter(self.p, self.conductor_exp, -self.log)

    def __eq__(self, other):
        return (isinstance(other, PCharacter) and self.p == other.p
                and self.conductor_exp == other.conductor_exp and self.log == other.log)

    def __repr__(self):
        return f"PCharacter(p={self.p}, cond=p^{self.conductor_exp}, order={self.order()})"


def _log_multiplier(p: int, c: int, log: int, field_order: int) -> int:
    """mult with chi(a) = zeta_field_order^(mult * t) for the character chi of
    conductor p^c and discrete log ``log``, where t = _dlog_table(p, c)[a mod p^c].

    The order of chi must divide field_order: chi(g^t) = zeta_order^(k t)
    with order = phi/s and k = log/s for s = gcd(phi, log).
    """
    phi = _phi(p, c)
    s = gcd(phi, log)
    return log // s * (field_order // (phi // s))


def unit_powers(p: int, c: int, log: int, h: int, field_order: int) -> list:
    """[(a, j)] over a in (Z/p^h)^*, with chi(a) = zeta_field_order^j for the
    character chi of conductor p^c and discrete log ``log``; the order of chi
    must divide field_order."""
    mult = _log_multiplier(p, c, log, field_order)
    table, modulus = _dlog_table(p, c), p ** c
    return [(a, table[a % modulus] * mult % field_order) for a in range(1, p ** h) if a % p]


def gauss_sum(chi: PCharacter, h: int | None = None) -> CyclotomicElement:
    """G(chi) = p^-(h-c) * sum over a in (Z/p^h)^* of chi(a) zeta_{p^c}^a.

    Requires conductor exactly p^c with c >= 1; the value is independent of
    the auxiliary depth h >= c.
    """
    c = chi.conductor_exp
    if c == 0:
        raise ValueError("conductor must be >= p")
    if h is None:
        h = c
    if h < c:
        raise ValueError("h must be >= conductor exponent")
    return _gauss_sum(chi.p, c, chi.log, h)


# CyclotomicElement is immutable (a tuple of int numerators over one
# denominator, and nothing assigns to .m, .nums or .den once it is built),
# so callers may share a cached sum
@lru_cache(maxsize=None)
def _gauss_sum(p: int, c: int, log: int, h: int) -> CyclotomicElement:
    """gauss_sum of the character (p, c, log) at depth h; every depth is summed
    in full, so depth independence is computed, not assumed."""
    root_order = p ** c
    phi = _phi(p, c)
    field_order = lcm(root_order, phi // gcd(phi, log))
    step = field_order // root_order
    mult, table = _log_multiplier(p, c, log, field_order), _dlog_table(p, c)
    # the summand chi(a) zeta_{p^c}^a is one power of zeta_field, counted in one pass
    weights = Counter((table[a % root_order] * mult + a * step) % field_order
                      for a in range(1, p ** h) if a % p)
    return zeta_power_sum(field_order, weights) * Fraction(1, p ** (h - c))
