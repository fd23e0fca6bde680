"""Exact rational scalars with p-adic valuation, and the coercion rules of the rings over Q.

Everything in this package is computed over Q (or cyclotomic extensions);
the prime p is a per-computation parameter.  Valuations are
integers, with a +infinity sentinel for zero.  The rings over Q store int
numerators over one positive denominator, made by `ratio` and
`lowest_terms`, and derive their operators from `RingOps`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from . import work

INF = float("inf")  # valuation of 0


def integer(x, name: str) -> int:
    """x as an int, rejecting (not truncating) a fractional or non-finite x; name labels x."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return i


def ratio(x) -> tuple:
    """(numerator, denominator) of a rational scalar: an int, a Fraction or what Fraction reads."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def lowest_terms(nums, den: int) -> tuple:
    """nums / den with gcd(den, *nums) = 1 and den > 0.

    nums is a tuple of ints or a dict with int values, and comes back as the
    same kind; all-zero numerators come back over 1.
    """
    if den == 1:
        return nums, den
    g = gcd(den, *(nums.values() if isinstance(nums, dict) else nums))
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    if isinstance(nums, dict):
        return {k: c // g for k, c in nums.items()}, den // g
    return tuple(c // g for c in nums), den // g


class RingOps:
    """The operators a ring derives from its own.

    A subclass defines `__add__`, `__neg__`, `__mul__`, `is_zero`, `_coerce`
    (a scalar into the ring) and, for division and negative powers,
    `inverse`.  Its zeros are falsy, as int and Fraction zeros are.  A
    reflected operator has a scalar on its left, which every element commutes with.
    """

    __slots__ = ()

    def __bool__(self):
        return not self.is_zero()

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        """Square and multiply; a negative k raises the inverse, and k = 0 gives 1."""
        if k < 0:
            return self.inverse() ** (-k)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self._coerce(1) if out is None else out


# Below this bound the strong-probable-prime test to the first 13 prime bases
# decides primality exactly (Sorenson and Webster, 2015); above it trial division
# does, and its isqrt(p) - 1 divisions are charged before the first.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < _SPRP_BOUND:
        return all(_strong_probable_prime(p, a) for a in _SPRP_BASES)
    work.charge("rationals.is_prime", isqrt(p) - 1, "trial divisions")
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _strong_probable_prime(p: int, a: int) -> bool:
    """Whether p > 1 passes the Miller-Rabin test to base a.

    A p divisible by a passes only if p = a.
    """
    if p % a == 0:
        return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, p)
    if x == 1 or x == p - 1:
        return True
    for _ in range(s - 1):
        x = x * x % p
        if x == p - 1:
            return True
    return False


def valuation(x, p: int):
    """p-adic valuation of a rational: v_p(u * p^k) = k, v_p(0) = +inf."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    num, den = ratio(x)
    if num == 0:
        return INF
    # most arguments are p-adic units: one % each and no call
    v = _multiplicity(num, p) if num % p == 0 else 0
    return v - _multiplicity(den, p) if den % p == 0 else v


_PLAIN_STRIP = 16  # factors of p taken off one division at a time


def _multiplicity(num: int, p: int) -> int:
    """The largest v with p^v dividing the nonzero int num.

    The first _PLAIN_STRIP factors come off one division each.  Past them,
    num is divided by p, p^2, p^4, ... while these divide, then by the same
    powers back down, each at most once: O(log v) big divisions, where one
    division per factor would make a large v cost quadratic time.
    """
    v = 0
    while num % p == 0:
        num //= p
        v += 1
        if v < _PLAIN_STRIP:
            continue
        powers = [p]
        while True:
            q, rem = divmod(num, powers[-1])
            if rem:
                break
            num = q
            v += 1 << (len(powers) - 1)
            powers.append(powers[-1] * powers[-1])
        # what is left is below the last power: one bit of it per smaller one
        for i in range(len(powers) - 2, -1, -1):
            q, rem = divmod(num, powers[i])
            if not rem:
                num = q
                v += 1 << i
        return v
    return v


def unit_part(x, p: int) -> Fraction:
    """Write x = u * p^v with u a p-unit and return u."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("0 has no unit part")
    v = valuation(x, p)
    return x / Fraction(p) ** v
