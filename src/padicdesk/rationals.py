"""Exact rational scalars with p-adic valuation.

Everything in this package is computed over Q (or cyclotomic extensions);
the prime p is a per-computation parameter, default 3.  Valuations are
integers, with a +infinity sentinel for zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

INF = float("inf")  # valuation of 0

DEFAULT_PRIME = 3


def integer(x, name: str) -> int:
    """x as an int, rejecting (not truncating) a fractional or non-finite x; name labels x."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return i


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def valuation(x, p: int = DEFAULT_PRIME):
    """p-adic valuation of a rational: v_p(u * p^k) = k, v_p(0) = +inf."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        return INF
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part(x, p: int = DEFAULT_PRIME) -> Fraction:
    """Write x = u * p^v with u a p-unit and return u."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("0 has no unit part")
    v = valuation(x, p)
    return x / Fraction(p) ** v
