"""Truncated Artinian coefficient rings Q[T_1..T_a]/(T_i^2).

An element is stored in the form `rationals.lowest_terms` gives every exact
ring: integer numerators over one positive denominator, gcd(den, *nums) = 1.
`nums` maps square-free monomials to nonzero ints; a monomial is a bitmask
with bit i standing for T_(i+1), and 0 is the constant term.  This form is
canonical, so `==` compares it directly; a constant hashes like its
Fraction, which it equals.  The product of two monomials is their bitwise
or, and it vanishes (T_i^2 = 0) when they share a bit.  The operators
derived from +, -x, * and `inverse` come from `rationals.RingOps`, except
`-` and the truth value, which read the numerators directly.

The interface speaks in frozensets of generator indices and `Fraction`
coefficients: the constructor takes {frozenset: coeff}, and `terms` is a
read-only {frozenset: Fraction} view.  Code that computes on the integer
form itself builds its results with `from_numerators`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .rationals import RingOps, lowest_terms, ratio

def _indices(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def from_numerators(ngens: int, nums: dict, den: int) -> "ArtinianElement":
    """nums / den with the zero numerators dropped, in lowest terms."""
    out = ArtinianElement.__new__(ArtinianElement)
    out.ngens = ngens
    if 0 in nums.values():
        nums = {m: c for m, c in nums.items() if c}
    out.nums, out.den = lowest_terms(nums, den)
    return out


_ONE = {0: 1}  # the numerators of 1, over den 1


def _product(xs, ys) -> dict:
    """The integer product of two sequences of (monomial, int) pairs, as a dict."""
    out = {}
    for m1, c1 in xs:
        for m2, c2 in ys:
            if not m1 & m2:  # else T_i^2 = 0
                m = m1 | m2
                out[m] = out.get(m, 0) + c1 * c2
    return out


class ArtinianElement(RingOps):
    """Element of Q[T_1..T_a]/(T_i^2)."""

    __slots__ = ("ngens", "nums", "den")

    def __init__(self, ngens: int, terms=None):
        coeffs = {}
        for mono, c in (terms or {}).items():
            mono = frozenset(mono)
            if any(i < 0 or i >= ngens for i in mono):
                raise ValueError("generator index out of range")
            m = sum(1 << i for i in mono)
            coeffs[m] = coeffs.get(m, 0) + Fraction(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.ngens = ngens
        self.nums, self.den = lowest_terms(
            {m: c.numerator * (den // c.denominator) for m, c in coeffs.items() if c}, den)

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {frozenset of generator indices: Fraction} view."""
        return MappingProxyType({_indices(m): Fraction(c, self.den)
                                 for m, c in self.nums.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, ngens: int, c) -> "ArtinianElement":
        num, den = ratio(c)
        return from_numerators(ngens, {0: num}, den)

    @classmethod
    def gen(cls, ngens: int, i: int) -> "ArtinianElement":
        if not 0 <= i < ngens:
            raise ValueError("generator index out of range")
        return from_numerators(ngens, {1 << i: 1}, 1)

    def _coerce(self, other) -> "ArtinianElement":
        if not isinstance(other, ArtinianElement):
            num, den = ratio(other)
            return from_numerators(self.ngens, {0: num}, den)
        if other.ngens != self.ngens:
            raise ValueError("mixed Artinian rings")
        return other

    # -- arithmetic ---------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign * other, in one pass over the integer numerators."""
        if type(other) is not ArtinianElement or other.ngens != self.ngens:
            other = self._coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            out = dict(self.nums)
            for m, c in other.nums.items():
                out[m] = out.get(m, 0) + sign * c
            return from_numerators(self.ngens, out, d1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, sign * d1 // g
        out = {m: c * f1 for m, c in self.nums.items()}
        for m, c in other.nums.items():
            out[m] = out.get(m, 0) + c * f2
        return from_numerators(self.ngens, out, d1 * f1)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return from_numerators(self.ngens, {m: -c for m, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, ArtinianElement):
            num, den = ratio(other)
            return from_numerators(self.ngens, {m: c * num for m, c in self.nums.items()},
                                   self.den * den)
        if other.ngens != self.ngens:
            other = self._coerce(other)  # raises
        # no code writes to `nums`, so a factor 1 can hand back the other operand
        if other.den == 1 and other.nums == _ONE:
            return self
        if self.den == 1 and self.nums == _ONE:
            return other
        return from_numerators(self.ngens, _product(self.nums.items(), other.nums.items()),
                               self.den * other.den)

    def __eq__(self, other):
        if type(other) is not ArtinianElement or other.ngens != self.ngens:
            try:
                other = self._coerce(other)
            except (ValueError, TypeError):
                return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if self.nums.keys() <= {0}:
            return hash(self.constant_term())
        return hash((self.den, frozenset(self.nums.items())))

    def __bool__(self):
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def inverse(self) -> "ArtinianElement":
        """The geometric series against the nilpotent part, summed in integers;
        needs a unit constant term.

        For self = (c + N) / den, with N the integer nilpotent part and
        (-N)^(K+1) = 0, the inverse is den S_K / c^(K+1), where
        S_K = sum over k <= K of (-N)^k c^(K-k).
        """
        c = self.nums.get(0)
        if c is None:
            raise ZeroDivisionError("not a unit: constant term not invertible")
        if len(self.nums) == 1:
            return from_numerators(self.ngens, {0: self.den}, c)
        neg = [(m, -v) for m, v in self.nums.items() if m]
        total = power = {0: 1}
        c_power = c
        for _ in range(self.ngens):
            # S_k = c S_(k-1) + (-N)^k
            power = {m: v for m, v in _product(power.items(), neg).items() if v}
            if not power:
                break
            total = {m: v * c for m, v in total.items()}
            for m, v in power.items():
                total[m] = total.get(m, 0) + v
            c_power *= c
        return from_numerators(self.ngens, {m: v * self.den for m, v in total.items()},
                               c_power)

    def top_coefficient(self) -> Fraction:
        """Coefficient of the full monomial T_1...T_a."""
        return Fraction(self.nums.get((1 << self.ngens) - 1, 0), self.den)

    def __repr__(self):
        if not self.nums:
            return "0"
        parts = []
        for m in sorted(self.nums, key=lambda m: (m.bit_count(), sorted(_indices(m)))):
            mono = "*".join(f"T{i+1}" for i in sorted(_indices(m))) if m else "1"
            parts.append(f"({Fraction(self.nums[m], self.den)})*{mono}")
        return " + ".join(parts)


def derivation_from_images(images: list) -> "callable":
    """The derivation D on Q[T_1..T_a]/(T_i^2) with D(T_i) = images[i].

    Extended by the Leibniz rule; D kills constants.  The images are
    elements of one ring; D(c T^I) = sum over i in I of c T^(I - i) images[i],
    summed as integers over the common denominator of the images.
    """
    rings = {im.ngens for im in images}
    den = lcm(*(im.den for im in images))
    scaled = [[(m, c * (den // im.den)) for m, c in im.nums.items()] for im in images]

    def apply(elem: ArtinianElement) -> ArtinianElement:
        if rings - {elem.ngens}:
            raise ValueError("mixed Artinian rings")
        out = {}
        for mono, c in elem.nums.items():
            rest = mono
            while rest:
                bit = rest & -rest
                rest ^= bit
                lower = mono ^ bit
                for m, t in scaled[bit.bit_length() - 1]:
                    if not m & lower:
                        key = m | lower
                        out[key] = out.get(key, 0) + c * t
        return from_numerators(elem.ngens, out, elem.den * den)

    return apply
