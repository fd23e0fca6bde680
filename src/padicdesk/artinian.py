"""Truncated Artinian coefficient rings Q[T_1..T_a]/(T_i^2), optionally mod p^N.

Elements are maps from square-free monomials in the nilpotent generators to
coefficients.  Monomials are frozensets of generator indices; the empty set
is the constant term.  Coefficients are exact rationals by default, or
integers mod m when a modulus is given (then division is restricted to
units of Z/m).
"""

from __future__ import annotations

from fractions import Fraction


class ArtinianElement:
    """Element of Q[T_1..T_a]/(T_i^2) (or (Z/m)[T_1..T_a]/(T_i^2))."""

    __slots__ = ("ngens", "modulus", "terms")

    def __init__(self, ngens: int, terms=None, modulus: int | None = None):
        self.ngens = ngens
        self.modulus = modulus
        clean = {}
        for mono, c in (terms or {}).items():
            mono = frozenset(mono)
            if any(i < 0 or i >= ngens for i in mono):
                raise ValueError("generator index out of range")
            c = self._coeff(c)
            if c:
                clean[mono] = clean.get(mono, self._coeff(0)) + c
                if not clean[mono]:
                    del clean[mono]
        if self.modulus is not None:
            clean = {m: c % self.modulus for m, c in clean.items() if c % self.modulus}
        self.terms = clean

    def _coeff(self, c):
        if self.modulus is None:
            return Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator == 1:
                return c.numerator % self.modulus
            from math import gcd

            if gcd(c.denominator, self.modulus) != 1:
                raise ValueError("non-unit denominator mod modulus")
            return (c.numerator * pow(c.denominator, -1, self.modulus)) % self.modulus
        return int(c) % self.modulus

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, ngens: int, c, modulus: int | None = None) -> "ArtinianElement":
        return cls(ngens, {frozenset(): c}, modulus)

    @classmethod
    def gen(cls, ngens: int, i: int, modulus: int | None = None) -> "ArtinianElement":
        return cls(ngens, {frozenset([i]): 1}, modulus)

    def _like(self, terms) -> "ArtinianElement":
        return ArtinianElement(self.ngens, terms, self.modulus)

    def _check(self, other) -> "ArtinianElement":
        if not isinstance(other, ArtinianElement):
            return ArtinianElement.constant(self.ngens, other, self.modulus)
        if other.ngens != self.ngens or other.modulus != self.modulus:
            raise ValueError("mixed Artinian rings")
        return other

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, self._coeff(0)) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue  # T_i^2 = 0
                m = m1 | m2
                out[m] = out.get(m, self._coeff(0)) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ArtinianElement.constant(self.ngens, 1, self.modulus)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            other = self._check(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ngens, self.modulus, tuple(sorted(self.terms.items(), key=lambda kv: sorted(kv[0])))))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get(frozenset(), self._coeff(0))

    def nilpotent_part(self) -> "ArtinianElement":
        return self._like({m: c for m, c in self.terms.items() if m})

    def is_unit(self) -> bool:
        c = self.constant_term()
        if self.modulus is None:
            return c != 0
        from math import gcd

        return gcd(int(c), self.modulus) == 1

    def inverse(self) -> "ArtinianElement":
        """Geometric series against the nilpotent part; needs a unit constant term."""
        if not self.is_unit():
            raise ZeroDivisionError("not a unit: constant term not invertible")
        c = self.constant_term()
        if self.modulus is None:
            c_inv = 1 / Fraction(c)
        else:
            c_inv = pow(int(c), -1, self.modulus)
        n = self.nilpotent_part() * c_inv
        out = ArtinianElement.constant(self.ngens, 1, self.modulus)
        power = ArtinianElement.constant(self.ngens, 1, self.modulus)
        for _ in range(self.ngens):
            power = power * (-n)
            if power.is_zero():
                break
            out = out + power
        return out * c_inv

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(frozenset(mono), self._coeff(0))

    def top_coefficient(self):
        """Coefficient of the full monomial T_1...T_a."""
        return self.coefficient(range(self.ngens))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda s: (len(s), sorted(s))):
            c = self.terms[m]
            mono = "*".join(f"T{i+1}" for i in sorted(m)) if m else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        out = {}
        for m, c in self.terms.items():
            key = "*".join(f"T{i+1}" for i in sorted(m)) if m else "1"
            out[key] = f"{c.numerator}/{c.denominator}" if self.modulus is None else int(c)
        return {"ngens": self.ngens, "modulus": self.modulus, "terms": out}

    @classmethod
    def from_json(cls, data: dict) -> "ArtinianElement":
        terms = {}
        for key, c in data["terms"].items():
            mono = frozenset() if key == "1" else frozenset(int(t[1:]) - 1 for t in key.split("*"))
            terms[mono] = Fraction(c) if data.get("modulus") is None else int(c)
        return cls(data["ngens"], terms, data.get("modulus"))


def derivation_from_images(images: list) -> "callable":
    """The derivation D on Q[T_1..T_a]/(T_i^2) with D(T_i) = images[i].

    Extended by the Leibniz rule; D kills constants.
    """

    def apply(elem: ArtinianElement) -> ArtinianElement:
        ngens = elem.ngens
        out = ArtinianElement(ngens, {}, elem.modulus)
        for mono, c in elem.terms.items():
            for i in mono:
                rest = ArtinianElement(ngens, {frozenset(mono - {i}): c}, elem.modulus)
                out = out + rest * images[i]
        return out

    return apply
