"""Truncated Artinian coefficient rings Q[T_1..T_a]/(T_i^2).

Elements are maps from square-free monomials in the nilpotent generators to
rational coefficients.  Monomials are frozensets of generator indices; the
empty set is the constant term.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


class ArtinianElement:
    """Element of Q[T_1..T_a]/(T_i^2)."""

    __slots__ = ("ngens", "terms")

    def __init__(self, ngens: int, terms=None):
        self.ngens = ngens
        clean = {}
        for mono, c in (terms or {}).items():
            mono = frozenset(mono)
            if any(i < 0 or i >= ngens for i in mono):
                raise ValueError("generator index out of range")
            c = Fraction(c)
            if c:
                clean[mono] = clean.get(mono, _ZERO) + c
                if not clean[mono]:
                    del clean[mono]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, ngens: int, c) -> "ArtinianElement":
        return cls(ngens, {frozenset(): c})

    @classmethod
    def gen(cls, ngens: int, i: int) -> "ArtinianElement":
        return cls(ngens, {frozenset([i]): 1})

    def _like(self, terms) -> "ArtinianElement":
        """An element of this ring from in-range monomials and Fraction coefficients."""
        out = ArtinianElement.__new__(ArtinianElement)
        out.ngens = self.ngens
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    def _check(self, other) -> "ArtinianElement":
        if not isinstance(other, ArtinianElement):
            return ArtinianElement.constant(self.ngens, other)
        if other.ngens != self.ngens:
            raise ValueError("mixed Artinian rings")
        return other

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ArtinianElement):
            scalar = Fraction(other)
            return self._like({m: c * scalar for m, c in self.terms.items()})
        other = self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue  # T_i^2 = 0
                m = m1 | m2
                out[m] = out.get(m, _ZERO) + c1 * c2
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ArtinianElement.constant(self.ngens, 1)
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
        return hash((self.ngens, tuple(sorted(self.terms.items(), key=lambda kv: sorted(kv[0])))))

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(frozenset(), _ZERO)

    def nilpotent_part(self) -> "ArtinianElement":
        return self._like({m: c for m, c in self.terms.items() if m})

    def is_unit(self) -> bool:
        return self.constant_term() != 0

    def inverse(self) -> "ArtinianElement":
        """Geometric series against the nilpotent part; needs a unit constant term."""
        if not self.is_unit():
            raise ZeroDivisionError("not a unit: constant term not invertible")
        c_inv = 1 / self.constant_term()
        n = self.nilpotent_part() * c_inv
        out = power = ArtinianElement.constant(self.ngens, 1)
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
        return self.terms.get(frozenset(mono), _ZERO)

    def top_coefficient(self) -> Fraction:
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


def derivation_from_images(images: list) -> "callable":
    """The derivation D on Q[T_1..T_a]/(T_i^2) with D(T_i) = images[i].

    Extended by the Leibniz rule; D kills constants.
    """

    def apply(elem: ArtinianElement) -> ArtinianElement:
        out = elem._like({})
        for mono, c in elem.terms.items():
            for i in mono:
                out = out + elem._like({mono - {i}: c}) * images[i]
        return out

    return apply
