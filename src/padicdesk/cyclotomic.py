"""Exact cyclotomic field arithmetic.

Elements of Q(zeta_m) are stored as rational coefficient vectors of length
deg Phi_m, i.e. residues mod the m-th cyclotomic polynomial.  The root
zeta_m is the class of X; compatibility between orders follows the fixed
convention zeta_k = zeta_m^(m/k) whenever k | m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


def _poly_divmod(num, den):
    """Divide coefficient lists (lowest degree first) over Q; den monic-leading."""
    num = list(num)
    out = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1] / lead
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    rem = num[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return out, rem


def divisors(m: int):
    return [d for d in range(1, m + 1) if m % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Coefficients of Phi_m, lowest degree first, exact rationals."""
    if m < 1:
        raise ValueError("order must be >= 1")
    if m == 1:
        return (Fraction(-1), Fraction(1))
    # x^m - 1 divided by the product of Phi_d over proper divisors d | m
    num = [Fraction(0)] * (m + 1)
    num[0] = Fraction(-1)
    num[m] = Fraction(1)
    for d in divisors(m):
        if d == m:
            continue
        num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
        if rem:
            raise ArithmeticError("cyclotomic division must be exact")
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_table(m: int):
    """x^k mod Phi_m for k = 0..m-1, as tuples of rationals."""
    phi = list(cyclotomic_polynomial(m))
    deg = len(phi) - 1
    rows = []
    row = [Fraction(0)] * deg
    row[0] = Fraction(1)
    rows.append(tuple(row))
    for _ in range(1, m):
        # multiply by x: shift, then reduce the overflow with x^deg = -(phi[:-1])
        new = [Fraction(0)] + list(rows[-1])
        if len(new) > deg:
            top = new.pop()
            if top:
                for i in range(deg):
                    new[i] -= top * phi[i]
        rows.append(tuple(new))
    return rows


class CyclotomicElement:
    """Residue mod Phi_m with rational coefficients; zeta_m is the class of X."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        deg = len(cyclotomic_polynomial(m)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce(m, cs)
        cs += [Fraction(0)] * (deg - len(cs))
        self.m = m
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x, m: int = 1) -> "CyclotomicElement":
        return cls(m, [Fraction(x)])

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CyclotomicElement":
        """zeta_m^power as an element of Q(zeta_m)."""
        table = _reduction_table(m)
        return cls(m, list(table[power % m]))

    # -- ring structure -----------------------------------------------

    def _pair(self, other):
        if not isinstance(other, CyclotomicElement):
            other = CyclotomicElement.from_rational(other, self.m)
        if self.m == other.m:
            return self, other
        m = lcm(self.m, other.m)
        return self.embed(m), other.embed(m)

    def embed(self, m: int) -> "CyclotomicElement":
        """Image under zeta_self -> zeta_m^(m/self.m); requires self.m | m."""
        if m == self.m:
            return self
        if m % self.m != 0:
            raise ValueError(f"no embedding Q(zeta_{self.m}) -> Q(zeta_{m})")
        step = m // self.m
        table = _reduction_table(m)
        deg = len(table[0])
        out = [Fraction(0)] * deg
        for k, c in enumerate(self.coeffs):
            if c:
                row = table[(k * step) % m]
                for i in range(deg):
                    out[i] += c * row[i]
        return CyclotomicElement(m, out)

    def __add__(self, other):
        a, b = self._pair(other)
        return CyclotomicElement(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, CyclotomicElement)
                       else CyclotomicElement.from_rational(-Fraction(other), self.m))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CyclotomicElement(a.m, _reduce(a.m, prod))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicElement.from_rational(1, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CyclotomicElement":
        """Inverse via extended Euclid against Phi_m (monomials short-circuit)."""
        mono = self.as_monomial()
        if mono is not None:
            k, c = mono
            if c == 0:
                raise ZeroDivisionError("0 is not invertible")
            return CyclotomicElement.zeta(self.m, (-k) % self.m) * (1 / c)
        phi = list(cyclotomic_polynomial(self.m))
        a = list(self.coeffs)
        while a and a[-1] == 0:
            a.pop()
        if not a:
            raise ZeroDivisionError("0 is not invertible")
        # extended gcd of a and phi in Q[x]
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        t0, t1 = [Fraction(1)], [Fraction(0)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible mod Phi_m")
        inv = [c / r0[0] for c in s0]
        return CyclotomicElement(self.m, _reduce(self.m, inv))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CyclotomicElement.from_rational(other, self.m) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.from_rational(other, self.m)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_monomial(self):
        """(k, c) if the element is c * zeta^k in reduced form, else None.

        Only detects single-term reduced representations, which covers the
        character tables used for Gauss sums.
        """
        found = None
        for k, c in enumerate(self.coeffs):
            if c:
                if found is not None:
                    return None
                found = (k, c)
        return found

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z{self.m}")
            else:
                terms.append(f"{c}*z{self.m}^{k}")
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "CyclotomicElement":
        return cls(data["m"], [Fraction(c) for c in data["coeffs"]])


def _reduce(m: int, coeffs):
    table = _reduction_table(m)
    deg = len(table[0])
    out = [Fraction(0)] * deg
    for k, c in enumerate(coeffs):
        if c:
            if k < deg:
                out[k] += c
            else:
                row = table[k % m]  # zeta^m = 1
                for i in range(deg):
                    out[i] += c * row[i]
    return out


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out


def cyclotomic_reduce(coeffs, m: int) -> CyclotomicElement:
    """Canonical residue of a rational-coefficient polynomial in zeta_m."""
    if m < 1:
        raise ValueError("order must be >= 1")
    return CyclotomicElement(m, _reduce(m, [Fraction(c) for c in coeffs]))


def zeta_power_sum(m: int, weights: dict) -> CyclotomicElement:
    """Sum of c * zeta_m^k over (k -> c) in one reduction pass.

    Fast path for Gauss sums and Fourier expansions, where every summand is
    a root of unity times a rational.
    """
    table = _reduction_table(m)
    deg = len(table[0])
    out = [Fraction(0)] * deg
    for k, c in weights.items():
        c = Fraction(c)
        if c:
            row = table[k % m]
            for i in range(deg):
                out[i] += c * row[i]
    return CyclotomicElement(m, out)
