"""Exact cyclotomic field arithmetic.

Elements of Q(zeta_m) are stored as rational coefficient vectors of length
deg Phi_m, i.e. residues mod the m-th cyclotomic polynomial.  The root
zeta_m is the class of X; compatibility between orders follows the fixed
convention zeta_k = zeta_m^(m/k) whenever k | m.

Phi_m comes from the Moebius product of the x^d - 1 in integer arithmetic
(Washington, GTM 83, on the power basis).  The table of x^k mod Phi_m
holds sparse integer rows {i: c}, a few nonzeros each, so reductions,
embeddings and the Gauss-sum power sums (Cohen, GTM 138) add up only
those nonzeros and keep integral sums as ints; every stored coefficient
is still a Fraction.  A product with a rational scalar (an int, a Fraction
or an element of Q(zeta_1)) scales the coefficients and skips the
deg x deg product.
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


def _mobius(n: int) -> int:
    """Moebius function mu(n) by trial division."""
    out, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Coefficients of Phi_m, lowest degree first, as integers.

    Phi_m = prod over d | m of (x^d - 1)^mu(m/d): multiply by the factors
    with mu = 1, then divide exactly by those with mu = -1.
    """
    if m < 1:
        raise ValueError("order must be >= 1")
    mu = [(d, _mobius(m // d)) for d in divisors(m)]
    poly = [1]
    for d, e in mu:
        if e == 1:
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + d)]
    for d, e in mu:
        if e == -1:
            quo = []  # poly = quo * (x^d - 1), so quo[i] = quo[i - d] - poly[i]
            for i in range(len(poly) - d):
                quo.append((quo[i - d] if i >= d else 0) - poly[i])
            poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(m: int):
    """x^k mod Phi_m for k = 0..m-1, as sparse integer rows {i: c}."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    tail = {i: -c for i, c in enumerate(phi[:-1]) if c}  # x^deg = -(phi[:-1])
    rows = [{0: 1}]
    for _ in range(1, m):
        # multiply by x: shift, then reduce the overflow with x^deg
        new = {i + 1: c for i, c in rows[-1].items()}
        top = new.pop(deg, 0)
        if top:
            for i, c in tail.items():
                new[i] = new.get(i, 0) + top * c
                if not new[i]:
                    del new[i]
        rows.append(new)
    return rows


def _reduce(m: int, terms) -> list:
    """Coefficients of sum c * zeta_m^k over the (k, c) pairs, summed over the
    nonzeros of each table row; ints stay ints."""
    table = _reduction_table(m)
    out = [0] * (len(cyclotomic_polynomial(m)) - 1)
    for k, c in terms:
        if c:
            for i, r in table[k % m].items():
                out[i] += c * r
    return out


class CyclotomicElement:
    """Residue mod Phi_m with rational coefficients; zeta_m is the class of X."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        deg = len(cyclotomic_polynomial(m)) - 1
        if len(coeffs) > deg:
            coeffs = _reduce(m, enumerate(coeffs))
        cs = [Fraction(c) for c in coeffs]
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
        return cls(m, _reduce(m, [(power, 1)]))

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
        return CyclotomicElement(m, _reduce(m, ((k * step, c) for k, c in enumerate(self.coeffs))))

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
        # a rational factor (an int, a Fraction or an element of Q(zeta_1))
        # scales the other side's coefficients; the result lives where the
        # general product would put it
        if not isinstance(other, CyclotomicElement):
            return self._scale(Fraction(other))
        if other.m == 1:
            return self._scale(other.coeffs[0])
        if self.m == 1:
            return other._scale(self.coeffs[0])
        a, b = self._pair(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CyclotomicElement(a.m, prod)

    __rmul__ = __mul__

    def _scale(self, c: Fraction) -> "CyclotomicElement":
        if c == 1:
            return self
        return CyclotomicElement(self.m, [c * x if x else x for x in self.coeffs])

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
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
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
        return CyclotomicElement(self.m, inv)

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


def zeta_power_sum(m: int, weights: dict) -> CyclotomicElement:
    """Sum of c * zeta_m^k over (k -> c) in one reduction pass.

    Fast path for Gauss sums and Fourier expansions, where every summand is
    a root of unity times a rational; integral weights are summed as ints.
    """
    terms = []
    for k, c in weights.items():
        c = Fraction(c)
        terms.append((k, c.numerator if c.denominator == 1 else c))
    return CyclotomicElement(m, _reduce(m, terms))
