"""Exact cyclotomic field arithmetic.

An element of Q(zeta_m) is a residue mod the m-th cyclotomic polynomial,
stored in the form `rationals.lowest_terms` gives every exact ring: the
field order m, a tuple `nums` of deg Phi_m int numerators on the power
basis and one positive denominator `den`, with gcd(den, *nums) = 1.  The
form is canonical, so `==` compares it directly once both sides are in one
field, and `coeffs` is a read-only Fraction view.  The root zeta_m is the
class of X; compatibility between orders follows the fixed convention
zeta_k = zeta_m^(m/k) whenever k | m.  `hash` is the hash of the
normalized trace Tr/[K:Q]: it is the same in every field that holds the
element, and it is the element itself when that is rational.

Phi_m comes from the Moebius product of the x^d - 1 in integer arithmetic
(Washington, GTM 83, on the power basis).  The table of x^k mod Phi_m
holds sparse integer rows {i: c}, a few nonzeros each, so reductions,
embeddings, products and the Gauss-sum power sums (Cohen, GTM 138) add up
only those nonzeros, in ints.  A product with a rational scalar (an int, a
Fraction or an element of Q(zeta_1)) scales the numerators and skips the
deg x deg product.

`inverse` multiplies x by its Galois conjugates until it reaches the norm
N(x), a nonzero integer, and divides by it: Itoh and Tsujii's inversion by
the norm (Inform. and Comput. 78, 1988), carried from GF(2^n) to the Galois
group (Z/m)^* of Q(zeta_m), where sigma_a sends zeta to zeta^a (Washington,
ch. 2; Cohen, ch. 4 for norms).  It walks (Z/m)^* one cyclic step at a
time, so each step's conjugate product comes from a doubling chain of
schoolbook products, and it is charged deg^2 first.  The operators derived
from +, -x, * and `inverse` come from `rationals.RingOps`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import work
from .rationals import RingOps, integer, lowest_terms, ratio


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
    nonzeros of each table row."""
    table = _reduction_table(m)
    out = [0] * _degree(m)
    for k, c in terms:
        if c:
            for i, r in table[k % m].items():
                out[i] += c * r
    return out


def _degree(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _traces(m: int) -> tuple:
    """Tr(zeta_m^k) for k < deg Phi_m: the Ramanujan sums, d mu(m/d) summed over d | (m, k)."""
    return tuple(sum(d * _mobius(m // d) for d in divisors(gcd(m, k)))
                 for k in range(_degree(m)))


def _product(m: int, a, b) -> list:
    """The schoolbook product of two deg Phi_m numerator lists, reduced mod Phi_m."""
    prod = [0] * (2 * len(a) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                prod[i + j] += x * y
    return _reduce(m, enumerate(prod))


def _nonzeros(nums) -> int:
    return sum(1 for c in nums if c)


def _conjugate(m: int, nums, a: int) -> list:
    """sigma_a of sum nums[k] zeta_m^k, which is sum nums[k] zeta_m^(a k)."""
    return _reduce(m, ((a * k, c) for k, c in enumerate(nums)))


def _order_modulo(u: int, m: int, subgroup: set) -> int:
    """The least d >= 1 with u^d mod m in subgroup."""
    d, v = 1, u
    while v not in subgroup:
        v, d = v * u % m, d + 1
    return d


@lru_cache(maxsize=None)
def _galois_steps(m: int) -> tuple:
    """((a, d), ...): (Z/m)^* reached from {1} one cyclic step at a time.

    Each step takes the unit a of least order d modulo the subgroup H built
    so far, the smaller a on a tie, and H becomes H <a>.
    """
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    reached, steps = {1 % m}, []
    while len(reached) < _degree(m):
        a = min((u for u in units if u not in reached),
                key=lambda u: _order_modulo(u, m, reached))
        d = _order_modulo(a, m, reached)
        reached = {h * pow(a, j, m) % m for h in reached for j in range(d)}
        steps.append((a, d))
    return tuple(steps)


def _conjugates_product(m: int, y, a: int, d: int) -> list:
    """sigma_a(y) sigma_a^2(y) ... sigma_a^(d-1)(y), for d >= 2.

    P_k = y sigma_a(y) ... sigma_a^(k-1)(y) follows the bits of d - 1 by
    P_2k = P_k sigma_a^k(P_k) and P_(k+1) = y sigma_a(P_k); the product
    wanted is sigma_a(P_(d-1)).
    """
    chain, k = y, 1
    for bit in bin(d - 1)[3:]:
        chain = _product(m, chain, _conjugate(m, chain, pow(a, k, m)))
        k *= 2
        if bit == "1":
            chain = _product(m, y, _conjugate(m, chain, a))
            k += 1
    return _conjugate(m, chain, a)


def _element(m: int, nums, den: int) -> "CyclotomicElement":
    """sum of nums[k] / den * zeta_m^k, for deg Phi_m ints nums, in lowest terms."""
    out = CyclotomicElement.__new__(CyclotomicElement)
    out.m = m
    out.nums, out.den = lowest_terms(tuple(nums), den)
    return out


class CyclotomicElement(RingOps):
    """Residue mod Phi_m with rational coefficients; zeta_m is the class of X."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, coeffs):
        """sum of coeffs[k] zeta_m^k; a list longer than deg Phi_m is reduced."""
        if all(type(c) is int for c in coeffs):
            nums, den = coeffs, 1
        else:
            pairs = [ratio(c) for c in coeffs]
            den = lcm(*(d for _, d in pairs))
            nums = [n * (den // d) for n, d in pairs]
        deg = _degree(m)
        if len(nums) > deg:
            nums = _reduce(m, enumerate(nums))
        self.m = m
        self.nums, self.den = lowest_terms(tuple(nums) + (0,) * (deg - len(nums)), den)

    @property
    def coeffs(self) -> tuple:
        """Read-only tuple of the power-basis coefficients, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x, m: int = 1) -> "CyclotomicElement":
        return cls(m, [x])

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> "CyclotomicElement":
        """zeta_m^power as an element of Q(zeta_m)."""
        return cls(m, _reduce(m, [(power, 1)]))

    # -- ring structure -----------------------------------------------

    def _coerce(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            return other
        return CyclotomicElement.from_rational(other, self.m)

    def _pair(self, other):
        other = self._coerce(other)
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
        image = CyclotomicElement(m, _reduce(m, ((k * step, c) for k, c in enumerate(self.nums))))
        return image._scale(1, self.den)

    def __add__(self, other):
        a, b = self._pair(other)
        g = gcd(a.den, b.den)
        f1, f2 = b.den // g, a.den // g
        return _element(a.m, [x * f1 + y * f2 for x, y in zip(a.nums, b.nums)], a.den * f1)

    def __neg__(self):
        return _element(self.m, [-c for c in self.nums], self.den)

    def __mul__(self, other):
        # a rational factor (an int, a Fraction or an element of Q(zeta_1))
        # scales the other side's numerators; the result lives where the
        # general product would put it
        if not isinstance(other, CyclotomicElement):
            return self._scale(*ratio(other))
        if other.m == 1:
            return self._scale(other.nums[0], other.den)
        if self.m == 1:
            return other._scale(self.nums[0], self.den)
        a, b = self._pair(other)
        return _element(a.m, _product(a.m, a.nums, b.nums), a.den * b.den)

    def _scale(self, num: int, den: int) -> "CyclotomicElement":
        """self * num / den, for ints num and den != 0."""
        if num == den == 1:
            return self
        return _element(self.m, [c * num for c in self.nums], self.den * den)

    def inverse(self) -> "CyclotomicElement":
        """Inverse by the Galois norm (monomials short-circuit).

        With x = nums / den, keep y = nums * c for an integer element c,
        from c = 1.  Each step (a, d) of `_galois_steps` multiplies y and c
        by Q = sigma_a(y) ... sigma_a^(d-1)(y) and divides both by the
        content of c; y stays fixed by the subgroup reached, so once that
        is all of (Z/m)^*, y is N(nums) over those contents, an integer, and
        x^-1 = den * c / y.

        No Gauss-sum identity is used, so the interp checks that divide by
        Gauss sums do not check themselves.
        """
        mono = self.as_monomial()
        if mono is not None:
            k, c = mono
            return CyclotomicElement.zeta(self.m, -k)._scale(c.denominator, c.numerator)
        if self.is_zero():
            raise ZeroDivisionError("0 is not invertible")
        deg = len(self.nums)
        work.charge("cyclotomic.inverse", deg * deg, "echelon entries")
        m, y, c = self.m, self.nums, [1] + [0] * (deg - 1)
        for a, d in _galois_steps(m):
            q = _conjugates_product(m, y, a, d)
            c = _product(m, c, q)
            g = gcd(*c)  # it divides y * Q = nums * c too
            c = [v // g for v in c]
            # y * Q / g = nums * c: form whichever product has fewer term pairs
            if _nonzeros(self.nums) * _nonzeros(c) < _nonzeros(y) * _nonzeros(q):
                y = _product(m, self.nums, c)
            else:
                y = [v // g for v in _product(m, y, q)]
        # y is rational, so only its constant term is nonzero; a negative
        # y's sign moves to the numerators in lowest_terms
        return _element(m, [v * self.den for v in c], y[0])

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, CyclotomicElement)):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        trace = sum(c * t for c, t in zip(self.nums, _traces(self.m)))
        return hash(Fraction(trace, self.den * len(self.nums)))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def as_monomial(self):
        """(k, c) if the element is c * zeta^k in reduced form, else None.

        Only detects single-term reduced representations, which covers the
        character tables used for Gauss sums.
        """
        support = [k for k, c in enumerate(self.nums) if c]
        if len(support) != 1:
            return None
        return support[0], Fraction(self.nums[support[0]], self.den)

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
        m = integer(data["m"], '"m"')
        work.charge("cyclotomic.from_json", m, "reduction-table rows")
        return cls(m, data["coeffs"])


def zeta_power_sum(m: int, weights: dict) -> CyclotomicElement:
    """Sum of c * zeta_m^k over (k -> c) in one reduction pass.

    Fast path for Gauss sums and Fourier expansions, where every summand is
    a root of unity times a rational; the weights are summed as int
    numerators over their common denominator.
    """
    pairs = {k: ratio(c) for k, c in weights.items()}
    den = lcm(*(d for _, d in pairs.values()))
    image = CyclotomicElement(m, _reduce(m, ((k, n * (den // d)) for k, (n, d) in pairs.items())))
    return image._scale(1, den)
