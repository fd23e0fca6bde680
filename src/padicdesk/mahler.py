"""Mahler (binomial) calculus on Z_p and on the box domains of the group side.

Continuous functions are handled through finite value tables at a stated
depth; all identities are verified on finite quotients with exact
arithmetic.  Norms are reported as exact exponents e (meaning p^e), with
-inf for the zero function.  The work here grows with p, so the suites
charge each check's size to `work.charge` before calling into this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm

from .characters import PCharacter, gauss_sum, unit_powers
from .cyclotomic import CyclotomicElement, zeta_power_sum
from .rationals import INF, valuation


class MahlerSeries:
    """Truncated expansion f(x) = sum a_k binom(x, k) on the integers."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = [Fraction(c) for c in coeffs]

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    def evaluate(self, x) -> Fraction:
        t = Fraction(x)
        if t.denominator != 1:
            raise ValueError("argument outside the domain Z")
        t = t.numerator
        out = Fraction(0)
        binom = 1  # binom(t, k) = binom(t, k-1) (t - k + 1) / k, an exact int division
        for k, a in enumerate(self.coeffs):
            if k:
                binom = binom * (t - k + 1) // k
            if a:
                out += a * binom
        return out

    def __repr__(self):
        return f"MahlerSeries(p={self.p}, K={self.depth})"


def mahler_coefficients(values, p: int, K: int | None = None) -> MahlerSeries:
    """Coefficients a_k = (forward difference)^k f(0) from a value table.

    The table lists f on {0, ..., len-1}; reconstruction through binomials
    reproduces the first K table entries exactly.
    """
    vals = [Fraction(v) for v in values]
    if K is None:
        K = len(vals)
    if K > len(vals):
        raise ValueError(f"K = {K} exceeds table size {len(vals)}")
    coeffs = []
    row = vals
    for _ in range(K):
        coeffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        if not row:
            break
    coeffs += [Fraction(0)] * (K - len(coeffs))
    return MahlerSeries(p, coeffs)


def epsilon_norm(series: MahlerSeries, eps) -> Fraction | float:
    """sup_k p^(k eps) |a_k| as the exact exponent sup(k eps - v_p(a_k))."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    best = -INF
    for k, a in enumerate(series.coeffs):
        if a == 0:
            continue
        e = k * eps - valuation(a, series.p)
        if best == -INF or e > best:
            best = e
    return best


def series_product(f: MahlerSeries, g: MahlerSeries) -> MahlerSeries:
    """Product series, computed through value tables (exact convolution)."""
    if f.p != g.p:
        raise ValueError("mixed series primes")
    K = f.depth + g.depth - 1
    return mahler_coefficients([f.evaluate(x) * g.evaluate(x) for x in range(K)], f.p, K)


# ---------------------------------------------------------------------------
# box domains


def in_unit_box(point, n: int, p: int) -> bool:
    """Membership of (a_2, ..., a_2n) in Z_p^(n-1) + Z_p^* + (p Z_p)^(n-1)."""
    if len(point) != 2 * n - 1:
        raise ValueError("point has wrong length")
    head, middle, tail = point[: n - 1], point[n - 1], point[n:]
    if any(valuation(a, p) < 0 for a in head):
        return False
    if valuation(middle, p) != 0:
        return False
    return all(valuation(a, p) >= 1 for a in tail)


def weighted_indicator(beta: int, chi: PCharacter, point):
    """chi(a_(n+1)) on the unit box, 0 elsewhere on the ambient box.

    ``point`` lists the 2n-1 coordinates (a_2, ..., a_2n); the first n may
    have denominator up to p^beta, the rest must be p-integral, and the
    conductor of chi must divide p^beta.
    """
    p = chi.p
    n = (len(point) + 1) // 2
    if 2 * n - 1 != len(point):
        raise ValueError("point must have odd length 2n-1")
    c = chi.conductor_exp
    if c > beta:
        raise ValueError("conductor must divide p^beta")
    for pos, a in enumerate(point):
        v = valuation(a, p)
        bound = -beta if pos < n else 0
        if v != INF and v < bound:
            raise ValueError("point not representable in the box at this depth")
    if not in_unit_box(point, n, p):
        return CyclotomicElement.from_rational(0)
    return chi(point[n - 1])


# ---------------------------------------------------------------------------
# Fourier expansions over p-power roots of unity


class EqualityReport:
    """Outcome of a pointwise identity check on a finite quotient."""

    def __init__(self, passed: bool, npoints: int, counterexample=None):
        self.passed = passed
        self.npoints = npoints
        self.counterexample = counterexample


def fourier_expand_fchi(beta: int, beta_prime: int, chi: PCharacter) -> EqualityReport:
    """Check the root-of-unity expansion of the p^-beta'-unit slice function.

    The slice function a -> chi(p^beta' a) on p^-beta' Z_p^* (0 elsewhere)
    equals (p^(beta-beta') G(chi^-1))^-1 * sum over c in (Z/p^beta)^* of
    chi(c)^-1 zeta_{p^beta}^(c p^beta a), pointwise on p^-beta Z / p^beta Z.
    """
    p = chi.p
    if not (1 <= beta_prime <= beta):
        raise ValueError("need 1 <= beta' <= beta")
    if chi.conductor_exp != beta_prime:
        raise ValueError(f"conductor p^{chi.conductor_exp} != p^{beta_prime}")
    chi_inv = chi.inverse()
    gauss_inv = gauss_sum(chi_inv)
    root_order = p ** beta
    field = lcm(root_order, chi.order())
    step = field // root_order
    scale = Fraction(1, p ** (beta - beta_prime)) / gauss_inv.embed(field)
    # chi(c)^-1 = zeta_field^base, one power per unit c of Z/p^beta
    units = unit_powers(p, beta_prime, chi_inv.log, beta, field)
    npoints = 0
    for m in range(p ** (2 * beta)):
        a = Fraction(m, p ** beta)
        lhs = _slice_value(chi, beta_prime, a).embed(field)
        weights = {}
        for c, base in units:
            key = (base + (c * m) % root_order * step) % field
            weights[key] = weights.get(key, 0) + 1
        rhs = zeta_power_sum(field, weights) * scale
        npoints += 1
        if lhs != rhs:
            return EqualityReport(False, npoints, (a,))
    return EqualityReport(True, npoints)


def _slice_value(chi: PCharacter, beta_prime: int, a: Fraction) -> CyclotomicElement:
    p = chi.p
    if valuation(a, p) != -beta_prime:
        return CyclotomicElement.from_rational(0)
    return chi(a * p ** beta_prime)


def fourier_expand_unit_indicator(p: int, beta: int, beta_prime: int, n: int) -> EqualityReport:
    """Check the expansion of the indicator of (p^-beta' Z_p)^(n-1).

    Pointwise on (p^-beta Z / Z)^(n-1):
    indicator = p^-(n-1)(beta-beta') * sum over d in (p^beta' Z / p^beta)^(n-1)
    of prod_i zeta_{p^beta}^(d_i p^beta a_i).
    """
    if not (0 <= beta_prime <= beta):
        raise ValueError("need 0 <= beta' <= beta")
    root_order = p ** beta
    ncoord = n - 1
    scale = Fraction(1, p ** ((n - 1) * (beta - beta_prime)))
    npoints = 0
    for ms in iproduct(range(p ** beta), repeat=ncoord):
        avals = [Fraction(m, p ** beta) for m in ms]
        lhs = Fraction(1) if all(valuation(a, p) >= -beta_prime or a == 0 for a in avals) else Fraction(0)
        weights = _d_histogram(ms, p, beta, beta_prime)
        rhs = zeta_power_sum(root_order, weights) * scale
        npoints += 1
        if rhs != CyclotomicElement.from_rational(lhs, root_order):
            return EqualityReport(False, npoints, avals)
    return EqualityReport(True, npoints)


def _d_histogram(ms, p: int, beta: int, beta_prime: int) -> dict:
    """{k: number of d in (p^beta' Z / p^beta)^(n-1) with sum d_i m_i = k mod p^beta}.

    With d_i = p^beta' e_i for e_i mod r = p^(beta-beta'), the sum is p^beta'
    times sum e_i m_i mod r.  The histogram of that sum is built one
    coordinate at a time: e -> e m mod r hits each multiple of g = gcd(m, r)
    exactly g times, so a coordinate sets every entry to g times the sum of
    its residue class mod g, r entries per coordinate.
    """
    r = p ** (beta - beta_prime)
    hist = [1] + [0] * (r - 1)  # no coordinates yet: only the empty sum 0
    for m in ms:
        g = gcd(m, r)
        sums = [g * sum(hist[c::g]) for c in range(g)]
        hist = [sums[j % g] for j in range(r)]
    return {j * p ** beta_prime: w for j, w in enumerate(hist) if w}
