"""Interpolation constants: Gauss sums, modulus character, epsilon factors.

Values live in the group generated by a cyclotomic coefficient, a formal
half-integral power of p, and formal Satake symbols.  The half power of p
is carried as an integer exponent in units of 1/2 and never resolved into
the coefficient field; Satake symbols theta_(i, tau) obey the self-dual
relation theta_(2n+1-i) = theta_i^-1 and stay formal unless specialized.
alpha_p^e multiplies d n (2n - 1) Satake factors and a Gauss sum runs over
the p^c residues; `interp factor` charges both counts to `work.charge`
before any of this runs.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import PCharacter, gauss_sum
from .cyclotomic import CyclotomicElement
from .rationals import RingOps


def _merge(s: tuple, t: tuple) -> tuple:
    """The product of two sorted theta monomials: like keys add their exponents,
    and a zero exponent is dropped."""
    if not s or not t:
        return s or t
    out, i, j = [], 0, 0
    while i < len(s) and j < len(t):
        (ks, es), (kt, et) = s[i], t[j]
        if ks < kt:
            out.append(s[i])
            i += 1
        elif kt < ks:
            out.append(t[j])
            j += 1
        else:
            if es + et:
                out.append((ks, es + et))
            i, j = i + 1, j + 1
    return tuple(out) + s[i:] + t[j:]


def _value(p: int, coeff: CyclotomicElement, half_exp: int, theta: tuple) -> "HalfPowerValue":
    """HalfPowerValue from a sorted theta tuple with no zero exponent, in the
    form __init__ gives it."""
    out = HalfPowerValue.__new__(HalfPowerValue)
    out.p, out.coeff = p, coeff
    out.half_exp, out.theta = (0, ()) if coeff.is_zero() else (half_exp, theta)
    return out


class HalfPowerValue(RingOps):
    """coeff * p^(half_exp / 2) * (monomial in formal Satake symbols); sums need like terms."""

    __slots__ = ("p", "coeff", "half_exp", "theta")

    def __init__(self, p: int, coeff=1, half_exp: int = 0, theta=None):
        self.p = p
        if not isinstance(coeff, CyclotomicElement):
            coeff = CyclotomicElement.from_rational(coeff)
        self.coeff = coeff
        self.half_exp = int(half_exp)
        th = {}
        for key, e in dict(theta or {}).items():
            if e:
                th[tuple(key)] = th.get(tuple(key), 0) + e
        self.theta = tuple(sorted((k, e) for k, e in th.items() if e))
        if self.coeff.is_zero():
            self.half_exp = 0
            self.theta = ()

    @classmethod
    def one(cls, p: int) -> "HalfPowerValue":
        return cls(p)

    @classmethod
    def p_power(cls, p: int, half_exp: int) -> "HalfPowerValue":
        return cls(p, 1, half_exp)

    @classmethod
    def symbol(cls, p: int, tau: int, i: int) -> "HalfPowerValue":
        return cls(p, 1, 0, {(tau, i): 1})

    def _coerce(self, other) -> "HalfPowerValue":
        if not isinstance(other, HalfPowerValue):
            return HalfPowerValue(self.p, other)
        if other.p != self.p:
            raise ValueError("mixed primes")
        return other

    def __mul__(self, other):
        other = self._coerce(other)
        return _value(self.p, self.coeff * other.coeff, self.half_exp + other.half_exp,
                      _merge(self.theta, other.theta))

    def inverse(self) -> "HalfPowerValue":
        return _value(self.p, self.coeff.inverse(), -self.half_exp,
                      tuple((k, -e) for k, e in self.theta))

    def __add__(self, other):
        other = self._coerce(other)
        if self.coeff.is_zero():
            return other
        if other.coeff.is_zero():
            return self
        if self.theta != other.theta or self.half_exp != other.half_exp:
            raise ValueError("sum of unlike interpolation values")
        return _value(self.p, self.coeff + other.coeff, self.half_exp, self.theta)

    def __neg__(self):
        return _value(self.p, -self.coeff, self.half_exp, self.theta)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return NotImplemented
        if self.theta != other.theta:
            return False
        if self.coeff.is_zero() and other.coeff.is_zero():
            return True
        shift = self.half_exp - other.half_exp
        if shift % 2 != 0:
            return False  # canonical forms keep p^(1/2) unresolved
        if shift >= 0:
            return self.coeff * Fraction(self.p) ** (shift // 2) == other.coeff
        return self.coeff == other.coeff * Fraction(self.p) ** (-shift // 2)

    def is_zero(self) -> bool:
        return self.coeff.is_zero()

    def __repr__(self):
        bits = [f"({self.coeff})"]
        if self.half_exp:
            bits.append(f"p^({self.half_exp}/2)")
        for (tau, i), e in self.theta:
            bits.append(f"theta[{tau},{i}]^{e}")
        return "*".join(bits)

    def to_json(self) -> dict:
        return {"p": self.p, "coeff": self.coeff.to_json(), "half_exp": self.half_exp,
                "theta": [[list(k), e] for k, e in self.theta]}


# ---------------------------------------------------------------------------
# Satake bookkeeping


class SatakeData:
    """Unramified-parameter bookkeeping with the self-duality convention.

    theta values are formal symbols by default; specialize by passing
    values[(tau, i)] (HalfPowerValue) for 1 <= i <= n.  For i > n the value
    of theta_i is theta_(2n+1-i)^-1.
    """

    def __init__(self, n: int, d: int, p: int, values: dict | None = None):
        self.n = n
        self.d = d
        self.p = p
        self.values = dict(values or {})

    def theta_at_p(self, tau: int, i: int) -> HalfPowerValue:
        if not (1 <= i <= 2 * self.n):
            raise ValueError("index out of range")
        if i > self.n:
            return self.theta_at_p(tau, 2 * self.n + 1 - i).inverse()
        if (tau, i) in self.values:
            return self.values[(tau, i)]
        return HalfPowerValue.symbol(self.p, tau, i)

    def alpha(self, tau: int, i: int) -> HalfPowerValue:
        """The Iwahori-level eigenvalue prod_(j<=i) p^(n-j+1/2) theta_j(p)."""
        out = HalfPowerValue.one(self.p)
        for j in range(1, i + 1):
            out = out * HalfPowerValue.p_power(self.p, 2 * (self.n - j) + 1)
            out = out * self.theta_at_p(tau, j)
        return out

    def alpha_p_e(self, e) -> HalfPowerValue:
        """prod over components and i <= 2n-1 of alpha_(i, tau)^(e_tau).

        alpha_(i, tau) is kept as a running product: alpha_(i-1, tau) times
        p^(n-i+1/2) theta_i(p).
        """
        out = HalfPowerValue.one(self.p)
        for tau in range(self.d):
            alpha = HalfPowerValue.one(self.p)
            for i in range(1, 2 * self.n):
                alpha = alpha * HalfPowerValue.p_power(self.p, 2 * (self.n - i) + 1)
                alpha = alpha * self.theta_at_p(tau, i)
                out = out * alpha ** e[tau]
        return out


def modulus_character_exponent(diag_exponents, n: int) -> int:
    """log_p of the Borel modulus character on diag(p^(k_i)) per component.

    delta_B(t) = prod |t_i|^(2n+1-2i); each |p^k| contributes -k(2n+1-2i).
    """
    total = 0
    for row in diag_exponents:
        if len(row) != 2 * n:
            raise ValueError("each component needs 2n diagonal entries")
        for i, k in enumerate(row, start=1):
            total += -k * (2 * n + 1 - 2 * i)
    return total


def modulus_deltaB(diag_entries, n: int, p: int) -> HalfPowerValue:
    """delta_B on a diagonal p-power matrix given by entry values per component."""
    from .rationals import valuation, unit_part

    exps = []
    for row in diag_entries:
        out = []
        for x in row:
            v = valuation(x, p)
            if v == float("inf") or unit_part(x, p) != 1:
                raise ValueError(f"{x} is not a power of p")
            out.append(v)
        exps.append(out)
    return HalfPowerValue.p_power(p, 2 * modulus_character_exponent(exps, n))


def t_p_e_exponents(n: int, e) -> list:
    """Diagonal exponents of the stepped Hecke element per component."""
    return [[et * (2 * n - i) for i in range(1, 2 * n + 1)] for et in e]


# ---------------------------------------------------------------------------
# epsilon factors


class SmoothCharacter:
    """A character of Q_p^* split as (finite unit part, value at p)."""

    def __init__(self, finite: PCharacter, at_p: HalfPowerValue):
        self.finite = finite
        self.at_p = at_p
        self.p = finite.p

    def inverse(self) -> "SmoothCharacter":
        return SmoothCharacter(self.finite.inverse(), self.at_p.inverse())

    def __mul__(self, other: "SmoothCharacter") -> "SmoothCharacter":
        return SmoothCharacter(self.finite * other.finite, self.at_p * other.at_p)


def epsilon_factor(eta: SmoothCharacter) -> HalfPowerValue:
    """The local constant at the central point, G(eta^-1) eta(-p^c) p^(-c/2).

    Requires conductor p^c with c >= 1 (ramified); eta(-p^c) splits as
    eta(p)^c times the finite part at -1.
    """
    c = eta.finite.conductor_exp
    if c == 0:
        raise ValueError("epsilon factor implemented for ramified characters only")
    p = eta.p
    g = gauss_sum(eta.finite.inverse())
    coeff = g * eta.finite.parity()
    out = HalfPowerValue(p, coeff, -c) * eta.at_p ** c
    return out


def epsilon_inversion_check(eta: SmoothCharacter) -> bool:
    """epsilon(eta) * epsilon(eta^-1) equals the finite part at -1."""
    prod = epsilon_factor(eta) * epsilon_factor(eta.inverse())
    return prod == HalfPowerValue(eta.p, eta.finite.parity())


# ---------------------------------------------------------------------------
# the interpolation factor and its epsilon-factor forms


def interpolation_factor(data: SatakeData, chi: list, e, n: int) -> HalfPowerValue:
    """The p-adic multiplier attached to a twist, in terms of the eigenvalues.

    chi lists one SmoothCharacter per component (the distinguished one
    first); e lists the per-component depths, with e_tau = max(1, c_tau);
    the distinguished conductor exponent must be >= 1.
    """
    return _factor_head(data, chi, e, n) * _factor_tail(data, chi, e, n)


def _factor_head(data: SatakeData, chi: list, e, n: int) -> HalfPowerValue:
    """The interpolation factor without its tail: the part no epsilon-factor form shares."""
    chi0 = chi[0]
    c0 = chi0.finite.conductor_exp
    if c0 == 0:
        raise ValueError("interpolation requires the distinguished component ramified")
    for tau, (chi_tau, e_tau) in enumerate(zip(chi, e)):
        depth = max(1, chi_tau.finite.conductor_exp)
        if e_tau != depth:
            raise ValueError(f'"e" entry {tau} is {e_tau}, the identity needs'
                             f' max(1, c_{tau}) = {depth}')
    p = data.p
    e0 = e[0]
    out = HalfPowerValue.p_power(p, -2 * e0)
    out = out * (data.alpha(0, n) / data.alpha(0, n - 1)) ** e0
    out = out * HalfPowerValue(p, chi0.finite.parity())
    out = out * chi0.at_p ** (-e0)
    return out * HalfPowerValue(p, gauss_sum(chi0.finite))


def _factor_tail(data: SatakeData, chi: list, e, n: int) -> HalfPowerValue:
    """(prod over tau of chi_tau(-1)^n) / (alpha_p^e delta_B(t_p^e)), common to every form."""
    p = data.p
    out = HalfPowerValue.one(p)
    for tau in range(data.d):
        out = out * HalfPowerValue(p, chi[tau].finite.parity() ** n)
    delta = HalfPowerValue.p_power(p, 2 * modulus_character_exponent(t_p_e_exponents(n, e), n))
    return out / (data.alpha_p_e(e) * delta)


def cpr_identity_check(data: SatakeData, chi: list, e, n: int) -> dict:
    """Both epsilon-factor expressions for the interpolation factor, exactly.

    Form 1: eps(theta_n chi0^-1) * (prod chi_tau(-1)^n) / (alpha_p^e delta_B);
    form 2: chi0(-1) * eps(theta_(n+1) chi0)^-1 * (same tail).  Returns the
    direct value and whether both forms equal it.
    """
    p = data.p
    head = _factor_head(data, chi, e, n)  # checks chi and e before the tail reads them
    tail = _factor_tail(data, chi, e, n)
    direct = head * tail
    chi0 = chi[0]

    theta_n = SmoothCharacter(PCharacter.trivial(p), data.theta_at_p(0, n))
    eta1 = theta_n * chi0.inverse()
    form1 = epsilon_factor(eta1) * tail
    theta_n1 = SmoothCharacter(PCharacter.trivial(p), data.theta_at_p(0, n + 1))
    eta2 = theta_n1 * chi0
    form2 = HalfPowerValue(p, chi0.finite.parity()) * epsilon_factor(eta2).inverse() * tail
    return {"direct": direct, "passed": direct == form1 == form2}


def depletion_eigen_factor(alpha0: HalfPowerValue, alpha1: HalfPowerValue,
                           beta_prime: int, kappa_middle: int,
                           chi: SmoothCharacter) -> HalfPowerValue:
    """The multiplier relating the depleted and plain evaluation pairings.

    (alpha_0/alpha_1)^b p^(b kappa) (1 - 1/p) chi(p)^-b chi_fin(-1) G(chi_fin),
    with b the conductor exponent of the finite part of the twist.
    """
    if beta_prime < 1:
        raise ValueError("the twist must be ramified")
    if alpha1.is_zero():
        raise ValueError("alpha_1 must be invertible")
    p = chi.p
    out = (alpha0 / alpha1) ** beta_prime
    out = out * HalfPowerValue.p_power(p, 2 * beta_prime * kappa_middle)
    out = out * HalfPowerValue(p, Fraction(p - 1, p))
    out = out * chi.at_p ** (-beta_prime)
    out = out * HalfPowerValue(p, chi.finite.parity() * gauss_sum(chi.finite))
    return out
