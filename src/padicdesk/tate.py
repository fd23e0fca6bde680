"""Iterated nilpotent derivations on truncated two-variable Tate algebras.

The derivation under study sends X -> lam*Y, Y -> 0 and restricts to a given
linear base map on the Artinian coefficient ring.  Binomial polynomials of
the derivation are computed two ways: by direct iteration, and by the
closed combinatorial formula over subset patterns; the two must agree
exactly on the truncation, both run on integers over one denominator.  The
epsilon-analytic bounds run the binomial recurrence of a matrix operator
over sparse integer rows {col: int}, its numerators over the powers of the
operator's common denominator: the derivation matrices are almost all zeros
(70 nonzeros of 3,136 at 56x56).

Norms are exact exponents (p^e with e rational, -inf for zero).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd, lcm

from .artinian import ArtinianElement, from_numerators
from .matrices import ExactMatrix
from .rationals import INF, lowest_terms, ratio, valuation


class TateSeries:
    """Element sum s_(a,b) X^a Y^b of S<X, Y> truncated at total degree dmax."""

    __slots__ = ("ngens", "dmax", "terms")

    def __init__(self, ngens: int, dmax: int, terms=None):
        self.ngens = ngens
        self.dmax = dmax
        clean = {}
        for (a, b), s in (terms or {}).items():
            if a + b > dmax:
                raise ValueError(f"degree {a + b} exceeds truncation {dmax}")
            if not isinstance(s, ArtinianElement):
                s = ArtinianElement.constant(ngens, s)
            if not s.is_zero():
                clean[(a, b)] = s
        self.terms = clean

    @classmethod
    def monomial(cls, ngens: int, dmax: int, s, a: int, b: int) -> "TateSeries":
        return cls(ngens, dmax, {(a, b): s})

    def _like(self, terms) -> "TateSeries":
        out = TateSeries.__new__(TateSeries)
        out.ngens, out.dmax = self.ngens, self.dmax
        out.terms = {k: v for k, v in terms.items() if not v.is_zero()}
        return out

    def __add__(self, other: "TateSeries") -> "TateSeries":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return self._like(out)

    def scale(self, c) -> "TateSeries":
        return self._like({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "TateSeries") -> "TateSeries":
        out: dict = {}
        for (a1, b1), s1 in self.terms.items():
            for (a2, b2), s2 in other.terms.items():
                a, b = a1 + a2, b1 + b2
                if a + b > self.dmax:
                    continue  # truncation
                k = (a, b)
                prod = s1 * s2
                out[k] = out[k] + prod if k in out else prod
        return self._like(out)

    def __eq__(self, other):
        return isinstance(other, TateSeries) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def norm_exponent(self, p: int):
        """Sup over all coefficient monomials of -v_p; unit ball test."""
        best = -INF
        for s in self.terms.values():
            v_den = valuation(s.den, p)
            for c in s.nums.values():
                e = v_den - valuation(c, p)
                if best == -INF or e > best:
                    best = e
        return best

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms):
            bits.append(f"({self.terms[(a, b)]})*X^{a}*Y^{b}")
        return " + ".join(bits)


class ShiftDerivation:
    """The operator with X -> lam*Y, Y -> 0, restricting to `base` on coefficients.

    `base` must be linear, so `table(ngens)` reads it once per ring size off
    the 2^ngens bitmask monomials: rows[m] holds the (monomial, numerator)
    pairs of base(T^m) over one denominator den.  `products` keeps, by s and
    by the sorted tuple I, the numerators of prod_(i in I) (D - i) s over
    s.den * den^|I|, unreduced so that subsets of one size share it.  The
    Leibniz rule on products holds exactly when `base` is an honest
    derivation of the truncated ring, i.e. base(T_i) lies in (T_i) (a
    generator sent to a unit only reduces a derivation of the untruncated
    ring, and products can shed the discarded square terms).
    """

    def __init__(self, base, lam):
        self.base = base  # callable ArtinianElement -> ArtinianElement
        self.lam = Fraction(lam)
        self.products = {}  # {s: {I: numerators of prod_(i in I) (D - i) s}}
        self._tables = {}  # {ngens: (rows, den)}

    def table(self, ngens: int) -> tuple:
        """(rows, den): base(T^m) = sum of c T^m2 / den over the (m2, c) in rows[m]."""
        if ngens not in self._tables:
            images = [self.base(from_numerators(ngens, {m: 1}, 1)) for m in range(1 << ngens)]
            den = lcm(*(im.den for im in images))
            self._tables[ngens] = ([tuple((m, c * (den // im.den)) for m, c in im.nums.items())
                                    for im in images], den)
        return self._tables[ngens]

    def step(self, ngens: int, nums: dict, den: int, j: int, div: int) -> tuple:
        """(D - j)/div of {(a, b, monomial): numerator} / den, in lowest terms."""
        rows, tden = self.table(ngens)
        lam_num, lam_den = self.lam.numerator, self.lam.denominator
        shift, slide = -j * tden * lam_den, lam_num * tden
        out: dict = {}
        get = out.get
        for key, c in nums.items():
            a, b, m = key
            cb = c * lam_den
            for m2, t in rows[m]:
                here = (a, b, m2)
                out[here] = get(here, 0) + cb * t
            if j:
                out[key] = get(key, 0) + c * shift
            if a:
                down = (a - 1, b + 1, m)
                out[down] = get(down, 0) + c * a * slide
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
        return lowest_terms(out, den * tden * lam_den * div)

    def shifted(self, f: TateSeries, j: int = 0) -> TateSeries:
        """(D - j) f in one `step`, each output coefficient built once."""
        return _series(f, *self.step(f.ngens, *_numerators(f), j, 1))

    def __call__(self, f: TateSeries) -> TateSeries:
        return self.shifted(f)


def _numerators(f: TateSeries) -> tuple:
    """f as integer numerators {(a, b, monomial): int} over one denominator."""
    den = lcm(*(s.den for s in f.terms.values()))
    return {(a, b, m): c * (den // s.den) for (a, b), s in f.terms.items()
            for m, c in s.nums.items()}, den


def _series(f: TateSeries, nums: dict, den: int) -> TateSeries:
    """The series of f's ring with numerators {(a, b, monomial): int} over den."""
    coeffs: dict = {}
    for (a, b, m), c in nums.items():
        coeffs.setdefault((a, b), {})[m] = c
    return f._like({key: from_numerators(f.ngens, cs, den) for key, cs in coeffs.items()})


# ---------------------------------------------------------------------------
# the closed combinatorial formula


def closed_form_patterns(k: int, a: int) -> int:
    """Number of subset patterns the closed form sums for binom(T, k) on s X^a Y^b."""
    return sum(comb(k, r) for r in range(min(k, a) + 1))


def binomial_of_derivation_closed(k: int, s: ArtinianElement, a: int, b: int,
                                  deriv: ShiftDerivation, dmax: int) -> TateSeries:
    """Closed form for the k-th binomial polynomial of the derivation on s X^a Y^b.

    binom(T, k)(s X^a Y^b) is the sum over r <= min(k, a) of
    comb(a, r) lam^r r!/k! * S_r X^(a-r) Y^(b+r), where S_r sums
    prod_(i in I) (D - i) s over the subsets I of {0..k-1} of size k - r.
    In the subset-pattern form each I enters through the product over its
    runs of consecutive integers of (1/len!) prod (D - i), weighted by
    comb(a, r) / (comb(k, r) * multinomial(k - r; run lengths)); the run
    factorials cancel, which leaves the same weight for every I.  Each
    product is (D - max I) applied to the product for I without its largest
    element, and is computed once per derivation and s (`deriv.products`);
    every call still sums each of its own patterns, S_r as one column-wise
    integer sum over its subsets, which share their denominator.
    """
    if a + b + k > dmax:
        raise ValueError("a + b + k exceeds the truncation degree")
    rows, tden = deriv.table(s.ngens)
    products = deriv.products.get(s) or deriv.products.setdefault(
        s, {(): tuple(s.nums.get(m, 0) for m in range(1 << s.ngens))})

    def product(subset: tuple) -> tuple:
        out = products.get(subset)
        if out is None:
            prev = product(subset[:-1])
            shift = -subset[-1] * tden
            acc = [c * shift for c in prev]
            for m, c in enumerate(prev):
                if c:
                    for m2, t in rows[m]:
                        acc[m2] += c * t
            out = products[subset] = tuple(acc)
        return out

    lam_num, lam_den = deriv.lam.numerator, deriv.lam.denominator
    terms = {}
    for r in range(min(k, a) + 1):
        weight = comb(a, r) * factorial(r) * lam_num ** r
        sums = map(sum, zip(*map(product, combinations(range(k), k - r))))
        terms[(a - r, b + r)] = from_numerators(
            s.ngens, {m: c * weight for m, c in enumerate(sums) if c},
            factorial(k) * lam_den ** r * s.den * tden ** (k - r))
    return TateSeries(s.ngens, dmax, terms)


def binomial_of_derivation_direct(k: int, f: TateSeries, deriv: ShiftDerivation) -> TateSeries:
    """binom(T, k) f by the operator recursion binom(T,k) = binom(T,k-1)(T-k+1)/k.

    Step j is `ShiftDerivation.step` with div = j + 1; the output
    coefficients are built once, after the last step.
    """
    nums, den = _numerators(f)
    for j in range(k):
        nums, den = deriv.step(f.ngens, nums, den, j, j + 1)
    return _series(f, nums, den)


def binomial_operator_recursion_check(k: int, f: TateSeries, deriv: ShiftDerivation) -> bool:
    """f_k(T)(T - k) = (k+1) f_(k+1)(T) on the given element, exactly."""
    lhs = binomial_of_derivation_direct(k, deriv.shifted(f, k), deriv)
    rhs = binomial_of_derivation_direct(k + 1, f, deriv).scale(k + 1)
    return lhs == rhs


# ---------------------------------------------------------------------------
# epsilon-analytic bounds for matrix operators


def _sparse_rows(T: ExactMatrix) -> list:
    return [{j: e for j, e in enumerate(row) if e} for row in T.rows]


def _integer_rows(T: ExactMatrix) -> tuple:
    """(N, D) with T = N / D, D the common denominator of T and N as sparse int rows."""
    t_rows = _sparse_rows(T)
    den = lcm(*(ratio(x)[1] for row in t_rows for x in row.values()))
    return [{j: int(x * den) for j, x in row.items()} for row in t_rows], den


def epsilon_action_work(T: ExactMatrix, K: int) -> int:
    """Row entries the recurrence of `epsilon_action_bound(T, ., K, .)` visits at most.

    Row i of binom(T, k) lies on the columns reachable from i along the
    nonzero entries of T, and visiting column j costs its row of T and the
    diagonal term, so each of the K steps costs at most the sum over i, and
    over j reachable from i, of nnz(row j of T) + 1.  The reach is found in
    at most rows * (nnz(T) + rows) steps, whatever K.
    """
    t_rows = _sparse_rows(T)
    per_step = 0
    for i in range(T.nrows):
        reach, todo = {i}, [i]
        while todo:
            for col in t_rows[todo.pop()]:
                if col not in reach:
                    reach.add(col)
                    todo.append(col)
        per_step += sum(len(t_rows[j]) + 1 for j in reach)
    return K * per_step


def epsilon_action_words(T: ExactMatrix, K: int) -> int:
    """The row entries of `epsilon_action_work(T, K)`, each weighed by its 64-bit words.

    With D the common denominator of T and R the largest absolute row sum of
    D T, an entry of binom(T, k) is an integer of absolute value at most
    prod_(i<k) (R + i D) (the recurrence's F_k) over D^k k!, so
    k (bitlen(R + k D) + bitlen(D) + bitlen(k)) bits hold it.  This sums over the K steps: charge `epsilon_action_work` first.
    """
    n_rows, den = _integer_rows(T)
    rows = max((sum(map(abs, row.values())) for row in n_rows), default=0)
    return epsilon_action_work(T, 1) * sum(
        k * ((rows + k * den).bit_length() + den.bit_length() + k.bit_length()) // 64 + 1
        for k in range(1, K + 1))


def epsilon_action_bound(T: ExactMatrix, eps, K: int, p: int) -> dict:
    """Exponent table e_k of p^(-k eps) ||binom(T, k)|| for k <= K.

    ||.|| is the sup norm on matrix entries (p-adic); reports whether the
    weighted exponents eventually stay strictly below 0 and the first index
    from which they do.  With T = N / D, D the common denominator of T,
    binom(T, k) = F_k / (D^k k!) for the integer matrices
    F_k = F_(k-1) (N - (k-1) D), F_0 = I, so e_k = -k eps - (v_p(F_k)
    - k v_p(D) - v_p(k!)), with v_p(F_k) the valuation of the gcd of its
    entries.  F_k is kept as sparse integer rows {col: int}, so the work
    follows the nonzero entries of T.
    """
    eps = Fraction(eps)
    n_rows, den = _integer_rows(T)
    v_den = valuation(den, p)
    fk = [{i: 1} for i in range(T.nrows)]
    exps = []
    v_fact = 0  # v_p(k!)
    for k in range(K + 1):
        if k:
            shift = (k - 1) * den
            nxt = []
            for row in fk:
                out = {}
                for j, c in row.items():
                    for col, t in n_rows[j].items():
                        out[col] = out.get(col, 0) + c * t
                    out[j] = out.get(j, 0) - shift * c
                nxt.append({col: x for col, x in out.items() if x})
            fk = nxt
            v_fact += valuation(k, p)
        g = gcd(*(c for row in fk for c in row.values()))
        exps.append(-INF if g == 0 else -k * eps - (valuation(g, p) - k * v_den - v_fact))
    tail_start = None
    for k in range(K + 1):
        if all(e == -INF or e < 0 for e in exps[k:]):
            tail_start = k
            break
    return {
        "exponents": exps,
        "eventually_below_target_from": tail_start,
        "passed": tail_start is not None,
    }


def shift_matrix(n: int, scale=1) -> ExactMatrix:
    """Nilpotent single shift e_i -> scale * e_(i+1)."""
    return ExactMatrix.sparse(n, {(j + 1, j): Fraction(scale) for j in range(n - 1)})


def cyclic_shift_matrix(n: int, scale=1) -> ExactMatrix:
    return ExactMatrix.sparse(n, {((j + 1) % n, j): Fraction(scale) for j in range(n)})


# ---------------------------------------------------------------------------
# overconvergence norm chains


class OverconvergenceChain:
    """Chain of annulus norms on Laurent polynomials in one section variable h.

    Model: integral ring Z_p[h] truncated at h-degree `depth`; the stage-s
    ring adjoins p/h^(p^(s+1)), so the stage-s norm of c h^i is
    |c| * p^(-i/p^(s+1)) for i < 0 and |c| for i >= 0.  Stage infinity is
    the locus |h| = 1.  Elements are dicts {exponent: Fraction}.
    """

    def __init__(self, p: int, r: int, depth: int):
        self.p = p
        self.r = r
        self.depth = depth
        self._annihilator = None  # the scan's result, computed once per chain

    def norm_exponent(self, v: dict, s) -> Fraction | float:
        """log_p of the stage-s norm; s = None means stage infinity."""
        best = -INF
        for i, c in v.items():
            if abs(i) > self.depth:
                raise ValueError("element exceeds the truncation depth")
            if c == 0:
                continue
            e = Fraction(-valuation(c, self.p))
            if s is not None and i < 0:
                e += Fraction(-i, self.p ** (s + 1))
            if best == -INF or e > best:
                best = e
        return best

    def scan_size(self) -> int:
        """The norm evaluations of the annihilator scan, known before it runs.

        Class i stops at m = ((i - 1) mod q) + 1, after m + 1 evaluations.
        """
        q = self.p ** (self.r + 1)
        full, rest = divmod(self.depth, q)
        return full * q * (q + 3) // 2 + rest * (rest + 3) // 2

    def annihilator_exponent(self) -> int:
        """Least M with h^M killing ker(B_r+/p -> B_inf+/p) on the truncation.

        Certified by scanning the monomial kernel classes p^ceil(i/q) h^-i;
        requires depth >= q = p^(r+1) (else the scan cannot see the extremal
        class and the result would not be stable under deepening).  The scan
        runs once per chain.
        """
        if self._annihilator is not None:
            return self._annihilator
        q = self.p ** (self.r + 1)
        if self.depth < q:
            raise ValueError(f"truncation too small to certify the annihilator; need depth >= {q}")
        best = 0
        for i in range(1, self.depth + 1):
            e = -(-i // q)  # ceil(i/q)
            # least M with || p^e h^(M-i) ||_r <= p^-1
            m = 0
            while self.norm_exponent({m - i: Fraction(self.p) ** e}, self.r) > -1:
                m += 1
            best = max(best, m)
        self._annihilator = best
        return best

    def stage_for_delta(self, delta) -> int:
        """Smallest s >= r with ||h^-1||_s-exponent <= (1 - delta)/M."""
        delta = Fraction(delta)
        if not (0 < delta < 1):
            raise ValueError("delta must be in (0, 1)")
        M = self.annihilator_exponent()
        s = self.r
        while Fraction(1, self.p ** (s + 1)) > (1 - delta) / M:
            s += 1
        return s

    def verify_implication(self, v: dict, delta, s: int | None = None) -> dict:
        """||v||_r <= p^c and ||v||_inf <= p^(c-m)  =>  ||v||_s <= p^(c - delta m)."""
        delta = Fraction(delta)
        if s is None:
            s = self.stage_for_delta(delta)
        c = self.norm_exponent(v, self.r)
        if c == -INF:
            return {"passed": True}
        # the largest integer m >= 0 with ||v||_inf <= p^(c - m)
        m = max(0, int(c - self.norm_exponent(v, None)))
        return {"passed": self.norm_exponent(v, s) <= c - delta * m}


def derivation_matrix(der: ShiftDerivation, ngens: int, dmax: int) -> tuple:
    """Matrix of the derivation on the monomial lattice of the truncation.

    Basis: (coefficient monomial bitmask, X-degree, Y-degree) triples in a
    fixed order; returns (ExactMatrix, basis list).
    """
    basis = [(sum(1 << i for i in mono), a, total - a) for total in range(dmax + 1)
             for a in range(total + 1) for size in range(ngens + 1)
             for mono in combinations(range(ngens), size)]
    index = {key: i for i, key in enumerate(basis)}
    cols = []
    for m, a, b in basis:
        nums, den = der.step(ngens, {(a, b, m): 1}, 1, 0, 1)
        cols.append({index[(m2, aa, bb)]: Fraction(c, den) for (aa, bb, m2), c in nums.items()})
    rows = [[cols[j].get(i, Fraction(0)) for j in range(len(basis))]
            for i in range(len(basis))]
    return ExactMatrix(rows), basis


_MAX_PERTURBATION_DEPTH = 5  # the deepest congruence that the threshold scan tries


def perturbation_threshold(T1: ExactMatrix, T2: ExactMatrix, eps, K: int, p: int) -> dict:
    """Empirical least congruence depth n with decaying weighted exponents.

    Scans T1 + p^n T2 for n = 0, 1, ..., _MAX_PERTURBATION_DEPTH and reports
    the first n whose weighted exponent table eventually stays below zero
    (None if no n does); no closed formula for the threshold is claimed,
    only the per-instance scan.
    """
    for n in range(_MAX_PERTURBATION_DEPTH + 1):
        if epsilon_action_bound(T1 + T2.scale(Fraction(p) ** n), eps, K, p)["passed"]:
            return {"first_passing_depth": n}
    return {"first_passing_depth": None}
