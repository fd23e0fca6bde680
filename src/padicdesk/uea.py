"""Universal enveloping algebra calculus for products of gl blocks.

Generators are elementary matrices E_(i,j) tagged by a component label;
indices are 0-based.  Words rewrite to a fixed normal order (component,
then upper-triangular before diagonal before lower-triangular, then row,
then column); the rewriting uses [E_ab, E_cd] = delta_bc E_ad - delta_da
E_cb within a component.

Elements act on polynomial function models two ways: through the exact
first-order derivation (left translation) on the model, and through
multi-dual-number substitution at a group point; the two agree and the
second also covers Laurent (determinant-twisted) functions.
"""

from __future__ import annotations

from fractions import Fraction

from .artinian import ArtinianElement
from .glrep import GLBlockModel
from .matrices import ExactMatrix, cycles, perm_sign
from .polynomials import image_kernel
from .rationals import RingOps


def _gen_key(g):
    comp, i, j = g
    band = 0 if i < j else (1 if i == j else 2)
    return (comp, band, i, j)


def bracket(g1, g2):
    """[E_(ab), E_(cd)] as a list of (generator, coeff); empty across components."""
    c1, a, b = g1
    c2, c, d = g2
    if c1 != c2:
        return []
    out = []
    if b == c:
        out.append(((c1, a, d), Fraction(1)))
    if d == a:
        out.append(((c1, c, b), Fraction(-1)))
    return out


class UEAElement(RingOps):
    """Formal sum of words in the generators with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                w = tuple(tuple(g) for g in w)
                clean[w] = clean.get(w, Fraction(0)) + c
                if not clean[w]:
                    del clean[w]
        self.terms = clean

    @classmethod
    def one(cls) -> "UEAElement":
        return cls({(): Fraction(1)})

    @classmethod
    def generator(cls, comp: int, i: int, j: int) -> "UEAElement":
        return cls({((comp, i, j),): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
            if not out[w]:
                del out[w]
        e = UEAElement.__new__(UEAElement)
        e.terms = out
        return e

    def _coerce(self, other) -> "UEAElement":
        return other if isinstance(other, UEAElement) else UEAElement({(): other})

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "UEAElement":
        c = Fraction(c)
        e = UEAElement.__new__(UEAElement)
        e.terms = {} if not c else {w: cc * c for w, cc in self.terms.items()}
        return e

    def __mul__(self, other):
        if not isinstance(other, UEAElement):
            return self.scale(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return UEAElement(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, UEAElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms):
            word = "*".join(f"E[{c},{i},{j}]" for (c, i, j) in w) or "1"
            bits.append(f"({self.terms[w]})*{word}")
        return " + ".join(bits)

    def to_json(self) -> list:
        out = []
        for w in sorted(self.terms):
            c = self.terms[w]
            out.append({"coeff": f"{c.numerator}/{c.denominator}",
                        "word": [[i, j, comp] for (comp, i, j) in w]})
        return out


_NORMAL_CACHE: dict = {}


def _normalize_word(word: tuple) -> dict:
    if word in _NORMAL_CACHE:
        return _NORMAL_CACHE[word]
    for k in range(len(word) - 1):
        if _gen_key(word[k]) > _gen_key(word[k + 1]):
            head, x, y, tail = word[:k], word[k], word[k + 1], word[k + 2:]
            out: dict = {}
            swapped = _normalize_word(head + (y, x) + tail)
            for w, c in swapped.items():
                out[w] = out.get(w, Fraction(0)) + c
            for g, coeff in bracket(x, y):
                for w, c in _normalize_word(head + (g,) + tail).items():
                    out[w] = out.get(w, Fraction(0)) + coeff * c
            out = {w: c for w, c in out.items() if c}
            _NORMAL_CACHE[word] = out
            return out
    _NORMAL_CACHE[word] = {word: Fraction(1)}
    return _NORMAL_CACHE[word]


def pbw_normalize(elem: UEAElement) -> UEAElement:
    """Canonical normal form; linear, idempotent, and a two-sided ring map fixpoint."""
    out: dict = {}
    for w, c in elem.terms.items():
        for w2, c2 in _normalize_word(w).items():
            out[w2] = out.get(w2, Fraction(0)) + c * c2
    return UEAElement(out)


def commute_check(elem_matrix) -> bool:
    """All entries of an operator-valued matrix pairwise commute (exactly)."""
    flat = [g for row in elem_matrix for g in row]
    for x in flat:
        for y in flat:
            if not pbw_normalize(x * y - y * x).is_zero():
                return False
    return True


def det_operator_full(n: int, comp: int = 0) -> UEAElement:
    """det of the n x n array (E_(i, j+n)) in 0-based rows 0..n-1, cols n..2n-1."""
    entries = [[UEAElement.generator(comp, i, j + n) for j in range(n)] for i in range(n)]
    return ExactMatrix(entries).det()


def det_operator_skipping(n: int, k: int) -> UEAElement:
    """The signed (n-1) x (n-1) determinant skipping column k (1-based n+1 <= k <= 2n).

    Rows run over 1..n-1 (0-based, inside the lower GL_(2n-1) block of the
    Levi, component 0); columns over n..2n-1 omitting k-1; the sign is
    (-1)^(k-(n+1)).
    """
    if n == 1:
        raise ValueError("need n >= 2")
    if not (n + 1 <= k <= 2 * n):
        raise ValueError("need n+1 <= k <= 2n")
    cols = [c for c in range(n, 2 * n) if c != k - 1]
    entries = [[UEAElement.generator(0, i, c) for c in cols] for i in range(1, n)]
    sign = -1 if (k - (n + 1)) % 2 else 1
    return ExactMatrix(entries).det().scale(sign)


# ---------------------------------------------------------------------------
# dual-number action at a group point


class EquivariantFunction:
    """A vector of a lower-convention block model, as a function on the group."""

    def __init__(self, model: GLBlockModel, coords):
        if model.convention != "lower":
            raise ValueError("equivariant functions here use the lower convention")
        self.model = model
        self.coords = list(coords)

    def value(self, g: ExactMatrix):
        values = self.model.basis_values(g, [i for i, c in enumerate(self.coords) if c])
        out = None
        for i, v in values.items():
            term = v * self.coords[i]
            out = term if out is None else out + term
        if out is None:
            return Fraction(0)
        return out

    __call__ = value


def uea_act_at(elem: UEAElement, func, point: ExactMatrix):
    """(elem . f)(point) via multi-dual-number substitution.

    For a word (X_1 .. X_m), the action is X_1 (X_2 (... X_m f)) with
    (X f)(g) = d/dt f(exp(-t X) g); substituting exp(-T_r X_r) = I - T_r X_r
    over Q[T_1..T_m]/(T_r^2), the value is the coefficient of T_1...T_m in
    f((I - T_m X_m) ... (I - T_1 X_1) point).
    """
    size = point.nrows
    total = Fraction(0)
    for word, coeff in elem.terms.items():
        m = len(word)
        if m == 0:
            total += coeff * func(point)
            continue
        zero = ArtinianElement(m, {})
        one = ArtinianElement.constant(m, 1)

        def lift(x):
            return ArtinianElement.constant(m, x)

        mat = point.map(lift)
        diagonal = {(i, i): one for i in range(size)}
        for r, (comp, a, b) in enumerate(word):
            entry = diagonal.get((a, b), zero) - ArtinianElement.gen(m, r)
            mat = ExactMatrix.sparse(size, {**diagonal, (a, b): entry}, zero) * mat
        # a rational value means every derivative vanished; lifted, its top
        # coefficient is 0
        total += coeff * (zero + func(mat)).top_coefficient()
    return total


# ---------------------------------------------------------------------------
# H-eigenfunctions and the nonvanishing closed form


def h_eigenfunctions(model: GLBlockModel, a: int, b: int, nu1: int, nu2: int) -> list:
    """Joint eigenvectors for the block subgroup GL_a x GL_b, as coordinate vectors.

    Solves f(h^-1 -) = det(h_1)^(-nu1) det(h_2)^(-nu2) f(-) in the model;
    returns a (possibly empty) basis of the solution space.
    """
    m = model.m
    if a + b != m:
        raise ValueError("block sizes must sum to the matrix size")
    target = tuple([-nu1] * a + [-nu2] * b)
    subspace = [q for q in range(model.dimension) if model.true_weight(q) == target]
    if not subspace:
        return []
    ops = [(r, c) for blk in (range(0, a), range(a, m)) for r in blk for c in blk if r != c]
    sols = image_kernel(([model.basis_word_action([(r, c)], q) for q in subspace]
                         for (r, c) in ops), len(subspace))
    out = []
    for sol in sols:
        coords = [Fraction(0)] * model.dimension
        for pos, q in enumerate(subspace):
            coords[q] = sol[pos]
        out.append(coords)
    return out


def open_orbit_point(a: int, b: int) -> ExactMatrix:
    """Block matrix with the antidiagonal-reversal pattern in the upper-right corner."""
    entries = {(i, i): Fraction(1) for i in range(a + b)}
    # column a + (b - 1 - i) carries the 1 of row i: entries delta_(b+1-i, j)
    entries.update(((i, a + b - 1 - i), Fraction(1)) for i in range(a))
    return ExactMatrix.sparse(a + b, entries)


def mu_sigma(a: int, b: int, sigma) -> UEAElement:
    """The product of E_(i, a+b+1-sigma(i)) over i = 1..a (all 1-based), in component 0."""
    word = tuple((0, i - 1, a + b - sigma[i - 1]) for i in range(1, a + 1))
    return UEAElement({word: Fraction(1)})


def nonvanishing_closed_form(a: int, b: int, sigma, nu1: int, kappa) -> Fraction:
    """The ratio (mu_sigma . f)(u)/f(u) for a block-subgroup eigenfunction f.

    sigma is an injective map {1..a} -> {1..b} given as the image list; if
    its image meets {a+1..b} the ratio is 0, else sigma permutes {1..a} and
    the ratio is (-1)^a sgn(sigma) prod over cycles of (nu1 + kappa_max).
    """
    if len(set(sigma)) != len(sigma) or any(not 1 <= x <= b for x in sigma):
        raise ValueError("sigma must be injective into {1..b}")
    if any(x > a for x in sigma):
        return Fraction(0)
    out = Fraction(perm_sign(sigma) * (-1) ** a)
    for cyc in cycles([s - 1 for s in sigma]):
        out *= nu1 + kappa[max(cyc)]
    return out


# ---------------------------------------------------------------------------
# commutator-Leibniz identity


def commutator_leibniz_words(n: int, i: int, monomial: tuple):
    """Both sides of the straightening identity as UEA elements of component 0
    (1-based i, columns).

    monomial is a multiset of column indices in {n+1..2n} (1-based); the
    coordinate x_k acts as E_(1,k).  Returns (lhs, rhs).
    """
    if not (2 <= i <= n):
        raise ValueError("need 2 <= i <= n")
    Ei1 = UEAElement.generator(0, i - 1, 0)
    xword = UEAElement.one()
    for k in monomial:
        xword = xword * UEAElement.generator(0, 0, k - 1)
    lhs = Ei1 * xword
    rhs = xword * Ei1
    for pos, k in enumerate(monomial):
        partial = UEAElement.one()
        for pos2, k2 in enumerate(monomial):
            if pos2 != pos:
                partial = partial * UEAElement.generator(0, 0, k2 - 1)
        rhs = rhs + partial * UEAElement.generator(0, i - 1, k - 1)
    return lhs, rhs


def commutator_leibniz_check(n: int, i: int, monomial: tuple) -> bool:
    """The identity E_(i,1)(q F) = q(E_(i,1) F) + sum dq/dx_k (E_(i,k) F),
    checked in the enveloping algebra: the normal forms of both sides agree."""
    lhs, rhs = commutator_leibniz_words(n, i, monomial)
    return pbw_normalize(lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# the branching differential operator and its constant


def _apply_levi_word(bm, word, block_idx: tuple):
    """Apply a word of Levi generators to a product basis vector.

    Each component's subword goes through `bm.block_word_action`; returns a
    list of (block_idx', coeff).
    """
    per_comp: dict = {}
    for (comp, i, j) in word:
        per_comp.setdefault(comp, []).append((i, j))
    results = [(block_idx, Fraction(1))]
    for comp, subword in per_comp.items():
        results = [(idx2, coeff * c2) for (idx, coeff) in results
                   for idx2, c2 in bm.block_word_action(comp, subword, idx)]
    return results


def branching_operator_constant(bm_j, bm_0) -> dict:
    """The proportionality constant relating the twisted and untwisted vectors.

    Computes  sum over multisets J of (det-word for J) v^(0) tensor x_J  in
    the coordinates of bm_j and solves  v^(j) = C * (that sum); raises if
    the two are not parallel or the constant vanishes.  Returns the
    constant, the combination's coordinates and the operator itself.
    """
    from math import factorial

    wd = bm_j.wd
    n, d = wd.n, wd.d
    combo: dict = {}
    for J_vars in bm_j.s_basis:
        cols = [v + 2 for v in J_vars]  # 1-based column labels n+1..2n
        # multiset basis vectors normalized as sums over ordered tuples
        mult = factorial(len(cols))
        for c in set(cols):
            mult //= factorial(cols.count(c))
        det_elem = UEAElement.one()
        for k in cols:
            det_elem = det_elem * det_operator_skipping(n, k)
        for t in range(1, d):
            det_elem = det_elem * det_operator_full(n, comp=t) ** wd.j[t]
        for q0, c0 in bm_0.coords.items():
            bidx = bm_0.index[q0][0]
            for word, wcoeff in det_elem.terms.items():
                for (bidx2, c2) in _apply_levi_word(bm_j, word, bidx):
                    key = bm_j._lookup(bidx2, J_vars)
                    combo[key] = combo.get(key, Fraction(0)) + mult * c0 * wcoeff * c2
    combo = {k: v for k, v in combo.items() if v}
    if not combo:
        raise ArithmeticError("determinant-operator image vanished")
    ratio = None
    for q, c in bm_j.coords.items():
        w = combo.get(q, Fraction(0))
        if w == 0:
            raise ArithmeticError("vectors not parallel (zero vs nonzero coordinate)")
        r = c / w
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise ArithmeticError("vectors not parallel")
    for q in combo:
        if q not in bm_j.coords:
            raise ArithmeticError("vectors not parallel (extra coordinate)")
    if ratio == 0:
        raise ArithmeticError("proportionality constant vanished")
    delta = UEAElement.one().scale(ratio)
    full = det_operator_full(n, comp=0)
    delta = delta * full ** wd.j[0]
    for t in range(1, d):
        delta = delta * det_operator_full(n, comp=t) ** wd.j[t]
    return {"constant": ratio, "combination": combo, "operator": delta}
