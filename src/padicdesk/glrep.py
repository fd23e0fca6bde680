"""Finite-dimensional GL representation models and branching eigenvectors.

Irreducibles of GL_m are realized as spans of polynomial functions on the
group.  Two transformation conventions are supported:

* "upper": f(g b) = (reversed weight)(b^-1) f(g) for upper-triangular b.
  The seed is a product of leading principal minors (the lowest-weight
  line); the span is closed under the raising operators.
* "lower": f(g b) = weight(b^-1) f(g) for lower-triangular b.  The seed is
  a product of trailing principal minors (the highest-weight line); the
  span is closed under the lowering operators.

Weights are shifted by a central determinant twist so all seed exponents
are nonnegative; the twist is recorded and restored on evaluation.  The
left action is (h . f)(g) = f(h^-1 g) throughout, so the Lie algebra acts
by first-order polynomial derivations.

The span closure depends only on (m, weight - weight[0], convention), so it
is built once per process for each such key and shared, read-only, by every
model with that key.  Each model keeps its own shift and reruns its checks.
Every basis vector is a weight vector, and the dimension of each weight space
is known in advance: it is the number of Gelfand-Tsetlin patterns of that
weight.  The closure polarizes a vector only into a weight space that is not
yet full, and is certified weight by weight against those counts; the Weyl
dimension formula checks the total independently.

Every basis polynomial has integer coefficients, and the basis is stored as
packed monomials with int coefficients.  The seed minors, the Pieri
alternants, the closure, the polarizations and the coordinate solves (by the
fraction-free `SparseEchelon`) all run on that form; a model is read only
through its basis indices.  A closure also keeps two tables derived from it
and filled on first use, since they depend on the block alone and every
model with the closure's key asks for the same entries: the coordinates of
E_(a,b) applied to each basis vector, and each basis vector's monomials
decoded into (variable, exponent) pairs for evaluation and the group action.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .matrices import ExactMatrix, SparseEchelon, rational_inverse, signed_permutations
from .rationals import integer


# ---------------------------------------------------------------------------
# weights


def weyl_dimension(weight) -> int:
    """Weyl dimension formula for a dominant GL_m weight."""
    lam = list(weight)
    m = len(lam)
    num, den = 1, 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    if num % den:
        raise ArithmeticError("Weyl dimension formula gave a non-integer")
    return num // den


def is_dominant(weight) -> bool:
    return all(weight[i] >= weight[i + 1] for i in range(len(weight) - 1))


class WeightData:
    """A character (kappa, j) of T x S with cone bookkeeping.

    kappa is given as (kappa0; kappa[tau][i]) with d components of length
    2n each, and j as a tuple of d nonnegative integers.  The distinguished
    component is tau = 0.
    """

    def __init__(self, n: int, d: int, kappa0: int, kappa, j):
        n, d = integer(n, "n"), integer(d, "d")
        if n < 2 or d < 1:
            raise ValueError("need n >= 2 and d >= 1")
        self.n = n
        self.d = d
        self.kappa0 = integer(kappa0, "kappa0")
        self.kappa = [tuple(integer(x, "kappa entry") for x in row) for row in kappa]
        self.j = tuple(integer(x, "j entry") for x in j)
        if len(self.kappa) != d or len(self.j) != d:
            raise ValueError("kappa and j must have d components")
        if any(len(row) != 2 * n for row in self.kappa):
            raise ValueError("each kappa component must have 2n entries")

    @property
    def w(self) -> int:
        return self.kappa[0][1] + self.kappa[0][2 * self.n - 1]

    def cone_violation(self) -> str | None:
        """None if (kappa, j) lies in the weight cone, else the failed inequality."""
        n, k0 = self.n, self.kappa[0]
        if not all(k0[i] >= k0[i + 1] for i in range(1, 2 * n - 1)):
            return "kappa_(2,tau0) >= ... >= kappa_(2n,tau0) fails"
        for t in range(1, self.d):
            if not is_dominant(self.kappa[t]):
                return f"kappa component {t} not dominant"
        w = self.w
        if w > 0:
            return "w = kappa_2 + kappa_2n must be <= 0"
        for i in range(2, n + 1):
            if k0[i - 1] + k0[2 * n + 2 - i - 1] != w:
                return f"kappa_{i} + kappa_{2*n+2-i} != w at tau0"
        if k0[n] > w:
            return "kappa_(n+1,tau0) <= w fails"
        for t in range(1, self.d):
            for i in range(1, n + 1):
                if self.kappa[t][i - 1] + self.kappa[t][2 * n + 1 - i - 1] != 0:
                    return f"kappa_i + kappa_(2n+1-i) != 0 at component {t}"
        if not (0 <= self.j[0] <= k0[n] - k0[n + 1]):
            return "j_tau0 outside [0, kappa_(n+1) - kappa_(n+2)]"
        for t in range(1, self.d):
            if not (0 <= self.j[t] <= self.kappa[t][n - 1]):
                return f"j outside [0, kappa_n] at component {t}"
        return None

    def in_cone(self) -> bool:
        return self.cone_violation() is None

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "tau0": 0, "kappa0": self.kappa0,
                "kappa": [list(r) for r in self.kappa], "j": list(self.j)}

    @classmethod
    def from_json(cls, data: dict) -> "WeightData":
        if not isinstance(data, dict):
            raise TypeError("a weight spec is a JSON object")
        if data.get("tau0", 0) != 0:
            raise ValueError("distinguished component must be listed first")
        return cls(data["n"], data["d"], data["kappa0"], data["kappa"], data["j"])

    def __repr__(self):
        return f"WeightData(n={self.n}, d={self.d}, kappa0={self.kappa0}, kappa={self.kappa}, j={self.j})"


# -- the generator decomposition of the cone --------------------------------


def generator_weights(n: int, d: int) -> dict:
    """The distinguished generating characters of the weight cone, as WeightData.

    Keys: "mu0", "muw", ("mu", i, t) for the torus generators, and
    ("b", t) for the mixed (mu_n, 1_t) generators.
    """
    zero = [[0] * (2 * n) for _ in range(d)]
    zs = [0] * d
    out = {}
    out["mu0"] = WeightData(n, d, 1, zero, zs)

    def wd(rows):
        return WeightData(n, d, 0, rows, zs)

    rows = [r[:] for r in zero]
    for i in range(n, 2 * n):
        rows[0][i] = -1
    out["muw"] = wd(rows)
    rows = [r[:] for r in zero]
    rows[0][0] = 1
    out[("mu", 1, 0)] = wd(rows)
    for i in range(2, n + 1):
        rows = [r[:] for r in zero]
        for jj in range(2, i + 1):
            rows[0][jj - 1] = 1
            rows[0][2 * n + 2 - jj - 1] = -1
        out[("mu", i, 0)] = wd(rows)
    rows = [r[:] for r in zero]
    rows[0][n] = -1
    for jj in range(2, n + 1):
        rows[0][jj - 1] = 1
        rows[0][2 * n + 2 - jj - 1] = -1
    out[("mu", n + 1, 0)] = wd(rows)
    for t in range(1, d):
        for i in range(1, n + 1):
            rows = [r[:] for r in zero]
            for jj in range(1, i + 1):
                rows[t][jj - 1] = 1
                rows[t][2 * n + 1 - jj - 1] = -1
            out[("mu", i, t)] = wd(rows)
    for t in range(d):
        key = ("mu", n, t)
        base = out[key]
        jrow = [0] * d
        jrow[t] = 1
        out[("b", t)] = WeightData(n, d, 0, [list(r) for r in base.kappa], jrow)
    return out


def cone_decompose(wd: WeightData) -> dict:
    """Unique coefficients of (kappa, j) on the cone generators.

    Raises ValueError (naming the violated inequality) off the cone;
    reconstruction through generator_weights reproduces (kappa, j) exactly.
    """
    bad = wd.cone_violation()
    if bad is not None:
        raise ValueError(f"(kappa, j) is not in the weight cone: {bad}")
    n, d, k0 = wd.n, wd.d, wd.kappa[0]
    coeffs = {"mu0": wd.kappa0}
    coeffs["muw"] = -(k0[n - 1] + k0[n + 1])
    coeffs[("mu", n + 1, 0)] = k0[n - 1] - k0[n] + k0[n + 1]
    coeffs[("mu", 1, 0)] = k0[0]
    for i in range(2, n):
        coeffs[("mu", i, 0)] = k0[i - 1] - k0[i]
    coeffs[("mu", n, 0)] = k0[n] - k0[n + 1] - wd.j[0]
    for t in range(1, d):
        kt = wd.kappa[t]
        for i in range(1, n):
            coeffs[("mu", i, t)] = kt[i - 1] - kt[i]
        coeffs[("mu", n, t)] = kt[n - 1] - wd.j[t]
    for t in range(d):
        coeffs[("b", t)] = wd.j[t]
    # every coefficient except mu0 and mu_(1,tau0) must come out nonnegative
    for key, a in coeffs.items():
        if key in ("mu0", ("mu", 1, 0)):
            continue
        if a < 0:
            raise ArithmeticError(f"cone decomposition produced a negative coefficient at {key}")
    return coeffs


def cone_reconstruct(n: int, d: int, coeffs: dict) -> WeightData:
    gens = generator_weights(n, d)
    kappa0 = 0
    kappa = [[0] * (2 * n) for _ in range(d)]
    j = [0] * d
    for key, a in coeffs.items():
        g = gens[key]
        kappa0 += a * g.kappa0
        for t in range(d):
            for i in range(2 * n):
                kappa[t][i] += a * g.kappa[t][i]
            j[t] += a * g.j[t]
    return WeightData(n, d, kappa0, kappa, j)


# ---------------------------------------------------------------------------
# Pieri rule


def pieri_decompose(kappa, j: int) -> list:
    """Constituents of V_kappa tensor V_(0,..,0,-j), each with multiplicity one."""
    kappa = tuple(kappa)
    if not is_dominant(kappa):
        raise ValueError("kappa must be dominant")
    if j < 0:
        raise ValueError("j must be >= 0")
    dcount = len(kappa)
    out = []

    def rec(pos, remaining, built):
        if pos == dcount:
            if remaining == 0:
                out.append(tuple(built))
            return
        cap = remaining
        if pos < dcount - 1:
            cap = min(cap, kappa[pos] - kappa[pos + 1])
        for t in range(cap + 1):
            rec(pos + 1, remaining - t, built + [kappa[pos] - t])

    rec(0, j, [])
    return out


def _alternant(weight, width: int) -> dict:
    """A_(weight+rho) = det [x_i^(weight_j + rho_j)], packed; weight_m must be >= 0."""
    m = len(weight)
    return _leibniz([[weight[j] + m - 1 - j << i * width for j in range(m)]
                     for i in range(m)])


def pieri_character_check(kappa, j: int) -> bool:
    """Alternant identity certifying the Pieri decomposition.

    A_(kappa+rho) * A_(twist+rho) == A_rho * sum A_(kappa'+rho), which is the
    character identity cleared of Weyl denominators, checked on packed int
    polynomials after multiplying both sides by (x_1...x_m)^(s+j) with
    s = max(0, -kappa_m), so that no exponent is negative.  No exponent of a
    variable on either side then exceeds kappa_1 + s + j + 2(m-1), which
    sizes the fields.
    """
    m = len(kappa)
    s = max(0, -kappa[-1])
    width = _field_width(kappa[0] + s + j + 2 * (m - 1))
    twist = tuple([j] * (m - 1) + [0])
    lhs = _packed_mul(_alternant([k + s for k in kappa], width), _alternant(twist, width))
    rhs = {}
    for kp in pieri_decompose(kappa, j):
        for key, c in _alternant([k + s + j for k in kp], width).items():
            rhs[key] = rhs.get(key, 0) + c
    return lhs == _packed_mul(_alternant((0,) * m, width), rhs)


# ---------------------------------------------------------------------------
# irreducible models for a single GL_m block


def _minor(m: int, size: int, trailing: bool, width: int) -> dict:
    """Leading or trailing principal minor of the generic m x m matrix, packed."""
    idx = range(m - size, m) if trailing else range(size)
    return _leibniz([[1 << (r * m + c) * width for c in idx] for r in idx])


# -- the integer kernel ------------------------------------------------------
#
# Inside the span closure a polynomial is {packed monomial: int coefficient}.
# The exponent of variable v fills bits [v * width, (v + 1) * width) of the
# packed int, so multiplying monomials adds their ints.  Every polynomial of
# a closure is homogeneous of the seed's degree, and E_(a,b) keeps the
# degree, so no exponent outgrows a field sized from that degree.


def _field_width(degree: int) -> int:
    """Bits per exponent field for polynomials of total degree <= degree."""
    return max(1, degree.bit_length())


def _fields(key: int, width: int):
    """The (variable, exponent) pairs of a packed monomial, variables ascending."""
    mask = (1 << width) - 1
    while key:
        v = ((key & -key).bit_length() - 1) // width
        e = key >> v * width & mask
        yield v, e
        key ^= e << v * width


def _packed_mul(f: dict, g: dict) -> dict:
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _leibniz(cells) -> dict:
    """det of a square matrix of packed monomials: one signed monomial per permutation.

    Distinct permutations must give distinct monomials, as they do for a
    minor of the generic matrix and for an alternant of distinct exponents.
    """
    return {sum(row[c] for row, c in zip(cells, perm)): sign
            for perm, sign in signed_permutations(len(cells))}


def _polarize(m: int, a: int, b: int, f: dict, width: int) -> dict:
    """E_(a,b) on a packed polynomial in the entries of an m x m matrix.

    Each x_(a,s)^e becomes -e * x_(a,s)^(e-1) * x_(b,s), which is
    -sum_s x_(b,s) df/dx_(a,s) without building the derivatives; the move
    of one exponent unit from field (a,s) to field (b,s) is one integer add.
    """
    mask = (1 << width) - 1
    out = {}
    for s in range(m):
        src = (a * m + s) * width
        move = (1 << (b * m + s) * width) - (1 << src)
        for mono, c in f.items():
            e = mono >> src & mask
            if e:
                key = mono + move
                out[key] = out.get(key, 0) - e * c
    return {k: c for k, c in out.items() if c}


class _Point:
    """A group point prepared for evaluation: cleared once, det^|shift| computed once.

    A point with rational entries is cleared to the integer matrix L g, for
    L the common denominator of its entries; a point with ring-element
    entries keeps them, with L = 1.  A basis vector homogeneous of degree k
    takes the value numerator(terms) * factor at g: `numerator` sums its
    decoded terms in one loop over prod (L x_v)^e, and factor is
    det(g)^(-shift) / L^k.
    """

    def __init__(self, g: ExactMatrix, shift: int, degree: int):
        values = [x for row in g.rows for x in row]
        scale = 1
        if all(type(x) is int or type(x) is Fraction for x in values):
            scale = lcm(*(x.denominator for x in values))
            values = [x.numerator * (scale // x.denominator) for x in values]
        self.values = values
        self.factor = Fraction(1, scale ** degree)
        if shift:
            m = g.nrows
            cleared = ExactMatrix([values[r * m:(r + 1) * m] for r in range(m)])
            twist = (cleared.det() * Fraction(1, scale ** m)) ** abs(shift)
            self.factor = self.factor * twist if shift < 0 else self.factor / twist

    def numerator(self, terms):
        """sum over the decoded terms (c, ((v, e), ...)) of c * prod (L x_v)^e:
        an int at a rational point."""
        values = self.values
        total = 0
        for t, fields in terms:
            for v, e in fields:
                t = t * (values[v] if e == 1 else values[v] ** e)
            total = total + t
        return total


def _gt_multiplicities(shifted) -> dict:
    """{weight: multiplicity} for the GL_m irreducible of dominant weight `shifted`.

    One count per Gelfand-Tsetlin pattern: rows of lengths m, m-1, ..., 1
    from the top row `shifted` down, each interlacing the row above
    (above[i] >= row[i] >= above[i + 1]).  A pattern's weight has entry k
    = (sum of its row of length k) - (sum of its row of length k - 1).
    Patterns are merged by their current row, so each row is expanded once
    per distinct row above it.  The counts are Kostka numbers, invariant
    under permuting the weight's entries, so any weight tuple can be
    looked up directly.
    """
    level = {tuple(shifted): {(): 1}}  # row -> {weight entries below the row: count}
    for _ in range(len(shifted)):
        below = {}
        for row, tails in level.items():
            total = sum(row)
            for sub in product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))):
                entry = total - sum(sub)
                acc = below.setdefault(sub, {})
                for tail, c in tails.items():
                    key = (entry,) + tail
                    acc[key] = acc.get(key, 0) + c
        level = below
    return level[()]


class _Closure:
    """The span closure of one (m, shifted weight, convention), shared read-only.

    `packed` holds the basis as packed int-coefficient polynomials of field
    width `width`, each homogeneous of the seed's `degree`.  The echelon
    holds basis vector idx under tag idx, so `echelon.coordinates` gives a
    packed polynomial's coordinates.  `action` and `terms` read tables
    derived from `packed`, each entry computed on its first request.
    """

    __slots__ = ("m", "width", "degree", "packed", "weights", "echelon", "_actions", "_terms")

    def __init__(self, m, width, degree, packed, weights, echelon):
        self.m, self.width, self.degree = m, width, degree
        self.packed = tuple(packed)
        self.weights = tuple(weights)
        self.echelon = echelon
        self._actions = {}  # (a, b, idx) -> {idx2: Fraction}
        self._terms = {}  # idx -> ((c, ((v, e), ...)), ...)

    def action(self, a: int, b: int, idx: int) -> dict:
        """Coordinates {idx2: c} of E_(a,b) applied to basis vector idx, as a new dict."""
        coords = self._actions.get((a, b, idx))
        if coords is None:
            f = _polarize(self.m, a, b, self.packed[idx], self.width)
            ints, den = self.echelon.coordinates(f)
            coords = self._actions[a, b, idx] = {k: Fraction(c, den) for k, c in ints.items()}
        return dict(coords)

    def terms(self, idx: int) -> tuple:
        """Basis vector idx as ((c, ((v, e), ...)), ...): each packed monomial
        decoded into its (variable, exponent) pairs, in the order of `packed`."""
        decoded = self._terms.get(idx)
        if decoded is None:
            width = self.width
            decoded = self._terms[idx] = tuple((c, tuple(_fields(key, width)))
                                               for key, c in self.packed[idx].items())
        return decoded


@lru_cache(maxsize=None)
def _span_closure(m: int, shifted: tuple, convention: str) -> _Closure:
    """The closure of the model with first weight entry 0, in the integer kernel.

    Shared by every model of the same (m, shifted weight, convention).  A
    breadth-first search from the seed applies each raising (or lowering)
    E_(a,b) to each new basis vector, and keeps an image independent of the
    basis.  The image has weight w + e_a - e_b; once the basis holds the
    Gelfand-Tsetlin multiplicity of that weight, the weight space is spanned
    and the image would be dependent, so it is skipped without being built.
    The basis and its order are those of the search without the skip.
    Raises ArithmeticError unless every weight ends with exactly its
    multiplicity.
    """
    exps = [shifted[m - 1 - i] - shifted[m - i] for i in range(1, m)]  # size i = 1..m-1
    degree = sum(i * e for i, e in enumerate(exps, start=1))
    width = _field_width(degree)
    seed = {0: 1}
    for i, e in enumerate(exps, start=1):
        if e:
            minor = _minor(m, i, convention == "lower", width)
            for _ in range(e):
                seed = _packed_mul(seed, minor)
    if convention == "upper":
        seed_weight = tuple(shifted[m - 1 - i] for i in range(m))  # reversed (lowest)
        ops = [(a, b) for a in range(m) for b in range(m) if a < b]
    else:
        seed_weight = shifted  # highest
        ops = [(a, b) for a in range(m) for b in range(m) if a > b]
    mult = _gt_multiplicities(shifted)
    packed, weights, held, ech = [], [], {}, SparseEchelon()

    def insert(f: dict, wvec) -> bool:
        if ech.add(f, len(packed)) is not None:
            return False
        packed.append(f)
        weights.append(wvec)
        held[wvec] = held.get(wvec, 0) + 1
        return True

    insert(seed, seed_weight)
    frontier = [0]
    while frontier:
        new = []
        for idx in frontier:
            f, wvec = packed[idx], weights[idx]
            for (a, b) in ops:
                nw = tuple(wvec[i] + (1 if i == a else 0) - (1 if i == b else 0)
                           for i in range(m))
                if held.get(nw, 0) >= mult.get(nw, 0):
                    continue  # weight space full (or no weight): E_(a,b) f is dependent
                g = _polarize(m, a, b, f, width)
                if g and insert(g, nw):
                    new.append(len(packed) - 1)
        frontier = new
    if held != mult:
        w = min(w for w in mult.keys() | held.keys() if held.get(w, 0) != mult.get(w, 0))
        raise ArithmeticError(f"span closure holds {held.get(w, 0)} vectors of weight {w},"
                              f" Gelfand-Tsetlin multiplicity is {mult.get(w, 0)}")
    return _Closure(m, width, degree, packed, weights, ech)


class GLBlockModel:
    """An irreducible representation of GL_m on polynomial functions.

    The recorded ``shift`` means every model vector represents the true
    function (polynomial) * det^shift.  Basis vectors are weight vectors;
    the model certifies its dimension against the Weyl dimension formula.
    """

    def __init__(self, m: int, weight, convention: str = "upper", dim_cap: int = 500):
        if convention not in ("upper", "lower"):
            raise ValueError("convention must be 'upper' or 'lower'")
        weight = tuple(int(x) for x in weight)
        if not is_dominant(weight):
            raise ValueError(f"weight {weight} is not dominant")
        self.m = m
        self.weight = weight
        self.convention = convention
        self.dimension = weyl_dimension(weight)
        if self.dimension > dim_cap:
            raise ValueError(f"model dimension {self.dimension} exceeds cap {dim_cap}")
        self.shift = weight[0]
        shifted = tuple(x - self.shift for x in weight)  # entries <= 0, first = 0
        self._closure = _span_closure(m, shifted, convention)
        self.weights = self._closure.weights
        if len(self._closure.packed) != self.dimension:
            raise ArithmeticError(f"span closure gave {len(self._closure.packed)} vectors,"
                                  f" Weyl dimension is {self.dimension}")

    def true_weight(self, idx: int) -> tuple:
        """Torus weight of basis vector idx as a function in the unshifted model."""
        return tuple(w + self.shift for w in self.weights[idx])

    # -- actions and evaluation -----------------------------------------

    def basis_word_action(self, word, idx: int) -> dict:
        """Coordinates {idx2: c} of a word of E's on basis vector idx: (XY) f = X (Y f).

        A one-letter word is read from the closure's table of actions.
        """
        closure = self._closure
        if len(word) == 1:
            (a, b), = word
            return closure.action(a, b, idx)
        f = closure.packed[idx]
        for (a, b) in reversed(word):
            f = _polarize(self.m, a, b, f, closure.width)
        coords, den = closure.echelon.coordinates(f)
        return {k: Fraction(c, den) for k, c in coords.items()}

    def basis_group_action(self, h: ExactMatrix, idx: int) -> dict:
        """Coordinates {idx2: c} of (h . f)(g) = f(h^-1 g) for basis vector idx.

        The polynomial part only (the det twist is a scalar).  Each x_(i,j)
        becomes sum_k (L h^-1)_(i,k) x_(k,j), with the int rows of L h^-1
        for L the common denominator of h^-1; a basis vector is homogeneous,
        so the image is read over L^degree.
        """
        closure, m = self._closure, self.m
        width = closure.width
        inv = rational_inverse(h)
        scale = lcm(*(x.denominator for row in inv.rows for x in row))
        forms = [{1 << (k * m + v % m) * width: int(x * scale)
                  for k, x in enumerate(inv.rows[v // m]) if x} for v in range(m * m)]
        image = {}
        for c, fields in closure.terms(idx):
            term = {0: c}
            for v, e in fields:
                for _ in range(e):
                    term = _packed_mul(term, forms[v])
            for k, t in term.items():
                image[k] = image.get(k, 0) + t
        coords, den = closure.echelon.coordinates(image)
        den *= scale ** closure.degree
        return {k: Fraction(c, den) for k, c in coords.items()}

    def basis_numerators(self, g: ExactMatrix, indices) -> tuple:
        """({idx: N_idx}, factor): basis vector idx takes the value N_idx * factor at g.

        det(g) is computed once.  The true function is (polynomial) *
        det^(-shift), so the shifted model weight mu satisfies true weight =
        mu + shift*(1,..,1).  At a point with rational entries each N_idx is
        an int and factor the Fraction det(g)^(-shift) / L^degree; at a point
        with ring-element entries both are ring elements.
        """
        closure = self._closure
        point = _Point(g, self.shift, closure.degree)
        return {idx: point.numerator(closure.terms(idx)) for idx in indices}, point.factor

    def numerator_bits(self, idx: int, entry_bits: int) -> int:
        """A bound on the bit length of basis vector idx's numerator at a point
        with int entries below 2^entry_bits in absolute value: its coefficient
        sum times 2^(entry_bits * degree)."""
        closure = self._closure
        return (sum(map(abs, closure.packed[idx].values())).bit_length()
                + closure.degree * entry_bits)

    def basis_values(self, g: ExactMatrix, indices) -> dict:
        """{idx: value of basis vector idx at g}: a Fraction at a point with
        rational entries, a ring element at a point with ring-element entries."""
        numerators, factor = self.basis_numerators(g, indices)
        return {idx: v * factor for idx, v in numerators.items()}
