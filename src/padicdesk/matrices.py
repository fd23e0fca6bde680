"""Dense exact matrices over any commutative ring, exact elimination, and permutation helpers.

Entries need only +, * and unary -: rationals, cyclotomic and Artinian
elements and commuting enveloping-algebra elements all work.  Sizes in this
package stay small (<= 6 for minors and group elements), so `ExactMatrix.det`
is the Leibniz expansion (glrep runs the same sum on packed monomials).
Both read the (permutation, sign) pairs of a size from
`signed_permutations`, a table built once per size; `perm_sign` and
`cycles` are the one inversion count and the one cycle walk.  The
fraction-free `SparseEchelon` is the one elimination over Q (span closures,
matrix inverses, nullspaces); `row_reduce` is Gauss-Jordan over Z/m only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm

from .rationals import ratio


def perm_sign(perm) -> int:
    """Sign of a permutation given as an image list, by its inversion count.

    Only the relative order of the entries matters, so 0-based and 1-based
    image lists give the same sign.
    """
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def signed_permutations(n: int) -> tuple:
    """The (permutation, sign) pairs of range(n), in `permutations` order, built once per n."""
    return tuple((perm, perm_sign(perm)) for perm in permutations(range(n)))


def cycles(perm) -> list:
    """Cycle decomposition of a 0-based image list, fixed points included.

    Each cycle starts at its smallest entry, and the cycles come in the
    order of those entries.
    """
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        k = i
        while not seen[k]:
            seen[k] = True
            cyc.append(k)
            k = perm[k]
        out.append(cyc)
    return out


class ExactMatrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int, one=Fraction(1), zero=Fraction(0)) -> "ExactMatrix":
        return cls.sparse(n, {(i, i): one for i in range(n)}, zero)

    @classmethod
    def sparse(cls, n: int, entries: dict, zero=Fraction(0)) -> "ExactMatrix":
        """The n x n matrix with the {(i, j): value} `entries`, `zero` elsewhere."""
        return cls([[entries.get((i, j), zero) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __add__(self, other):
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented  # a scalar multiplies through `scale`
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # Gustavson's row-by-row product: the nonzero (j, b) of each row of
        # `other` are listed once, and a term a * b is formed only for nonzero
        # a and b (the zeros of every ring are falsy).  An entry with no term
        # is `zero`, the zero of the first entries' product.
        nonzero = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        zero = self.rows[0][0] * other.rows[0][0] * 0 if self.ncols and other.ncols else None
        out = []
        for row in self.rows:
            acc = [None] * other.ncols
            for a, bs in zip(row, nonzero):
                if a:
                    for j, b in bs:
                        t = acc[j]
                        acc[j] = a * b if t is None else t + a * b
            out.append([zero if t is None else t for t in acc])
        return ExactMatrix(out)

    def scale(self, scalar) -> "ExactMatrix":
        return ExactMatrix([[a * scalar for a in r] for r in self.rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self.rows[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)])

    def det(self):
        """Leibniz expansion over any commutative ring; fine for the sizes used here."""
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        if not self.rows:
            raise ValueError("det of an empty matrix: the ring of its entries is unknown")
        n, rows = self.nrows, self.rows
        total = None
        for perm, sign in signed_permutations(n):
            term = rows[0][perm[0]]
            for i in range(1, n):
                term = term * rows[i][perm[i]]
            if sign < 0:
                term = -term
            total = term if total is None else total + term
        return total

    def map(self, fn) -> "ExactMatrix":
        return ExactMatrix([[fn(a) for a in r] for r in self.rows])

    def __repr__(self):
        return "ExactMatrix(" + ", ".join(str(r) for r in self.rows) + ")"


class SparseEchelon:
    """Incremental fraction-free reduced row echelon form over Z.

    Vectors are sparse {key: value} with int keys >= 0.  A vector stored
    with `add` may have rational values; it is kept as an int row with its
    tag t at the extra key ~t < 0, so every row is an integer combination of
    the stored vectors: its keys >= 0 hold the combination and its tag keys
    the coefficients.  A row has its content removed and a positive pivot,
    its largest key, and no other row has an entry at that pivot.
    Elimination scales the vector being reduced by an integer instead of
    dividing by the pivot (Bareiss), so no fraction ever arises.
    """

    def __init__(self):
        self.rows = {}  # pivot key -> row {key: int}

    def reduce(self, vec: dict):
        """(residual, scale) with residual = scale * vec - (an integer combination of rows).

        scale is a positive int and the residual has no entry at any pivot.
        Because the rows are reduced, eliminating one pivot never brings in
        another, so each pivot of vec is met once.
        """
        vec = {k: c for k, c in vec.items() if c}
        scale = 1
        for piv in [k for k in vec if k in self.rows]:
            vec, r = _eliminate(vec, self.rows[piv], piv)
            scale *= r
        return vec, scale

    def add(self, vec: dict, tag: int):
        """Store a rational vec under a new tag if it is independent of the stored vectors.

        Returns None when it is stored.  Otherwise returns the tag-only
        residual {~t: c}, a relation: the sum of c times the vector tagged t
        is 0, and c is positive at ~tag.
        """
        pairs = {k: ratio(x) for k, x in vec.items()}
        den = lcm(*(d for _, d in pairs.values()))
        ints = {k: n * (den // d) for k, (n, d) in pairs.items()}
        ints[~tag] = den  # den * (vec + the tag), in ints
        residual, _ = self.reduce(ints)
        piv = max(residual)
        if piv < 0:
            return residual
        g = gcd(*residual.values())
        if residual[piv] < 0:
            g = -g
        row = {k: v // g for k, v in residual.items()}
        for p, other in self.rows.items():
            if other.get(piv):
                self.rows[p] = _content_free(_eliminate(other, row, piv)[0])
        self.rows[piv] = row
        return None

    def coordinates(self, vec: dict) -> tuple:
        """(coords, den): the int vec is the sum of coords[t] / den times the vector tagged t.

        den is a positive int, and the coordinates come in increasing tag
        order.  Raises ValueError when vec is not in the span.
        """
        residual, scale = self.reduce(vec)
        if residual and max(residual) >= 0:
            raise ValueError("vector not in the span")
        return {~k: -c for k, c in sorted(residual.items(), reverse=True)}, scale


def _eliminate(vec: dict, row: dict, piv) -> tuple:
    """(r * vec - c * row, r) for the least r > 0 and c that clear vec at piv.

    row[piv] must be positive.
    """
    r, c = row[piv], vec[piv]
    g = gcd(r, c)
    r, c = r // g, c // g
    out = {k: v * r for k, v in vec.items()} if r != 1 else dict(vec)
    for k, v in row.items():
        nv = out.get(k, 0) - c * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out, r


def _content_free(vec: dict) -> dict:
    g = gcd(*vec.values())
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


def rational_inverse(mat: ExactMatrix) -> ExactMatrix:
    """Inverse of a matrix over Q.

    Row i of mat is stored with tag i; row j of the inverse is the
    coordinates of the unit vector e_j on those rows.
    """
    ech = SparseEchelon()
    for i, row in enumerate(mat.rows):
        if ech.add(dict(enumerate(row)), i) is not None:
            raise ZeroDivisionError("singular matrix")
    out = []
    for j in range(mat.nrows):
        coords, den = ech.coordinates({j: 1})
        out.append([Fraction(coords.get(i, 0), den) for i in range(mat.nrows)])
    return ExactMatrix(out)


def row_reduce(rows, modulus: int):
    """Reduced row echelon form over Z/modulus.

    Each column takes as pivot its first unit mod m at or below the rows
    already pivoted; a column without one is skipped.  Returns (reduced
    rows, pivot columns), pivot rows first.
    """
    mat = [[int(x) % modulus for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if gcd(mat[i][c], modulus) == 1), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, modulus)
        mat[r] = prow = [x * inv % modulus for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = [(x - f * y) % modulus for x, y in zip(row, prow)]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def modular_inverse(mat: ExactMatrix, modulus: int) -> ExactMatrix:
    """Inverse of an integer matrix mod m (pivots must be units of Z/m).

    Reduces [A | I]; A is invertible iff its columns are the first n pivots.
    """
    n = mat.nrows
    reduced, pivots = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat.rows)],
        modulus)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("no unit pivot mod modulus")
    return ExactMatrix([row[n:] for row in reduced])
