"""Dense exact matrices over any commutative ring, and permutation helpers.

Entries need only +, * and unary -: rationals, cyclotomic and Artinian
elements, polynomials (also Laurent ones) and commuting enveloping-algebra
elements all work.  Sizes in this package stay small (<= 6 for minors and
group elements), so `ExactMatrix.det` is the Leibniz expansion, and it is
the one signed sum over permutations in the package; `perm_sign` and
`cycles` are the one inversion count and the one cycle walk.  All exact
elimination over Q or Z/m (inverses, nullspaces, ranks, solves) goes
through `row_reduce`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd


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
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __add__(self, other):
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            brows = other.rows
            out = []
            for row in self.rows:
                # the first term fixes the entry ring; past it a zero left entry
                # (only int and Fraction zeros are falsy) adds nothing
                rest = [(a, brows[k]) for k, a in enumerate(row) if k and a]
                out_row = []
                for j in range(other.ncols):
                    acc = row[0] * brows[0][j]
                    for a, brow in rest:
                        acc = acc + a * brow[j]
                    out_row.append(acc)
                out.append(out_row)
            return ExactMatrix(out)
        return ExactMatrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, scalar):
        return ExactMatrix([[scalar * a for a in r] for r in self.rows])

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
        n = self.nrows
        total = None
        for perm in permutations(range(n)):
            term = self.rows[0][perm[0]]
            for i in range(1, n):
                term = term * self.rows[i][perm[i]]
            if perm_sign(perm) < 0:
                term = -term
            total = term if total is None else total + term
        return total

    def map(self, fn) -> "ExactMatrix":
        return ExactMatrix([[fn(a) for a in r] for r in self.rows])

    def __repr__(self):
        return "ExactMatrix(" + ", ".join(str(r) for r in self.rows) + ")"


def row_reduce(rows, modulus=None):
    """Reduced row echelon form over Q, or over Z/modulus when one is given.

    Each column takes as pivot its first nonzero entry (over Q) or first unit
    (mod m) at or below the rows already pivoted; a column without one is
    skipped.  Returns (reduced rows, pivot columns), pivot rows first.
    """
    if modulus is None:
        mat = [[Fraction(x) for x in r] for r in rows]
    else:
        mat = [[int(x) % modulus for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if modulus is None:
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        else:
            piv = next((i for i in range(r, len(mat)) if gcd(mat[i][c], modulus) == 1), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        if modulus is None:
            inv = 1 / mat[r][c]
            mat[r] = prow = [x * inv for x in mat[r]]
        else:
            inv = pow(mat[r][c], -1, modulus)
            mat[r] = prow = [x * inv % modulus for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                if modulus is None:
                    mat[i] = [x - f * y for x, y in zip(row, prow)]
                else:
                    mat[i] = [(x - f * y) % modulus for x, y in zip(row, prow)]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def _inverse(mat: ExactMatrix, modulus, message: str) -> ExactMatrix:
    """Reduce [A | I]; A is invertible iff its columns are the first n pivots."""
    n = mat.nrows
    reduced, pivots = row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat.rows)],
        modulus)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError(message)
    return ExactMatrix([row[n:] for row in reduced])


def rational_inverse(mat: ExactMatrix) -> ExactMatrix:
    """Inverse of a matrix over Q."""
    return _inverse(mat, None, "singular matrix")


def modular_inverse(mat: ExactMatrix, modulus: int) -> ExactMatrix:
    """Inverse of an integer matrix mod m (pivots must be units of Z/m)."""
    return _inverse(mat, modulus, "no unit pivot mod modulus")
