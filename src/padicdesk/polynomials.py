"""Fraction-free sparse echelon and exact nullspaces; `Poly`, the test oracle.

`Poly` (sparse polynomials over Q; monomials are sorted (variable, exponent)
tuples) is on no library code path: the GL models run on packed int
polynomials.  It is the tests' independent oracle for that kernel, and it
stays here because the benchmark tracer patches `Poly.__mul__` and
`Poly.diff` by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .matrices import row_reduce


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                m = tuple(sorted((v, e) for v, e in m if e))
                clean[m] = clean.get(m, Fraction(0)) + c
                if not clean[m]:
                    del clean[m]
        self.terms = clean

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(): Fraction(c)})

    @classmethod
    def variable(cls, v: int) -> "Poly":
        return cls({((v, 1),): Fraction(1)})

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
            if not out[m]:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = Fraction(other)
            if not c:
                return Poly()
            p = Poly.__new__(Poly)
            p.terms = {m: cc * c for m, cc in self.terms.items()}
            return p
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
                if not out[m]:
                    del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return self.terms == Poly.constant(other).terms
        return self.terms == other.terms

    def diff(self, var: int) -> "Poly":
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(var, 0)
            if not e:
                continue
            d[var] = e - 1
            mono = tuple(sorted((v, k) for v, k in d.items() if k))
            out[mono] = out.get(mono, Fraction(0)) + c * e
        return Poly(out)

    def eval(self, values):
        """Evaluate with variables mapped to ring elements (dict or list)."""
        total = None
        for m, c in self.terms.items():
            term = None
            for v, e in m:
                f = values[v] ** e if e != 1 else values[v]
                term = f if term is None else term * f
            term = c if term is None else term * c
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_key):
            c = self.terms[m]
            mono = "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in m) or "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def _mono_key(m):
    return (sum(e for _, e in m), m)


class SparseEchelon:
    """Incremental fraction-free reduced row echelon form over Z.

    Vectors are sparse {key: int} with orderable keys.  A stored row has its
    content removed and a positive pivot, its largest key, and no other row
    has an entry at that pivot.  Elimination scales the vector being reduced
    by an integer instead of dividing by the pivot, so no fraction ever
    arises; callers read exact ratios off the residual and its scale.
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

    def insert(self, residual: dict) -> None:
        """Store a nonzero residual of `reduce` as a row, keeping the rows reduced."""
        piv = max(residual)
        g = gcd(*residual.values())
        if residual[piv] < 0:
            g = -g
        row = {k: v // g for k, v in residual.items()}
        for p, other in self.rows.items():
            if other.get(piv):
                self.rows[p] = _content_free(_eliminate(other, row, piv)[0])
        self.rows[piv] = row


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


def nullspace(rows: list, ncols: int) -> list:
    """Exact nullspace basis over Q of a list of dense rows: one vector per free column."""
    reduced, pivots = row_reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def image_kernel(operators, ncols: int) -> list:
    """Nullspace basis of the vectors all of whose operator images vanish.

    Each item of `operators` lists the sparse images {key: c} of the ncols
    basis vectors under one operator; every key met (in sorted order) gives
    one condition row, so the rows come operator by operator.
    """
    rows = []
    for images in operators:
        for key in sorted(set().union(*images)):
            rows.append([im.get(key, 0) for im in images])
    return nullspace(rows, ncols)
