"""Exact nullspaces on the fraction-free echelon; `Poly`, the test oracle.

`nullspace` and `image_kernel` solve over Q on `matrices.SparseEchelon`,
one tagged column at a time; the benchmark tracer patches `nullspace` by
name.
`Poly` (sparse polynomials over Q; monomials are sorted (variable, exponent)
tuples) is on no library code path: the GL models run on packed int
polynomials.  It is the tests' independent oracle for that kernel, and it
stays here because the benchmark tracer patches `Poly.__mul__` and
`Poly.diff` by name.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import SparseEchelon
from .rationals import RingOps


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


class Poly(RingOps):
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

    def _coerce(self, other) -> "Poly":
        return other if isinstance(other, Poly) else Poly.constant(other)

    def inverse(self):
        raise ValueError("negative power or quotient of a polynomial")

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
            if not out[m]:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

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

    def __eq__(self, other):
        return self.terms == self._coerce(other).terms

    def is_zero(self) -> bool:
        return not self.terms

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


def nullspace(rows: list, ncols: int) -> list:
    """Exact nullspace basis over Q of a list of dense rows.

    Column c is stored in a `SparseEchelon` with tag c; a column that
    depends on the columns before it gives one basis vector, the relation
    scaled to a 1 at c.
    """
    ech, basis = SparseEchelon(), []
    for c in range(ncols):
        relation = ech.add({r: row[c] for r, row in enumerate(rows)}, c)
        if relation is not None:
            vec = [Fraction(0)] * ncols
            for k, x in relation.items():
                vec[~k] = Fraction(x, relation[~c])
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
