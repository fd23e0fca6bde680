"""`Poly` views of the packed GL block models, and oracles built on them.

The library's GL models store packed int polynomials only.  These helpers
unpack a model's basis to `Poly` (once per shared closure) and recompute the
Lie action, the coordinates and the values with `Poly.diff`, `Poly.eval` and
a Gauss-Jordan reduction over Fraction of their own, so that the tests check
the packed kernel against code that shares nothing with it but `_fields`,
the bit-field reader.
"""

from fractions import Fraction
from functools import lru_cache

from padicdesk.glrep import _fields
from padicdesk.polynomials import Poly


def pack(f: Poly, width: int) -> dict:
    """A Poly as {packed monomial: coefficient}; exponents must fit width bits."""
    return {sum(e << v * width for v, e in mono): c for mono, c in f.terms.items()}


def unpack(vec: dict, width: int) -> Poly:
    return Poly({tuple(_fields(key, width)): c for key, c in vec.items()})


@lru_cache(maxsize=None)
def _basis(closure) -> tuple:
    return tuple(unpack(f, closure.width) for f in closure.packed)


def basis(model) -> tuple:
    """The basis of a GL block model as Polys over Fraction."""
    return _basis(model._closure)


def lie_action(m: int, a: int, b: int, f: Poly) -> Poly:
    """E_(a,b) f = -sum_s x_(b,s) * df/dx_(a,s), from Poly derivatives and products."""
    out = Poly()
    for s in range(m):
        out = out - Poly.variable(b * m + s) * f.diff(a * m + s)
    return out


def _rref(rows) -> tuple:
    """(reduced rows, pivot columns) of rows over Q, by Gauss-Jordan on Fractions."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = prow = [x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
    return mat, pivots


@lru_cache(maxsize=None)
def _reduced(closure):
    """Sparse rows of rref [B | I], B the basis as rows over its monomials."""
    polys = _basis(closure)
    monos = sorted(set().union(*(f.terms for f in polys)))
    dim = len(polys)
    reduced, pivots = _rref([[f.terms.get(mono, 0) for mono in monos]
                             + [int(i == k) for k in range(dim)]
                             for i, f in enumerate(polys)])
    assert len(pivots) == dim and pivots[-1] < len(monos)  # the basis is independent
    return [(monos[pc], [(monos[c], x) for c, x in enumerate(row[:len(monos)]) if x],
             [(k, x) for k, x in enumerate(row[len(monos):]) if x])
            for row, pc in zip(reduced, pivots)]


def coordinates(model, f: Poly) -> dict:
    """Coordinates {basis index: c} of f in the model span, by Fraction row reduction.

    A reduced row has a 1 at its pivot monomial and 0 at every other pivot,
    so f = sum over rows of f[pivot] * row; the identity part of the rows
    carries that combination back to the basis.
    """
    residual, coords = dict(f.terms), {}
    for pivot, mono_part, basis_part in _reduced(model._closure):
        c = f.terms.get(pivot)
        if c:
            for mono, x in mono_part:
                residual[mono] = residual.get(mono, 0) - c * x
            for k, x in basis_part:
                coords[k] = coords.get(k, 0) + c * x
    assert not any(residual.values()), "polynomial not in the model span"
    return {k: c for k, c in coords.items() if c}


def evaluate(model, f: Poly, g, with_twist: bool = True):
    """The value of f * det^(-shift) at g, by Fraction substitution and a det per call."""
    m = model.m
    val = f.eval({i * m + j: Fraction(g.rows[i][j]) for i in range(m) for j in range(m)})
    if with_twist and model.shift:
        val = val * Fraction(g.det()) ** (-model.shift)
    return val
