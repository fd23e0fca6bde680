"""ArtinianElement ring operations against sympy polynomials truncated by T_i^2 = 0."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk.artinian import ArtinianElement

sympy = pytest.importorskip("sympy")

_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _terms(ngens):
    return st.dictionaries(st.frozensets(st.integers(0, ngens - 1)), _COEFFS, max_size=6)


@st.composite
def _operands(draw):
    ngens = draw(st.integers(1, 4))
    return ngens, draw(_terms(ngens)), draw(_terms(ngens)), draw(_COEFFS)


def _to_sympy(terms, gens):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[gens[i] for i in m])
                for m, c in terms.items()), sympy.Integer(0))


def _truncated(expr, gens) -> dict:
    """The terms of expr with every monomial divisible by some T_i^2 dropped."""
    out = {}
    for exps, c in sympy.Poly(expr, *gens).terms():
        if c != 0 and max(exps) <= 1:
            c = sympy.Rational(c)
            out[frozenset(i for i, e in enumerate(exps) if e)] = Fraction(int(c.p), int(c.q))
    return out


@given(_operands())
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_truncated_sympy_polynomials(operands):
    ngens, xt, yt, c = operands
    gens = sympy.symbols(f"T0:{ngens}")
    x, y = ArtinianElement(ngens, xt), ArtinianElement(ngens, yt)
    sx, sy = _to_sympy(xt, gens), _to_sympy(yt, gens)
    sc = sympy.Rational(c.numerator, c.denominator)
    cases = [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy),
             (x * c, sx * sc), (c * x, sx * sc), (-x, -sx)]
    for ours, ref in cases:
        # __eq__ compares the term dicts, so no result may keep a zero coefficient
        assert all(isinstance(v, Fraction) and v != 0 for v in ours.terms.values())
        assert ours.terms == _truncated(ref, gens)
    if x.is_unit():
        assert x.inverse() * x == 1
