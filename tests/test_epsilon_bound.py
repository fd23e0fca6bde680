"""The epsilon-bound exponent tables of tate.epsilon_action_bound against sympy."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk import tate
from padicdesk.matrices import ExactMatrix
from padicdesk.rationals import INF

sympy = pytest.importorskip("sympy")


def _reference_exponents(rows, eps, K, p) -> list:
    """-k eps - min v_p over the entries of binom(T, k) = T(T-1)...(T-k+1)/k!."""
    n = len(rows)
    T = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    falling = sympy.eye(n)
    out = []
    for k in range(K + 1):
        entries = [e for e in falling / factorial(k) if e != 0]
        if entries:
            v = min(sympy.multiplicity(p, e) for e in entries)
            out.append(-k * eps - v)
        else:
            out.append(-INF)
        falling = falling * (T - k * sympy.eye(n))
    return out


_ENTRIES = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                     st.fractions(min_value=-30, max_value=30, max_denominator=27))


@st.composite
def _operators(draw):
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    p = draw(st.sampled_from([2, 3, 5]))
    K = draw(st.integers(0, 8))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)]))
    return rows, p, K, eps


@given(_operators())
@settings(max_examples=60, deadline=None)
def test_epsilon_action_bound_matches_sympy(operator):
    rows, p, K, eps = operator
    rep = tate.epsilon_action_bound(ExactMatrix(rows), eps, K, p)
    assert rep["exponents"] == _reference_exponents(rows, eps, K, p)
