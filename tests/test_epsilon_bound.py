"""The epsilon-bound exponent tables of tate.epsilon_action_bound against sympy and
against a reference recurrence over Fraction rows."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk import tate
from padicdesk.artinian import ArtinianElement, derivation_from_images
from padicdesk.matrices import ExactMatrix
from padicdesk.rationals import INF, valuation

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


def _fraction_recurrence(T, eps, K, p) -> dict:
    """The exponent table by the recurrence binom(T, k) = binom(T, k-1) (T - (k-1)) / k
    over sparse rows {col: Fraction}, with no common denominator taken out."""
    eps = Fraction(eps)
    t_rows = [{j: e for j, e in enumerate(row) if e} for row in T.rows]
    fk = [{i: Fraction(1)} for i in range(T.nrows)]
    exps = []
    for k in range(K + 1):
        if k:
            nxt = []
            for row in fk:
                out = {}
                for j, c in row.items():
                    for col, t in t_rows[j].items():
                        out[col] = out.get(col, 0) + c * t
                    out[j] = out.get(j, 0) - (k - 1) * c
                nxt.append({col: x / k for col, x in out.items() if x})
            fk = nxt
        v = min((valuation(c, p) for row in fk for c in row.values()), default=INF)
        exps.append(-INF if v == INF else -k * eps - v)
    tail = next((k for k in range(K + 1) if all(e == -INF or e < 0 for e in exps[k:])), None)
    return {"exponents": exps, "eventually_below_target_from": tail, "passed": tail is not None}


def _seeded_operators(p):
    rnd = random.Random(p)
    for n in (1, 2, 3, 5, 7):
        for dens in ((1, p), (1, 2 * p, p * p), (1, 2, 5 if p != 5 else 7)):
            rows = [[Fraction(rnd.randrange(-9, 10), rnd.choice(dens))
                     if rnd.random() < 0.4 else Fraction(0) for _ in range(n)]
                    for _ in range(n)]
            rows[rnd.randrange(n)] = [Fraction(0)] * n  # a zero row
            yield ExactMatrix(rows)
    yield ExactMatrix([[Fraction(0)] * 3 for _ in range(3)])
    der = tate.ShiftDerivation(derivation_from_images([ArtinianElement.constant(1, 1)]),
                               Fraction(1))
    yield tate.derivation_matrix(der, 1, 6)[0]
    for n in range(6):
        yield tate.shift_matrix(4, p) + tate.cyclic_shift_matrix(4, 1).scale(Fraction(p) ** n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_integer_recurrence_matches_the_fraction_recurrence(p):
    for T in _seeded_operators(p):
        for eps in (Fraction(0), Fraction(1, 2), Fraction(2, 3)):
            for K in (0, 1, 4, 9):
                assert (tate.epsilon_action_bound(T, eps, K, p)
                        == _fraction_recurrence(T, eps, K, p))
