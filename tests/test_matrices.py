"""row_reduce, its inverses and nullspaces, det and the permutation helpers, against sympy."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk.matrices import (ExactMatrix, cycles, modular_inverse, perm_sign,
                                rational_inverse, row_reduce)
from padicdesk.polynomials import nullspace

sympy = pytest.importorskip("sympy")


def _matrices(rows, cols):
    return rows.flatmap(lambda r: cols.flatmap(lambda c: st.lists(
        st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=r, max_size=r)))


def _square_matrices():
    return st.integers(1, 4).flatmap(lambda n: _matrices(st.just(n), st.just(n)))


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])


def test_row_reduce_examples():
    assert row_reduce([[2, 4, 6], [1, 2, 4]]) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
    # mod 9 the pivot of column 0 is the first unit, not the first nonzero entry
    assert row_reduce([[3, 1], [1, 0]], 9) == ([[1, 0], [0, 1]], [0, 1])
    # a column with no unit mod 9 is skipped
    assert row_reduce([[3, 1], [6, 2]], 9) == ([[3, 1], [0, 0]], [1])
    assert row_reduce([]) == ([], [])
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_inverses_reject_singular_and_non_unit_matrices():
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        rational_inverse(ExactMatrix([[1, 2], [2, 4]]))
    with pytest.raises(ZeroDivisionError, match="no unit pivot mod modulus"):
        modular_inverse(ExactMatrix([[3, 0], [0, 1]]), 9)


@given(_matrices(st.integers(1, 4), st.integers(1, 5)))
@settings(max_examples=80, deadline=None)
def test_rref_rank_and_nullspace_match_sympy(rows):
    ref = sympy.Matrix(rows)
    reduced, pivots = row_reduce(rows)
    ref_rref, ref_pivots = ref.rref()
    assert _to_sympy(reduced) == ref_rref
    assert tuple(pivots) == ref_pivots
    assert len(pivots) == ref.rank()
    basis = nullspace(rows, len(rows[0]))
    ref_basis = ref.nullspace()
    assert len(basis) == len(ref_basis)
    if basis:
        ours = _to_sympy(basis)
        assert (ref * ours.T).is_zero_matrix
        both = sympy.Matrix.vstack(ours, *[v.T for v in ref_basis])
        assert both.rank() == ours.rank() == len(basis)


@given(_square_matrices())
@settings(max_examples=80, deadline=None)
def test_rational_inverse_matches_sympy(rows):
    ref = sympy.Matrix(rows)
    if ref.det() == 0:
        with pytest.raises(ZeroDivisionError):
            rational_inverse(ExactMatrix(rows))
    else:
        assert _to_sympy(rational_inverse(ExactMatrix(rows)).rows) == ref.inv()


@given(_square_matrices(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_modular_inverse_matches_sympy(rows, k):
    modulus = 3 ** k
    ref = sympy.Matrix(rows)
    if ref.det() % 3 == 0:
        with pytest.raises(ZeroDivisionError):
            modular_inverse(ExactMatrix(rows), modulus)
    else:
        inv = modular_inverse(ExactMatrix(rows), modulus).rows
        assert sympy.Matrix(inv) == ref.inv_mod(modulus).applyfunc(lambda x: x % modulus)
        assert all(isinstance(x, int) and 0 <= x < modulus for r in inv for x in r)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
    st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_det_matches_sympy(rows):
    assert ExactMatrix(rows).det() == _to_sympy(rows).det()


def test_perm_sign_and_cycles_match_sympy():
    from sympy.combinatorics import Permutation

    for n in range(1, 7):
        for perm in permutations(range(n)):
            ref = Permutation(list(perm))
            assert perm_sign(perm) == ref.signature()
            # the sign reads only the relative order, so 1-based lists agree
            assert perm_sign([x + 1 for x in perm]) == ref.signature()
            assert cycles(perm) == ref.full_cyclic_form
