"""The echelon over Q and its inverses and nullspaces, row_reduce mod m, det and the
permutation helpers, against sympy."""

import ast
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicdesk
from padicdesk.artinian import ArtinianElement
from padicdesk.matrices import (ExactMatrix, SparseEchelon, cycles, modular_inverse,
                                perm_sign, rational_inverse, row_reduce, signed_permutations)
from padicdesk.polynomials import nullspace

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _matrices(rows, cols):
    return rows.flatmap(lambda r: cols.flatmap(lambda c: st.lists(
        st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=r, max_size=r)))


def _square_matrices():
    return st.integers(1, 4).flatmap(lambda n: _matrices(st.just(n), st.just(n)))


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])


def test_row_reduce_examples():
    # mod 9 the pivot of column 0 is the first unit, not the first nonzero entry
    assert row_reduce([[3, 1], [1, 0]], 9) == ([[1, 0], [0, 1]], [0, 1])
    # a column with no unit mod 9 is skipped
    assert row_reduce([[3, 1], [6, 2]], 9) == ([[3, 1], [0, 0]], [1])
    assert row_reduce([], 9) == ([], [])
    assert nullspace([[2, 4, 6], [1, 2, 4]], 3) == [[-2, 1, 0]]
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_echelon_stores_independent_vectors_and_reads_coordinates():
    def fractions(coords_den):
        coords, den = coords_den
        assert den > 0 and all(isinstance(c, int) for c in coords.values())
        return {t: Fraction(c, den) for t, c in coords.items()}

    ech = SparseEchelon()
    assert ech.add({0: 2, 1: 4}, 0) is None
    assert ech.add({1: 3, 2: 1}, 1) is None
    # v2 = v0 / 2 + v1: the relation -2 v0 - 4 v1 + 4 v2 = 0, positive at the new tag
    assert ech.add({0: 1, 1: 5, 2: 1}, 2) == {~0: -2, ~1: -4, ~2: 4}
    assert fractions(ech.coordinates({0: 2, 1: 7, 2: 1})) == {0: 1, 1: 1}
    assert fractions(ech.coordinates({0: 1, 1: 2})) == {0: Fraction(1, 2)}
    assert fractions(ech.coordinates({})) == {}
    with pytest.raises(ValueError, match="not in the span"):
        ech.coordinates({0: 1})


def test_inverses_reject_singular_and_non_unit_matrices():
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        rational_inverse(ExactMatrix([[1, 2], [2, 4]]))
    with pytest.raises(ZeroDivisionError, match="no unit pivot mod modulus"):
        modular_inverse(ExactMatrix([[3, 0], [0, 1]]), 9)


@given(_matrices(st.integers(1, 4), st.integers(1, 5)))
@settings(max_examples=80, deadline=None)
def test_rank_and_nullspace_match_sympy(rows):
    ref = sympy.Matrix(rows)
    ech = SparseEchelon()
    rank = sum(ech.add(dict(enumerate(row)), i) is None for i, row in enumerate(rows))
    assert rank == ref.rank()
    basis = nullspace(rows, len(rows[0]))
    ref_basis = ref.nullspace()
    # both put a 1 at the free column and 0 at the other free columns
    assert basis == [list(v) for v in ref_basis]
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


def _random_artinian(rnd):
    """A random element of Q[T_1, T_2]/(T_1^2, T_2^2) with every monomial present."""
    return ArtinianElement(2, {mono: Fraction(rnd.randrange(-4, 5), rnd.randrange(1, 4))
                               for mono in (frozenset(), frozenset({0}), frozenset({1}),
                                            frozenset({0, 1}))})


@pytest.mark.parametrize("size", range(1, 7))
def test_signed_permutation_det_matches_sympy(size):
    # the det reads its signs from one table per size; sympy's det is the oracle
    # for int, Fraction and Artinian entries (the latter as polynomials in T_1,
    # T_2, expanded and then cut down mod T_1^2, T_2^2)
    assert signed_permutations(size) is signed_permutations(size)
    assert signed_permutations(size) == tuple((perm, perm_sign(perm))
                                              for perm in permutations(range(size)))
    rnd = random.Random(size)
    ints = [[rnd.randrange(-5, 6) for _ in range(size)] for _ in range(size)]
    det = ExactMatrix(ints).det()
    assert type(det) is int and det == sympy.Matrix(ints).det()
    fracs = [[Fraction(rnd.randrange(-5, 6), rnd.randrange(1, 5)) for _ in range(size)]
             for _ in range(size)]
    assert ExactMatrix(fracs).det() == _to_sympy(fracs).det()
    arts = [[_random_artinian(rnd) for _ in range(size)] for _ in range(size)]
    t = sympy.symbols("t1 t2")
    ring = sympy.QQ[t]
    ref = sympy.Poly(ring.to_sympy(DomainMatrix(
        [[ring.from_sympy(sum(sympy.Rational(c.numerator, c.denominator)
                              * sympy.Mul(*(t[i] for i in mono)) for mono, c in x.terms.items()))
          for x in row] for row in arts], (size, size), ring).det()), *t)
    want = {frozenset(i for i, e in enumerate(exps) if e): Fraction(int(c.p), int(c.q))
            for exps, c in ref.terms() if max(exps) <= 1 and c}
    assert dict(ExactMatrix(arts).det().terms) == want


def test_det_of_empty_or_non_square_matrix_raises():
    with pytest.raises(ValueError, match="empty"):
        ExactMatrix([]).det()
    with pytest.raises(ValueError, match="non-square"):
        ExactMatrix([[1, 2, 3], [4, 5, 6]]).det()


def test_perm_sign_and_cycles_match_sympy():
    from sympy.combinatorics import Permutation

    for n in range(1, 7):
        for perm in permutations(range(n)):
            ref = Permutation(list(perm))
            assert perm_sign(perm) == ref.signature()
            # the sign reads only the relative order, so 1-based lists agree
            assert perm_sign([x + 1 for x in perm]) == ref.signature()
            assert cycles(perm) == ref.full_cyclic_form


def _naive_product(a, b):
    # the triple loop, every term included, starting from the first one
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = a[i][0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _assert_same_entries(got, want):
    assert got == want
    assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]


_entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _product_operands(draw, entry=_entry, zero=Fraction(0)):
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    # zero rows and columns of either operand, the first row and column included
    for m, nrows, ncols in ((a, r, k), (b, k, c)):
        for i in draw(st.sets(st.integers(0, nrows - 1))):
            m[i] = [zero] * ncols
        for j in draw(st.sets(st.integers(0, ncols - 1))):
            for row in m:
                row[j] = zero
    return a, b


@given(_product_operands())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_naive_loop_and_sympy(operands):
    a, b = operands
    got = (ExactMatrix(a) * ExactMatrix(b)).rows
    _assert_same_entries(got, _naive_product(a, b))
    assert sympy.Matrix(got) == _to_sympy(a) * _to_sympy(b)


_ARTINIAN_ZERO = ArtinianElement(3, {})
_artinian_entry = st.one_of(st.just(_ARTINIAN_ZERO), st.dictionaries(
    st.frozensets(st.integers(0, 2)), st.fractions(-3, 3, max_denominator=4),
    max_size=3).map(lambda t: ArtinianElement(3, t)))


@given(_product_operands(_artinian_entry, _ARTINIAN_ZERO))
@settings(max_examples=150, deadline=None)
def test_matmul_artinian_entries_match_naive_loop(operands):
    a, b = operands
    _assert_same_entries((ExactMatrix(a) * ExactMatrix(b)).rows, _naive_product(a, b))


def test_matmul_empty_shapes():
    # no rows, or an empty inner dimension: the rows there are, with no entries
    assert (ExactMatrix([]) * ExactMatrix([])).rows == []
    assert (ExactMatrix([[], []]) * ExactMatrix([])).rows == [[], []]
    with pytest.raises(ValueError, match="shape mismatch"):
        ExactMatrix([]) * ExactMatrix([[Fraction(1)]])


def _ring_cases():
    from padicdesk.cyclotomic import CyclotomicElement
    from padicdesk.polynomials import Poly
    from padicdesk.uea import UEAElement

    x, y = Poly.variable(0), Poly.variable(1)
    t1, t2, t3 = (ArtinianElement.gen(3, i) for i in range(3))
    z = CyclotomicElement.zeta(12)
    e12, e21 = UEAElement.generator(0, 1, 2), UEAElement.generator(0, 2, 1)
    return {
        "poly": ([[x, Poly(), y + Poly.constant(2)], [Poly(), x * y, Poly.constant(-1)]],
                 [[y, Poly()], [Poly.constant(3), x], [x + y, Poly()]]),
        "artinian": ([[t1, ArtinianElement(3, {}), t2 + t3],
                      [ArtinianElement.constant(3, Fraction(1, 2)), t1 * t2, t3]],
                     [[t3, ArtinianElement(3, {})], [t1, t2], [ArtinianElement.constant(3, 2), t1]]),
        "cyclotomic": ([[z, CyclotomicElement.from_rational(0, 12), z * z + 1],
                        [CyclotomicElement.from_rational(Fraction(2, 3), 12), z ** 3, z]],
                       [[z, z * z], [CyclotomicElement.from_rational(0, 12), z], [z + 2, z]]),
        "uea": ([[e12, UEAElement(), e21 + UEAElement.one()], [UEAElement(), e12 * e21, e21]],
                [[e21, UEAElement.one()], [e12, UEAElement()], [UEAElement.one(), e12]]),
    }


@pytest.mark.parametrize("ring", ["poly", "artinian", "cyclotomic", "uea"])
def test_matmul_ring_entries_match_naive_loop(ring):
    a, b = _ring_cases()[ring]
    _assert_same_entries((ExactMatrix(a) * ExactMatrix(b)).rows, _naive_product(a, b))
    # rational left entries, zeros in every column, against ring entries on the right
    left = [[Fraction(0), 2, Fraction(0)], [Fraction(1, 2), Fraction(0), 0]]
    _assert_same_entries((ExactMatrix(left) * ExactMatrix(b)).rows, _naive_product(left, b))


def test_ring_zeros_are_falsy():
    from padicdesk.cyclotomic import CyclotomicElement
    from padicdesk.interp import HalfPowerValue
    from padicdesk.polynomials import Poly
    from padicdesk.rationals import RingOps
    from padicdesk.uea import UEAElement

    t = ArtinianElement.gen(2, 0)
    z = CyclotomicElement.zeta(12)
    h = HalfPowerValue.p_power(3, 1)
    x = Poly.variable(0)
    e = UEAElement.generator(0, 1, 2)
    pairs = [(ArtinianElement(2, {}), t), (t * t, t + 1), (CyclotomicElement.from_rational(0, 12), z),
             (z - z, z + 1), (HalfPowerValue(3, 0), h), (h * 0, h), (Poly(), x), (x - x, x * x),
             (UEAElement(), e), (e - e, UEAElement.one())]
    # every ring in the package, a zero and a nonzero element of each
    assert {type(a) for a, _ in pairs} == set(RingOps.__subclasses__())
    for zero, nonzero in pairs:
        assert zero.is_zero() and not nonzero.is_zero()
        assert bool(zero) is False and bool(nonzero) is True


def _writes_into_rows(tree) -> list:
    """Line numbers of the assignments into `<expr>.rows[i][j]` in a module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Subscript)
                        and isinstance(sub.value.value, ast.Attribute)
                        and sub.value.value.attr == "rows"):
                    lines.append(node.lineno)
    return lines


def test_only_matrices_writes_into_matrix_rows():
    # every explicit matrix outside matrices.py is built from its entries
    # (`ExactMatrix.sparse` or plain rows), never written into afterwards
    assert _writes_into_rows(ast.parse("m.rows[0][1] = 1\na, m.rows[i][j] = 1, 2\n"
                                       "m.rows[i][j] += 1\nx = m.rows[0][1]")) == [1, 2, 3]
    writes = {path.name: _writes_into_rows(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(Path(padicdesk.__file__).resolve().parent.glob("*.py"))
              if path.name != "matrices.py"}
    assert {name: lines for name, lines in writes.items() if lines} == {}
