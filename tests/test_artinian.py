"""ArtinianElement ring operations against sympy polynomials truncated by T_i^2 = 0."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicdesk.artinian import ArtinianElement, derivation_from_images

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


_ONE = {frozenset(): Fraction(1)}
_DEN6 = {frozenset(): Fraction(1, 6), frozenset([0]): Fraction(5, 6)}


@given(_operands())
@settings(max_examples=150, deadline=None)
# an operand that is exactly 1, on either side of *
@example((2, _ONE, {frozenset([0]): Fraction(3, 2), frozenset([1]): -2}, Fraction(1)))
@example((3, {frozenset(): 2, frozenset([0, 2]): Fraction(5, 6)}, _ONE, Fraction(-1, 2)))
@example((1, _ONE, _ONE, Fraction(1)))
# equal denominators for -, and x - x
@example((2, _DEN6, {frozenset(): Fraction(7, 6), frozenset([1]): Fraction(-1, 6)}, Fraction(2)))
@example((2, _DEN6, {frozenset(): Fraction(1, 6), frozenset([1]): Fraction(5, 6)}, Fraction(3)))
@example((3, {frozenset(): Fraction(2, 3), frozenset([0, 2]): Fraction(-1, 3)},
          {frozenset(): Fraction(2, 3), frozenset([0, 2]): Fraction(-1, 3)}, Fraction(0)))
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
    if x.constant_term() != 0:
        assert x.inverse() * x == 1


def _element(ngens):
    return st.builds(lambda t: ArtinianElement(ngens, t), _terms(ngens))


@st.composite
def _derivations(draw):
    ngens = draw(st.integers(1, 4))
    images = draw(st.lists(_element(ngens), min_size=ngens, max_size=ngens))
    return ngens, images, draw(_element(ngens))


@given(_derivations())
@settings(max_examples=150, deadline=None)
def test_derivation_matches_truncated_sympy_gradient(case):
    ngens, images, x = case
    gens = sympy.symbols(f"T0:{ngens}")
    ref = sum((_to_sympy(im.terms, gens) * sympy.diff(_to_sympy(x.terms, gens), g)
               for im, g in zip(images, gens)), sympy.Integer(0))
    ours = derivation_from_images(images)(x)
    assert ours.terms == _truncated(sympy.expand(ref), gens)
    assert ours == ArtinianElement(ngens, _truncated(sympy.expand(ref), gens))


def _assert_canonical(x):
    assert x.den > 0 and 0 not in x.nums.values()
    assert gcd(x.den, *x.nums.values()) == 1


def test_equal_elements_share_one_canonical_form():
    T0, T1 = ArtinianElement.gen(2, 0), ArtinianElement.gen(2, 1)
    x = ArtinianElement(2, {frozenset(): Fraction(2, 6), frozenset([0]): Fraction(4, 6),
                            frozenset([0, 1]): 3})
    y = T1 * Fraction(5, 7) + Fraction(1, 7)
    # numerators 2 and 4 share the factor 2 with the denominator 6
    same = ArtinianElement(2, {(): 2, (0,): 4, (1, 0): 18}) * Fraction(1, 6)
    routes = [x, x * Fraction(1, 3) * 3, x + y - y, same, (x * 6) / 6,
              x - T0 * T1 + T0 * T1 * 1, -(-x)]
    for r in routes:
        _assert_canonical(r)
        assert r == x and hash(r) == hash(x)
        assert (r.nums, r.den) == ({0: 1, 1: 2, 3: 9}, 3)
    zero = x - x
    _assert_canonical(zero)
    assert (zero.nums, zero.den) == ({}, 1)
    assert zero == ArtinianElement(2, {}) == 0
    assert hash(zero) == hash(ArtinianElement(2, {(0,): Fraction(1, 5), (0, 1): 0}) * 0)


def test_constants_hash_like_their_rationals():
    for c in (3, Fraction(-5, 6), 0):
        x = ArtinianElement.constant(2, c)
        assert x == c and hash(x) == hash(c) and len({x, c}) == 1
    T0 = ArtinianElement.gen(2, 0)
    assert (T0 + 3) - T0 == 3 and hash((T0 + 3) - T0) == hash(3)


def test_equality_with_scalars_and_across_rings():
    for ngens in (0, 2):
        for c in (3, 0, -1, Fraction(-5, 6)):
            x = ArtinianElement.constant(ngens, c)
            assert x == c and c == x and x == Fraction(c) and not x != c
            assert (not x) == (c == 0)
    T0 = ArtinianElement.gen(2, 0)
    assert T0 and T0 != 0 and T0 != 1 and (T0 + 1) != 1
    assert ArtinianElement.constant(2, Fraction(1, 2)) != 1
    assert T0 != None and T0 != object()  # noqa: E711
    # elements of different rings compare unequal without raising, but mix in no operator
    one2, one3 = ArtinianElement.constant(2, 1), ArtinianElement.constant(3, 1)
    assert one2 != one3 and not one2 == one3
    assert T0 != ArtinianElement.gen(3, 0)
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="mixed Artinian rings"):
            op(one2, one3)
        with pytest.raises(ValueError, match="mixed Artinian rings"):
            op(T0, one3)


def _form(x):
    return x.ngens, x.nums, x.den


@pytest.mark.parametrize("c", [3, -1, 0, Fraction(0), Fraction(-5, 6), Fraction(4, 2), "7/21"])
def test_constant_is_the_constructor_element(c):
    for ngens in (0, 1, 3):
        x = ArtinianElement.constant(ngens, c)
        assert _form(x) == _form(ArtinianElement(ngens, {frozenset(): c}))
        _assert_canonical(x)


def test_gen_is_the_constructor_element():
    for ngens in (1, 2, 4):
        for i in range(ngens):
            x = ArtinianElement.gen(ngens, i)
            assert _form(x) == _form(ArtinianElement(ngens, {frozenset([i]): 1}))
        for i in (-1, ngens, ngens + 3):
            with pytest.raises(ValueError, match="generator index out of range"):
                ArtinianElement.gen(ngens, i)
            with pytest.raises(ValueError, match="generator index out of range"):
                ArtinianElement(ngens, {frozenset([i]): 1})


def _series_inverse(x):
    """The inverse as a geometric series in Fraction arithmetic, one ring
    operation per term: the oracle for the integer series of `inverse`."""
    c = x.constant_term()
    c_inv = 1 / c
    n = (x - c) * c_inv
    out = power = ArtinianElement.constant(x.ngens, 1)
    for _ in range(x.ngens):
        power = power * (-n)
        if power.is_zero():
            break
        out = out + power
    return out * c_inv


_WIDE = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@st.composite
def _inverse_operands(draw):
    ngens = draw(st.integers(0, 5))
    const = draw(_WIDE)
    monos = [frozenset(i for i in range(ngens) if m >> i & 1) for m in range(1, 1 << ngens)]
    if monos and draw(st.booleans()):
        # dense: every nilpotent monomial, its coefficient nonzero
        nil = {m: draw(_WIDE.filter(bool)) for m in monos}
    elif monos:
        nil = draw(st.dictionaries(st.sampled_from(monos), _WIDE, max_size=6))
    else:
        nil = {}
    return ngens, const, nil


@given(_inverse_operands())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_the_fraction_series(operands):
    ngens, const, nil = operands
    x = ArtinianElement(ngens, {frozenset(): const, **nil})
    if const == 0:
        with pytest.raises(ZeroDivisionError, match="not a unit"):
            x.inverse()
        return
    inv = x.inverse()
    _assert_canonical(inv)
    assert _form(inv) == _form(_series_inverse(x))
    assert x * inv == 1 and inv * x == 1
