import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicdesk.glrep import (GLBlockModel, WeightData, _alternant, _minor_poly,
                             cone_decompose, cone_reconstruct, generator_weights, is_dominant,
                             pieri_character_check, pieri_decompose,
                             weyl_dimension)
from padicdesk.matrices import ExactMatrix, rational_inverse
from padicdesk.polynomials import Poly


def test_weyl_dimensions():
    assert weyl_dimension((0, 0)) == 1
    assert weyl_dimension((1, 0)) == 2
    assert weyl_dimension((1, -2, -2)) == 10
    assert weyl_dimension((1, 1, 0, 0)) == 6


def test_block_model_trivial_and_standard():
    m0 = GLBlockModel(3, (0, 0, 0))
    assert m0.dimension == 1 and m0.basis[0] == Poly.constant(1)
    m1 = GLBlockModel(2, (1, 0))
    assert m1.dimension == 2
    g = ExactMatrix([[Fraction(2), Fraction(3)], [Fraction(5), Fraction(7)]])
    # lowest-weight vector evaluates to g_11/det
    assert m1.evaluate(m1.basis[0], g) == Fraction(2) / g.det()
    # with int entries det = -1 is an int, and int ** -1 would be a float
    value = m1.evaluate(m1.basis[0], ExactMatrix([[2, 3], [5, 7]]))
    assert type(value) is Fraction and value == -2


def test_block_model_dimension_certification():
    for weight in [(1, -2, -2), (2, 0, -1), (1, 1, 0, 0)]:
        model = GLBlockModel(len(weight), weight)
        assert model.dimension == weyl_dimension(weight) == len(model.basis)


def test_block_model_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        GLBlockModel(4, (6, 2, -2, -6), dim_cap=50)


def test_block_model_rejects_non_dominant():
    with pytest.raises(ValueError, match="dominant"):
        GLBlockModel(2, (0, 1))


def test_group_action_matches_translation():
    rnd = random.Random(0)
    model = GLBlockModel(3, (1, -2, -2))
    h = ExactMatrix([[Fraction(1), Fraction(2), Fraction(0)],
                     [Fraction(0), Fraction(1), Fraction(3)],
                     [Fraction(1), Fraction(0), Fraction(1)]])
    for f in model.basis[:4]:
        g = ExactMatrix([[Fraction(rnd.randrange(1, 5)) for _ in range(3)] for _ in range(3)])
        lhs = model.evaluate(model.group_action(h, f), g, with_twist=False)
        rhs = model.evaluate(f, rational_inverse(h) * g, with_twist=False)
        assert lhs == rhs


def test_lie_action_weights():
    model = GLBlockModel(3, (1, -2, -2))
    for idx in range(model.dimension):
        f = model.basis[idx]
        w = model.weights[idx]
        for (a, b) in [(0, 1), (1, 2), (0, 2)]:
            g = model.lie_action(a, b, f)
            if g.is_zero():
                continue
            coords = model.expand(g)
            target = tuple(w[i] + (1 if i == a else 0) - (1 if i == b else 0)
                           for i in range(3))
            for i, c in coords.items():
                if c:
                    assert model.weights[i] == target


def _reference_lie_action(m, a, b, f):
    """-sum_s x_(b,s) * df/dx_(a,s), from Poly derivatives and products."""
    out = Poly()
    for s in range(m):
        out = out - Poly.variable(b * m + s) * f.diff(a * m + s)
    return out


@st.composite
def _polarization_case(draw):
    m = draw(st.integers(1, 4))
    a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    coeff = st.one_of(st.integers(-5, 5).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=7))
    mono = st.dictionaries(st.integers(0, m * m - 1), st.integers(1, 3), max_size=4)
    terms = draw(st.lists(st.tuples(mono, coeff), max_size=6))
    f = Poly({tuple(d.items()): c for d, c in terms})
    if a != b and draw(st.booleans()):
        # a factor that E_(a,b) kills, so the image has terms that cancel
        s, t = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        x = Poly.variable
        f = f * (x(a * m + s) * x(b * m + t) - x(a * m + t) * x(b * m + s))
    return m, a, b, f


@given(_polarization_case())
@settings(max_examples=300, deadline=None)
def test_lie_action_matches_derivative_oracle(case):
    m, a, b, f = case
    got = GLBlockModel(m, (0,) * m).lie_action(a, b, f)
    assert got == _reference_lie_action(m, a, b, f)
    assert all(type(c) is Fraction and c for c in got.terms.values())


def test_lie_action_drops_cancelled_terms():
    # E_(0,1) kills the minor x_(0,0) x_(1,1) - x_(0,1) x_(1,0) term by term
    model = GLBlockModel(2, (0, 0))
    minor = _minor_poly(2, 2, trailing=False)
    assert model.lie_action(0, 1, minor).terms == {}
    assert model.lie_action(0, 0, minor) == minor * -1


def test_block_models_share_one_closure_per_shifted_weight():
    low, high = GLBlockModel(3, (2, 1, 0)), GLBlockModel(3, (5, 4, 3))
    assert isinstance(low.basis, tuple) and low.basis is high.basis
    assert high.shift - low.shift == 3
    for idx in range(low.dimension):
        assert [h - l for h, l in zip(high.true_weight(idx), low.true_weight(idx))] == [3] * 3
    assert GLBlockModel(3, (2, 1, 0), "lower").basis is not low.basis


def test_block_model_checks_run_on_a_cache_hit(monkeypatch):
    import padicdesk.glrep as glrep

    weight = (2, 0, -1)
    GLBlockModel(3, weight)
    with pytest.raises(ValueError, match="cap"):
        GLBlockModel(3, weight, dim_cap=weyl_dimension(weight) - 1)
    with pytest.raises(ValueError, match="convention"):
        GLBlockModel(3, weight, convention="middle")
    with pytest.raises(ValueError, match="dominant"):
        GLBlockModel(3, (4, 3, 5))
    true_dimension = glrep.weyl_dimension
    monkeypatch.setattr(glrep, "weyl_dimension", lambda w: true_dimension(w) + 1)
    hits = glrep._span_closure.cache_info().hits
    with pytest.raises(ArithmeticError, match="Weyl dimension"):
        GLBlockModel(3, weight)
    assert glrep._span_closure.cache_info().hits == hits + 1


def test_weight_data_cone():
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    assert wd.in_cone() and wd.w == -1
    bad = WeightData(2, 1, 0, [[3, 2, 0, -3]], [0])
    assert "kappa_(n+1" in bad.cone_violation()
    bad2 = WeightData(2, 1, 0, [[3, 2, -2, -3]], [2])
    assert "j_tau0" in bad2.cone_violation()
    bad3 = WeightData(2, 2, 0, [[3, 2, -2, -3], [1, 0, 0, 0]], [0, 0])
    assert "component 1" in bad3.cone_violation()


def test_cone_decompose_spec_instance():
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    co = cone_decompose(wd)
    assert co["mu0"] == 0
    assert co["muw"] == 1
    assert co[("mu", 1, 0)] == 3
    assert co[("mu", 2, 0)] == 0
    assert co[("mu", 3, 0)] == 1
    assert co[("b", 0)] == 1
    back = cone_reconstruct(2, 1, co)
    assert (back.kappa0, back.kappa, back.j) == (wd.kappa0, wd.kappa, wd.j)


def test_cone_decompose_zero_weight():
    wd = WeightData(2, 1, 0, [[0, 0, 0, 0]], [0])
    assert all(v == 0 for v in cone_decompose(wd).values())


def test_cone_decompose_off_cone_error():
    wd = WeightData(2, 1, 0, [[3, 2, 0, -3]], [0])
    with pytest.raises(ValueError, match="not in the weight cone"):
        cone_decompose(wd)


def test_cone_roundtrip_random():
    from padicdesk.suites import _random_cone_weight

    rnd = random.Random(17)
    for _ in range(500):
        n = rnd.choice((2, 3))
        d = rnd.choice((1, 2))
        wd = _random_cone_weight(n, d, rnd)
        back = cone_reconstruct(n, d, cone_decompose(wd))
        assert (back.kappa0, back.kappa, back.j) == (wd.kappa0, wd.kappa, wd.j)


def test_generator_weights_in_cone():
    for (n, d) in [(2, 1), (2, 2), (3, 1)]:
        for key, wd in generator_weights(n, d).items():
            assert wd.in_cone(), (key, wd.cone_violation())


def test_pieri_examples():
    assert pieri_decompose((2, 0), 0) == [(2, 0)]
    assert set(pieri_decompose((2, 0), 1)) == {(1, 0), (2, -1)}
    assert set(pieri_decompose((1, 1, 0), 1)) == {(1, 0, 0), (1, 1, -1)}
    for kp in pieri_decompose((3, 1, 0, -1), 2):
        assert is_dominant(kp)
    with pytest.raises(ValueError):
        pieri_decompose((0, 1), 1)


def test_pieri_character_identity():
    for (kappa, j) in [((2, 0), 1), ((2, 1, 0), 2), ((1, 1, 0), 1),
                       ((3, 1, 0, -1), 2), ((2, 2, 1, 0), 3)]:
        assert pieri_character_check(kappa, j)


def test_weight_data_serialization():
    wd = WeightData(2, 2, 1, [[3, 2, -2, -3], [1, 1, -1, -1]], [1, 0])
    data = wd.to_json()
    back = WeightData.from_json(data)
    assert (back.n, back.d, back.kappa0, back.kappa, back.j) == \
        (wd.n, wd.d, wd.kappa0, wd.kappa, wd.j)


def _poly_to_sympy(poly, xs, sympy):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[xs[v] ** e for v, e in mono])
                       for mono, c in poly.terms.items()])


def test_minor_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(1, 6):
        xs = sympy.symbols(f"x0:{m * m}")
        generic = sympy.Matrix(m, m, xs)
        for size in range(1, m + 1):
            for trailing in (False, True):
                idx = list(range(m - size, m)) if trailing else list(range(size))
                ref = generic.extract(idx, idx).det(method="berkowitz")
                ours = _poly_to_sympy(_minor_poly(m, size, trailing), xs, sympy)
                assert sympy.expand(ours - ref) == 0


def test_alternant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for weight in [(0,), (2, -1), (3, 1, 0, -1), (0, 0, -2), (1, 1, 0)]:
        m = len(weight)
        xs = sympy.symbols(f"x0:{m}")
        ref = sympy.Matrix(m, m, lambda i, j: xs[i] ** (weight[j] + m - 1 - j)).det()
        assert sympy.expand(_poly_to_sympy(_alternant(weight), xs, sympy) - ref) == 0
