import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicdesk
from padicdesk.glrep import (GLBlockModel, WeightData, _alternant, _field_width, _fields,
                             _minor, _polarize, _span_closure, cone_decompose,
                             cone_reconstruct, generator_weights, is_dominant,
                             pieri_character_check, pieri_decompose, weyl_dimension)
from padicdesk.matrices import ExactMatrix, rational_inverse
from padicdesk.polynomials import Poly
from poly_oracle import basis, coordinates, evaluate, lie_action, pack, unpack


def test_weyl_dimensions():
    assert weyl_dimension((0, 0)) == 1
    assert weyl_dimension((1, 0)) == 2
    assert weyl_dimension((1, -2, -2)) == 10
    assert weyl_dimension((1, 1, 0, 0)) == 6


def test_block_model_trivial_and_standard():
    m0 = GLBlockModel(3, (0, 0, 0))
    assert m0.dimension == 1 and basis(m0)[0] == Poly.constant(1)
    m1 = GLBlockModel(2, (1, 0))
    assert m1.dimension == 2
    g = ExactMatrix([[Fraction(2), Fraction(3)], [Fraction(5), Fraction(7)]])
    # lowest-weight vector evaluates to g_11/det
    assert m1.basis_values(g, [0]) == {0: Fraction(2) / g.det()}
    # with int entries det = -1 is an int, and int ** -1 would be a float
    value = m1.basis_values(ExactMatrix([[2, 3], [5, 7]]), [0])[0]
    assert type(value) is Fraction and value == -2


def test_block_model_dimension_certification():
    for weight in [(1, -2, -2), (2, 0, -1), (1, 1, 0, 0)]:
        model = GLBlockModel(len(weight), weight)
        assert model.dimension == weyl_dimension(weight) == len(basis(model))


def test_block_model_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        GLBlockModel(4, (6, 2, -2, -6), dim_cap=50)


def test_block_model_rejects_non_dominant():
    with pytest.raises(ValueError, match="dominant"):
        GLBlockModel(2, (0, 1))


def _group_action_oracle(m, h, f):
    """(h . f)(g) = f(h^-1 g), substituting x_(i,j) -> sum_k (h^-1)_(i,k) x_(k,j) in Poly."""
    inv = rational_inverse(h)
    total = Poly()
    for mono, c in f.terms.items():
        term = Poly.constant(c)
        for v, e in mono:
            i, j = divmod(v, m)
            form = sum((Poly.variable(k * m + j) * inv.rows[i][k] for k in range(m)), Poly())
            term = term * form ** e
        total = total + term
    return total


def test_group_action_matches_translation():
    rnd = random.Random(0)
    model = GLBlockModel(3, (1, -2, -2))
    h = ExactMatrix([[Fraction(1), Fraction(2), Fraction(0)],
                     [Fraction(0), Fraction(1), Fraction(3)],
                     [Fraction(1), Fraction(0), Fraction(1)]])
    polys = basis(model)
    for idx in range(4):
        image = sum((polys[i] * c for i, c in model.basis_group_action(h, idx).items()), Poly())
        g = ExactMatrix([[Fraction(rnd.randrange(1, 5)) for _ in range(3)] for _ in range(3)])
        moved = rational_inverse(h) * g
        want = evaluate(model, polys[idx], moved, with_twist=False)
        assert evaluate(model, image, g, with_twist=False) == want
        assert model.basis_values(moved, [idx], with_twist=False) == {idx: want}


def test_lie_action_weights():
    # basis_word_action against Poly.diff images read off by Fraction row
    # reduction; every image of a weight vector has the moved weight
    for m, weight, convention in [(3, (1, -2, -2), "upper"), (3, (2, 0, -1), "lower"),
                                  (4, (1, 1, 0, 0), "upper")]:
        model = GLBlockModel(m, weight, convention)
        polys = basis(model)
        letters = [(a, b) for a in range(m) for b in range(m)]
        for idx in range(model.dimension):
            w = model.weights[idx]
            for (a, b) in letters:
                coords = model.basis_word_action([(a, b)], idx)
                assert coords == coordinates(model, lie_action(m, a, b, polys[idx]))
                target = tuple(w[i] + (i == a) - (i == b) for i in range(m))
                assert all(model.weights[i] == target for i in coords)
            (a, b), (c, d) = letters[idx % len(letters)], letters[-1 - idx % len(letters)]
            want = coordinates(model, lie_action(m, a, b, lie_action(m, c, d, polys[idx])))
            assert model.basis_word_action([(a, b), (c, d)], idx) == want


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
    # _polarize on any packed polynomial, Fraction coefficients included
    m, a, b, f = case
    width = _field_width(f.degree())
    got = _polarize(m, a, b, pack(f, width), width)
    assert all(got.values())
    assert unpack(got, width) == lie_action(m, a, b, f)


@given(_polarization_case(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_word_action_matches_composed_derivative_oracle(case, c, d):
    m, a, b, f = case
    c, d = c % m, d % m
    width = _field_width(f.degree())
    got = _polarize(m, a, b, _polarize(m, c, d, pack(f, width), width), width)
    assert all(got.values())
    assert unpack(got, width) == lie_action(m, a, b, lie_action(m, c, d, f))


@pytest.mark.parametrize("m, weight, convention", [
    (3, (1, -2, -2), "upper"), (3, (2, 0, -1), "lower"), (4, (1, 1, 0, 0), "upper")])
def test_expand_recovers_combinations_and_group_images(m, weight, convention):
    # the echelon's coordinates of packed combinations over a denominator, and
    # basis_group_action against Poly substitution read off by row reduction
    rnd = random.Random(sum(weight) + m)
    model = GLBlockModel(m, weight, convention)
    closure = model._closure
    for rational in (False, True):
        for _ in range(5):
            coords = {}
            for i in rnd.sample(range(model.dimension), min(4, model.dimension)):
                c = Fraction(rnd.randrange(-9, 10), rnd.randrange(1, 8) if rational else 1)
                if c:
                    coords[i] = c
            den = lcm(*(c.denominator for c in coords.values()))
            vec = {}
            for i, c in coords.items():
                for key, x in closure.packed[i].items():
                    vec[key] = vec.get(key, 0) + int(c * den) * x
            assert closure.coordinates(vec, den) == coords
    h = ExactMatrix([[Fraction(rnd.randrange(-2, 3)) + (i == j) for j in range(m)]
                     for i in range(m)])
    h.rows[0][m - 1] = Fraction(1, 3)
    polys = basis(model)
    for idx in range(0, model.dimension, 3):
        got = model.basis_group_action(h, idx)
        assert got == coordinates(model, _group_action_oracle(m, h, polys[idx]))
        assert all(type(c) is Fraction for c in got.values())


def test_echelon_rows_are_content_free_positive_and_reduced():
    from math import gcd

    rows = _span_closure(3, (0, -3, -3), "upper").echelon.rows
    for piv, row in rows.items():
        assert piv == max(row) and row[piv] > 0 and gcd(*row.values()) == 1
        assert all(isinstance(c, int) for c in row.values())
        assert all(piv not in other for p, other in rows.items() if p != piv)


def test_rational_evaluation_matches_fraction_path():
    rnd = random.Random(5)
    for weight in [(1, -2, -2), (-1, -2, -4), (2, 0, -1)]:
        model = GLBlockModel(3, weight)
        for _ in range(4):
            ints = [[rnd.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
            ints[0][0] = 7 * ints[1][1] * ints[2][2] + 1  # keeps det away from 0 often
            if ExactMatrix(ints).det() == 0:
                continue
            points = [ExactMatrix(ints), ExactMatrix([[Fraction(x) for x in r] for r in ints]),
                      ExactMatrix([[Fraction(x, 2) for x in r] for r in ints]),
                      ExactMatrix([[Fraction(x, i + 2 * j + 1) for j, x in enumerate(r)]
                                   for i, r in enumerate(ints)])]
            for g in points:
                for twist in (True, False):
                    values = model.basis_values(g, range(model.dimension), twist)
                    for idx, f in enumerate(basis(model)):
                        got = values[idx]
                        assert got == evaluate(model, f, g, twist) and type(got) is Fraction


def test_ring_element_evaluation_matches_rational_specialization():
    # a point with Poly entries g0 + t E goes through Poly.eval; setting
    # t = 3 afterwards gives the value at the rational point g0 + 3 E
    g0 = [[2, 1, 0], [Fraction(1, 2), 3, 1], [0, -1, 5]]
    t = Poly.variable(100)
    ring_g = ExactMatrix([[t + Poly.constant(x) if (i, j) == (0, 2) else Poly.constant(x)
                           for j, x in enumerate(row)] for i, row in enumerate(g0)])
    rational_g = ExactMatrix([[x + 3 if (i, j) == (0, 2) else Fraction(x)
                               for j, x in enumerate(row)] for i, row in enumerate(g0)])
    for weight in [(0, -1, -3), (-1, -2, -4)]:  # shift <= 0: the twist multiplies
        model = GLBlockModel(3, weight)
        ring_values = model.basis_values(ring_g, range(model.dimension))
        for idx, f in enumerate(basis(model)):
            got = ring_values[idx]
            assert type(got) is Poly
            assert got.eval({100: Fraction(3)}) == evaluate(model, f, rational_g)


def test_lie_action_drops_cancelled_terms():
    # E_(0,1) kills the minor x_(0,0) x_(1,1) - x_(0,1) x_(1,0) term by term
    minor = _minor(2, 2, False, 2)
    assert _polarize(2, 0, 1, minor, 2) == {}
    assert _polarize(2, 0, 0, minor, 2) == {key: -c for key, c in minor.items()}


def test_block_models_share_one_closure_per_shifted_weight():
    low, high = GLBlockModel(3, (2, 1, 0)), GLBlockModel(3, (5, 4, 3))
    assert low._closure is high._closure
    assert high.shift - low.shift == 3
    for idx in range(low.dimension):
        assert [h - l for h, l in zip(high.true_weight(idx), low.true_weight(idx))] == [3] * 3
    assert GLBlockModel(3, (2, 1, 0), "lower")._closure is not low._closure


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


_PIERI_CASES = [((2, 0), 1), ((2, 1, 0), 2), ((1, 1, 0), 1), ((3, 1, 0, -1), 2),
                ((2, 2, 1, 0), 3), ((0, -1, -3), 2), ((-2, -2), 3)]


def test_pieri_character_identity():
    for (kappa, j) in _PIERI_CASES:
        assert pieri_character_check(kappa, j)


def test_pieri_character_check_fails_without_a_constituent(monkeypatch):
    import padicdesk.glrep as glrep

    true_decompose = glrep.pieri_decompose
    for drop in (0, -1):
        def without_one(kappa, j, drop=drop):
            constituents = true_decompose(kappa, j)
            del constituents[drop]
            return constituents

        monkeypatch.setattr(glrep, "pieri_decompose", without_one)
        for (kappa, j) in _PIERI_CASES:
            assert not pieri_character_check(kappa, j), (kappa, j, drop)


def test_weight_data_serialization():
    wd = WeightData(2, 2, 1, [[3, 2, -2, -3], [1, 1, -1, -1]], [1, 0])
    data = wd.to_json()
    back = WeightData.from_json(data)
    assert (back.n, back.d, back.kappa0, back.kappa, back.j) == \
        (wd.n, wd.d, wd.kappa0, wd.kappa, wd.j)


def _packed_to_sympy(vec, width, xs, sympy):
    return sympy.Add(*[c * sympy.Mul(*[xs[v] ** e for v, e in _fields(key, width)])
                       for key, c in vec.items()])


def test_minor_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(1, 6):
        xs = sympy.symbols(f"x0:{m * m}")
        generic = sympy.Matrix(m, m, xs)
        for size in range(1, m + 1):
            for trailing in (False, True):
                idx = list(range(m - size, m)) if trailing else list(range(size))
                ref = generic.extract(idx, idx).det(method="berkowitz")
                width = _field_width(size)
                ours = _packed_to_sympy(_minor(m, size, trailing, width), width, xs, sympy)
                assert sympy.expand(ours - ref) == 0


def test_alternant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # a Laurent alternant is checked times (x_1...x_m)^s, as pieri_character_check uses it
    for weight in [(0,), (2, -1), (3, 1, 0, -1), (0, 0, -2), (1, 1, 0)]:
        m = len(weight)
        s = max(0, -weight[-1])
        xs = sympy.symbols(f"x0:{m}")
        ref = sympy.Matrix(m, m, lambda i, j: xs[i] ** (weight[j] + m - 1 - j)).det()
        width = _field_width(weight[0] + s + m - 1)
        ours = _packed_to_sympy(_alternant([w + s for w in weight], width), width, xs, sympy)
        assert sympy.expand(ours - sympy.Mul(*xs) ** s * ref) == 0


def test_poly_is_named_only_in_polynomials():
    # the library runs on packed polynomials, so Poly stays an independent oracle
    where = set()
    for path in Path(padicdesk.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # a Name, an Attribute, an imported alias or a definition
            if "Poly" in {getattr(node, k, None) for k in ("id", "attr", "name", "asname")}:
                where.add(path.name)
    assert where == {"polynomials.py"}
