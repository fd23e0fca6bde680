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
                             _gt_multiplicities, _minor, _packed_mul, _polarize,
                             _span_closure, cone_decompose, cone_reconstruct,
                             generator_weights, is_dominant, pieri_character_check,
                             pieri_decompose, weyl_dimension)
from padicdesk.matrices import ExactMatrix, SparseEchelon, rational_inverse
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
        if moved.det():  # the det twist of the values is defined at invertible points
            assert model.basis_values(moved, [idx]) == {idx: evaluate(model, polys[idx], moved)}


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
            got, scale = closure.echelon.coordinates(vec)
            assert {k: Fraction(c, scale * den) for k, c in got.items()} == coords
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
                values = model.basis_values(g, range(model.dimension))
                for idx, f in enumerate(basis(model)):
                    got = values[idx]
                    assert got == evaluate(model, f, g) and type(got) is Fraction


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


# -- the span closure against its search without the multiplicity skip -------


def _closure_without_skip(m, shifted, convention):
    """The breadth-first span closure that polarizes every vector by every operator."""
    exps = [shifted[m - 1 - i] - shifted[m - i] for i in range(1, m)]
    width = _field_width(sum(i * e for i, e in enumerate(exps, start=1)))
    seed = {0: 1}
    for i, e in enumerate(exps, start=1):
        for _ in range(e):
            seed = _packed_mul(seed, _minor(m, i, convention == "lower", width))
    if convention == "upper":
        seed_weight = tuple(shifted[m - 1 - i] for i in range(m))
        ops = [(a, b) for a in range(m) for b in range(m) if a < b]
    else:
        seed_weight = shifted
        ops = [(a, b) for a in range(m) for b in range(m) if a > b]
    packed, weights, ech = [], [], SparseEchelon()

    def insert(f, wvec):
        if ech.add(f, len(packed)) is not None:
            return False
        packed.append(f)
        weights.append(wvec)
        return True

    insert(seed, seed_weight)
    frontier = [0]
    while frontier:
        new = []
        for idx in frontier:
            f, wvec = packed[idx], weights[idx]
            for (a, b) in ops:
                g = _polarize(m, a, b, f, width)
                if not g:
                    continue
                nw = tuple(wvec[i] + (1 if i == a else 0) - (1 if i == b else 0)
                           for i in range(m))
                if insert(g, nw):
                    new.append(len(packed) - 1)
        frontier = new
    return tuple(packed), tuple(weights), ech.rows


def _blocks(wd):
    """The (m, block weight) pairs of a branching weight's block models."""
    n = wd.n
    return [(2 * n - 1, tuple(wd.kappa[0][1:]))] + [(2 * n, tuple(r)) for r in wd.kappa[1:]]


# the branching acceptance criterion's 11 weights
_ACCEPTANCE_WEIGHTS = [
    WeightData(2, 1, 0, [[0, 0, 0, 0]], [0]),
    WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]),
    WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]),
    WeightData(2, 1, 0, [[0, 2, -1, -3]], [2]),
    WeightData(2, 1, 0, [[0, 2, -1, -3]], [1]),
    WeightData(2, 1, 1, [[1, 1, -1, -2]], [1]),
    WeightData(2, 1, 0, [[0, 3, -2, -3]], [0]),
    WeightData(2, 1, 0, [[0, 3, -2, -3]], [1]),
    WeightData(2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
    WeightData(3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
    WeightData(3, 1, 2, [[0, 1, 0, 0, 0, -1]], [0]),
]
# one cone weight per shape class of the seeded branch benchmark: the
# GL_(2n-1) block is the class's shape plus an offset, later rows as listed
_SHAPE_CLASS_WEIGHTS = [
    WeightData(2, 1, 0, [[1, 0, 0, 0]], [0]),
    WeightData(2, 1, 0, [[-1, 0, -1, -1]], [0]),
    WeightData(2, 1, 0, [[2, 0, -2, -2]], [0]),
    WeightData(2, 1, 0, [[0, 0, -3, -3]], [0]),
    WeightData(2, 1, 0, [[1, 1, 0, -1]], [1]),
    WeightData(3, 1, 0, [[0, 0, 0, 0, 0, 0]], [0]),
    WeightData(2, 2, 0, [[-2, 0, 0, 0], [0, 0, 0, 0]], [0, 0]),
    WeightData(2, 1, 0, [[0, 0, -4, -4]], [0]),
    WeightData(3, 1, 0, [[1, 0, 0, -1, -1, -1]], [0]),
    WeightData(2, 1, 0, [[0, 1, -1, -2]], [1]),
    WeightData(2, 1, 0, [[2, 2, -1, -2]], [0]),
    WeightData(2, 2, 0, [[0, 0, -2, -2], [1, 1, -1, -1]], [0, 0]),
    WeightData(2, 2, 0, [[1, 0, -1, -1], [1, 1, -1, -1]], [0, 1]),
    WeightData(2, 2, 0, [[0, 0, -3, -3], [1, 0, 0, -1]], [0, 0]),
    WeightData(2, 1, 0, [[-2, 2, -1, -2]], [1]),
]
# the block weights of the rep suite (its branching instances and generator
# family) and of the uea suite's block-determinant eigenlines
_SUITE_BLOCKS = [
    (3, (0, 0, 0)), (3, (2, -2, -2)), (3, (2, -2, -3)), (3, (1, -1, -2)), (3, (2, -1, -3)),
    (3, (1, -1, -1)), (3, (0, -3, -3)), (3, (0, -4, -5)), (3, (0, -3, -5)),
    (4, (1, 1, -1, -1)), (5, (1, 1, 0, -1, -1)),
    (2, (2, -1)), (3, (1, 0, -1)), (4, (1, 1, 0, 0)), (4, (1, 0, 0, -1)), (5, (1, 1, 1, 0, 0)),
]
# the slowest known branch weight: a GL_5 block of dimension 200
_SLOW_WEIGHT = WeightData.from_json(
    {"n": 3, "d": 1, "tau0": 0, "kappa0": 0, "kappa": [[0, 2, 0, 0, 0, -2]], "j": [0]})


def _closure_cases(weights=(*_ACCEPTANCE_WEIGHTS, *_SHAPE_CLASS_WEIGHTS, _SLOW_WEIGHT)):
    blocks = set(_SUITE_BLOCKS)
    for wd in weights:
        assert wd.in_cone(), wd
        blocks.update(_blocks(wd))
    shifted = {(m, tuple(x - w[0] for x in w)) for m, w in blocks}
    return sorted((m, w, c) for m, w in shifted for c in ("upper", "lower"))


@pytest.mark.parametrize("m, shifted, convention", _closure_cases(), ids=str)
def test_span_closure_matches_the_search_without_the_skip(m, shifted, convention):
    closure = _span_closure(m, shifted, convention)
    packed, weights, rows = _closure_without_skip(m, shifted, convention)
    assert closure.packed == packed
    assert closure.weights == weights
    assert closure.echelon.rows == rows


def _tableau_counts(shape, m):
    """{content: count} over the semistandard tableaux of `shape` with entries 0..m-1."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    counts, fill = {}, {}

    def place(k):
        if k == len(cells):
            content = [0] * m
            for v in fill.values():
                content[v] += 1
            counts[tuple(content)] = counts.get(tuple(content), 0) + 1
            return
        r, c = cells[k]
        low = max(fill.get((r, c - 1), 0), fill.get((r - 1, c), -1) + 1)
        for v in range(low, m):
            fill[r, c] = v
            place(k + 1)
        fill.pop((r, c), None)

    place(0)
    return counts


def _dominant_weights(m, spread):
    """Every dominant GL_m weight with first entry 0 and spread <= spread."""
    def rec(prefix):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for x in range(prefix[-1], -spread - 1, -1):
            yield from rec(prefix + [x])
    return list(rec([0]))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gt_multiplicities_match_semistandard_tableaux(m):
    # Kostka numbers counted on tableaux of shape lambda - lambda_m with
    # content mu - lambda_m; no Gelfand-Tsetlin pattern is built here
    for weight in _dominant_weights(m, 3):
        low = weight[-1]
        want = {tuple(x + low for x in content): count
                for content, count in _tableau_counts([x - low for x in weight], m).items()}
        got = _gt_multiplicities(weight)
        assert got == want, weight
        assert sum(got.values()) == weyl_dimension(weight)


@pytest.mark.parametrize("m, shifted, convention", [
    (3, (0, -1, -2), "upper"), (4, (0, -1, -1, -2), "lower")])
def test_span_closure_certifies_every_weight(monkeypatch, m, shifted, convention):
    # one multiplicity one too high and another one too low keep the total,
    # so only the per-weight certificate can see them
    import padicdesk.glrep as glrep

    table = _gt_multiplicities(shifted)
    high = max(table, key=lambda w: (table[w], w))
    low = min(w for w in table if w != high)
    wrong = dict(table)
    wrong[high] += 1
    wrong[low] -= 1
    monkeypatch.setattr(glrep, "_gt_multiplicities", lambda w: dict(wrong))
    with pytest.raises(ArithmeticError, match="Gelfand-Tsetlin multiplicity"):
        _span_closure.__wrapped__(m, shifted, convention)


@pytest.mark.parametrize("m, shifted, polarizations", [
    (5, (0, 0, -1, -2, -2), 100), (5, (0, -2, -2, -2, -4), 300)])
def test_span_closure_polarizes_only_into_unfilled_weight_spaces(monkeypatch, m, shifted,
                                                                 polarizations):
    # without the skip these closures make dim x 10 polarizations: 750 and 2,000
    import padicdesk.glrep as glrep

    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return _polarize(*args)

    monkeypatch.setattr(glrep, "_polarize", counted)
    closure = _span_closure.__wrapped__(m, shifted, "upper")
    assert len(closure.packed) == weyl_dimension(shifted)
    assert len(calls) == polarizations


# -- the tables a closure derives from its basis ------------------------------


@pytest.mark.parametrize("m, shifted, convention",
                         _closure_cases(_ACCEPTANCE_WEIGHTS + _SHAPE_CLASS_WEIGHTS), ids=str)
def test_closure_actions_match_a_fresh_polarization(m, shifted, convention):
    # every E_(a,b) on every basis vector, read from the table, against its
    # polarization solved on the echelon; a changed result leaves the table alone
    closure = _span_closure(m, shifted, convention)
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            for idx, f in enumerate(closure.packed):
                ints, den = closure.echelon.coordinates(_polarize(m, a, b, f, closure.width))
                want = {k: Fraction(c, den) for k, c in ints.items()}
                got = closure.action(a, b, idx)
                assert got == want, (a, b, idx)
                got.clear()
                got[len(closure.packed)] = Fraction(1)
                assert closure.action(a, b, idx) == want


def test_one_letter_words_come_from_the_table_and_longer_words_are_polarized(monkeypatch):
    import padicdesk.glrep as glrep

    model = GLBlockModel(3, (1, -1, -2), "lower")
    fresh = GLBlockModel(3, (4, 2, 1), "lower")  # the same closure
    assert fresh._closure is model._closure
    want = model.basis_word_action([(1, 0)], 0)
    calls = []
    monkeypatch.setattr(glrep, "_polarize", lambda *args: calls.append(args[1:3]) or
                        _polarize(*args))
    got = fresh.basis_word_action([(1, 0)], 0)
    assert got == want and calls == []
    got.clear()
    assert fresh.basis_word_action(((1, 0),), 0) == want
    assert calls == []
    model.basis_word_action([(2, 1), (1, 0)], 0)
    assert calls == [(1, 0), (2, 1)]


def _numerator_by_fields(closure, values, idx):
    """The numerator of basis vector idx at cleared entries `values`, decoding
    each packed monomial with `_fields` on every call."""
    total = 0
    for key, t in closure.packed[idx].items():
        for v, e in _fields(key, closure.width):
            t = t * (values[v] if e == 1 else values[v] ** e)
        total = total + t
    return total


def _evaluation_points(m, rnd):
    from padicdesk.artinian import ArtinianElement
    from padicdesk.cyclotomic import CyclotomicElement

    ints = [[rnd.randrange(-4, 5) + 9 * (i == j) for j in range(m)] for i in range(m)]
    yield ExactMatrix(ints)
    yield ExactMatrix([[Fraction(x, rnd.randrange(1, 6)) for x in row] for row in ints])
    eps = ArtinianElement.gen(2, 0) + ArtinianElement.gen(2, 1) * Fraction(1, 3)
    yield ExactMatrix([[ArtinianElement.constant(2, x) + (eps if i < j else 0)
                        for j, x in enumerate(row)] for i, row in enumerate(ints)])
    zeta = CyclotomicElement.zeta(5)
    yield ExactMatrix([[CyclotomicElement.from_rational(x, 5) + (zeta * (i - j) if i > j else 0)
                        for j, x in enumerate(row)] for i, row in enumerate(ints)])


@pytest.mark.parametrize("m, weight, convention", [
    (2, (2, -1), "upper"), (3, (1, -1, -2), "upper"), (3, (0, -2, -3), "lower"),
    (3, (-1, -2, -4), "upper"), (4, (1, 0, 0, -1), "lower")])
def test_decoded_evaluation_matches_the_fields_loop(m, weight, convention):
    # basis_numerators and basis_values read the closure's decoded terms; the
    # oracle decodes every monomial again, at rational and ring-element points
    from padicdesk.glrep import _Point

    rnd = random.Random(m * 31 + sum(weight))
    model = GLBlockModel(m, weight, convention)
    closure = model._closure
    indices = range(model.dimension)
    for g in _evaluation_points(m, rnd):
        point = _Point(g, model.shift, closure.degree)
        want = {idx: _numerator_by_fields(closure, point.values, idx) for idx in indices}
        numerators, factor = model.basis_numerators(g, indices)
        assert numerators == want and factor == point.factor
        assert model.basis_values(g, indices) == {idx: v * factor for idx, v in want.items()}
    for idx in indices:
        coefficient_sum = sum(abs(c) for c in closure.packed[idx].values())
        assert model.numerator_bits(idx, 5) == (coefficient_sum.bit_length()
                                                + closure.degree * 5)
