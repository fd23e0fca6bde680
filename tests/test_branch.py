import random
from fractions import Fraction

import pytest

from padicdesk.branch import (BranchModel, GeneratorFamily, MPoint,
                              algebraic_product_value, column_point,
                              twisted_product_value, u_conjugator, v_basepoint)
from padicdesk.characters import PCharacter
from padicdesk.glrep import WeightData
from padicdesk.iwahori import u_element
from padicdesk.mahler import weighted_indicator
from padicdesk.matrices import ExactMatrix
from padicdesk.polynomials import Poly
from padicdesk.rationals import valuation
from padicdesk.suites import (random_congruence_unipotent, random_subgroup_point,
                              random_unit_box_point)
from poly_oracle import basis, coordinates, evaluate, lie_action


def test_trivial_weight():
    bm = BranchModel(WeightData(2, 1, 0, [[0, 0, 0, 0]], [0]))
    assert bm.dimension == 1 and bm.eigen_dimension == 1
    ident = MPoint.identity(2, 1)
    assert bm.pair_value(ident, ident) == 1


def test_multiplicity_one_spec_instances():
    # j = 0 instance
    bm = BranchModel(WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]))
    assert bm.eigen_dimension == 1
    # j = 1 instance exercising the twist tensor step
    bm2 = BranchModel(WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]))
    assert bm2.eigen_dimension == 1 and bm2.dimension == 70


def test_normalization_value_is_one():
    for wd in [WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]),
               WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])]:
        bm = BranchModel(wd)
        u = u_conjugator(wd.n, wd.d)
        assert bm.pair_value(u, v_basepoint(wd.n, wd.d)) == 1
        assert bm.normalization_value() == 1


def test_off_cone_error():
    with pytest.raises(ValueError, match="cone"):
        BranchModel(WeightData(2, 1, 0, [[3, 2, 0, -3]], [0]))


def test_dimension_cap_error():
    with pytest.raises(ValueError, match="cap"):
        BranchModel(WeightData(2, 1, 0, [[6, 5, -5, -6]], [1]), dim_cap=100)


def test_group_eigen_property():
    rnd = random.Random(7)
    bm = BranchModel(WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]))
    for _ in range(20):
        m = random_subgroup_point(2, 1, rnd)
        assert bm.eigen_check(m)


def test_group_eigen_property_two_components():
    rnd = random.Random(3)
    wd = WeightData(2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1])
    bm = BranchModel(wd)
    for _ in range(5):
        assert bm.eigen_check(random_subgroup_point(2, 2, rnd))


@pytest.mark.parametrize("n, d, kappa0, kappa, j", [
    (2, 1, 0, [[3, 2, -2, -3]], [1]),
    (2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
    (3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
])
def test_group_eigen_property_at_points_with_rational_inverses(n, d, kappa0, kappa, j):
    # a diagonal factor keeps the point in the subgroup and gives the blocks
    # non-integral inverses, which the block group action reads over L^degree
    rnd = random.Random(11)
    bm = BranchModel(WeightData(n, d, kappa0, kappa, j))
    for _ in range(4):
        m = random_subgroup_point(n, d, rnd)
        blocks = [b * ExactMatrix([[Fraction(rnd.choice((2, 3, -1, Fraction(1, 2)))) if r == c
                                    else Fraction(0) for c in range(b.ncols)]
                                   for r in range(b.nrows)]) for b in m.blocks]
        assert bm.eigen_check(MPoint(m.sim, m.g1, blocks))


def test_unit_values_and_column_oracle():
    p, beta = 3, 1
    M = beta + 2
    rnd = random.Random(11)
    for wd in [WeightData(2, 1, 0, [[3, 2, -2, -3]], [1]),
               WeightData(3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1])]:
        bm = BranchModel(wd)
        n = wd.n
        for _ in range(8):
            g = random_congruence_unipotent(n, wd.d, p, beta, M, rnd)
            a = random_unit_box_point(n, p, beta, M, rnd)
            val = bm.box_restriction_value(g, a)
            assert valuation(val - 1, p) >= beta
            assert val == bm.open_orbit_value(g, column_point(n, a))


def test_unit_values_beta_two():
    p, beta = 3, 2
    M = beta + 2
    rnd = random.Random(13)
    bm = BranchModel(WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]))
    for _ in range(6):
        g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
        a = random_unit_box_point(2, p, beta, M, rnd)
        val = bm.box_restriction_value(g, a)
        assert valuation(val - 1, p) >= beta


def test_general_unit_value_without_congruence():
    # arbitrary unit in the middle slot: the value is a p-unit (scaled by its power)
    p, beta = 3, 1
    M = beta + 2
    rnd = random.Random(5)
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    bm = BranchModel(wd)
    for unit in (1, 2, 4, 5):
        g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
        a = [Fraction(rnd.randrange(0, p ** M)), Fraction(unit),
             Fraction(p * rnd.randrange(0, p ** (M - 1)))]
        val = bm.box_restriction_value(g, a)
        assert valuation(val, p) == 0
        # the unit part is the middle coordinate to the twist degree, mod p^beta
        assert valuation(val - Fraction(unit) ** wd.j[0], p) >= beta


def test_convention_point_value():
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    bm = BranchModel(wd)
    a = [Fraction(0), Fraction(1), Fraction(0)]
    assert bm.box_restriction_value(MPoint.identity(2, 1), a) == 1


def test_generator_product_reassembly_and_twist():
    p, beta = 3, 1
    M = beta + 2
    rnd = random.Random(23)
    fam = GeneratorFamily(2, 1)
    chi = PCharacter.from_log(p, 1, 1)
    wd = WeightData(2, 1, 0, [[3, 2, -2, -3]], [1])
    bm = BranchModel(wd)
    for trial in range(10):
        g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
        a = random_unit_box_point(2, p, beta, M, rnd)
        if trial % 3 == 2:
            a[1] = Fraction(p * rnd.randrange(0, p))  # leave the unit box
            assert twisted_product_value(fam, wd, [chi], g, a).is_zero()
            continue
        direct = bm.box_restriction_value(g, a)
        assert direct == algebraic_product_value(fam, wd, g, a)
        tw = twisted_product_value(fam, wd, [chi], g, a)
        assert tw == weighted_indicator(beta, chi, a) * direct


def test_branch_vector_serialization():
    bm = BranchModel(WeightData(2, 1, 0, [[2, 1, -2, -2]], [0]))
    data = bm.to_json()
    assert data["eigenspace_dimension"] == 1
    assert len(data["basis_labels"]) == bm.dimension
    # reproducible across a rebuild
    again = BranchModel(WeightData(2, 1, 0, [[2, 1, -2, -2]], [0])).to_json()
    assert data == again


def test_trivial_weight_restriction_constant_one():
    p, beta = 3, 1
    M = beta + 2
    rnd = random.Random(31)
    bm = BranchModel(WeightData(2, 1, 0, [[0, 0, 0, 0]], [0]))
    for _ in range(5):
        g = random_congruence_unipotent(2, 1, p, beta, M, rnd)
        a = random_unit_box_point(2, p, beta, M, rnd)
        assert bm.box_restriction_value(g, a) == 1


def _unipotent(size, extra):
    """The identity plus a 1 at every (i, j) with extra(i, j)."""
    return ExactMatrix([[Fraction(int(i == j or extra(i, j))) for j in range(size)]
                        for i in range(size)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_open_orbit_conjugator_forms(n):
    # the antidiagonal sits in the lower-left n x n block; at the distinguished
    # component it feeds coordinate n+1-i into n+1+i and misses the GL_1 slot
    other = _unipotent(2 * n, lambda i, j: i >= n and i + j == 2 * n - 1)
    dist = _unipotent(2 * n, lambda i, j: i > n and i + j == 2 * n)
    assert u_element(n, False) == other
    assert u_element(n, True) == dist
    u = u_conjugator(n, 3)
    assert u.blocks == [ExactMatrix(row[1:] for row in dist.rows[1:]), other, other]


def _apply_lie_oracle(bm, where, comp, a, b, q):
    """E_(a,b) on basis vector q from Poly.diff, read off by Fraction row reduction.

    where maps each index key of bm to its position.
    """
    block_idx, J = bm.index[q]
    model = bm.blocks[comp]
    la, lb = (a - 1, b - 1) if comp == 0 else (a, b)
    out = {}
    image = lie_action(model.m, la, lb, basis(model)[block_idx[comp]])
    for i2, c in coordinates(model, image).items():
        nb = list(block_idx)
        nb[comp] = i2
        out[where[(tuple(nb), J)]] = c
    if comp == 0:
        x_J = Poly({tuple((v, J.count(v)) for v in set(J)): 1})
        twist = -(x_J.diff(a - 1) * Poly.variable(b - 1))
        for mono, c in twist.terms.items():
            key = where[(block_idx, tuple(sorted(v for v, e in mono for _ in range(e))))]
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


_ORACLE_WEIGHTS = [
    (2, 1, 0, [[3, 2, -2, -3]], [1]),
    (2, 1, 0, [[0, 2, -1, -3]], [2]),
    (2, 1, 1, [[1, 1, -1, -2]], [1]),
    (2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
    (3, 1, 0, [[0, 1, 1, 0, -1, -1]], [1]),
]


@pytest.mark.parametrize("n, d, kappa0, kappa, j", _ORACLE_WEIGHTS)
def test_apply_lie_matches_derivative_oracle(n, d, kappa0, kappa, j):
    bm = BranchModel(WeightData(n, d, kappa0, kappa, j))
    where = {key: i for i, key in enumerate(bm.index)}
    twisted = 0
    for (comp, a, b) in bm._subgroup_offdiag():
        for q in range(bm.dimension):
            ours = bm._apply_lie(comp, a, b, q)
            assert ours == _apply_lie_oracle(bm, where, comp, a, b, q), (comp, a, b, q)
            twisted += comp == 0 and (a - 1) in bm.index[q][1]
    assert (twisted > 0) == (j[0] > 0)  # the twist step ran whenever there is a twist


@pytest.mark.parametrize("n, d, kappa0, kappa, j", [
    (2, 1, 0, [[3, 2, -2, -3]], [1]),
    (2, 2, 0, [[0, 1, -1, -1], [1, 1, -1, -1]], [0, 1]),
])
def test_box_restriction_computes_one_det_per_block(n, d, kappa0, kappa, j, monkeypatch):
    bm = BranchModel(WeightData(n, d, kappa0, kappa, j))
    assert all(model.shift for model in bm.blocks)  # every block needs its det twist
    rnd = random.Random(3)
    g = random_congruence_unipotent(n, d, 3, 1, 3, rnd)
    a = random_unit_box_point(n, 3, 1, 3, rnd)
    want = bm.box_restriction_value(g, a)
    calls = []
    true_det = ExactMatrix.det
    monkeypatch.setattr(ExactMatrix, "det", lambda self: calls.append(self) or true_det(self))
    assert bm.box_restriction_value(g, a) == want
    assert len(calls) <= len(bm.blocks)


def _pairing_oracle(bm, g, column, coords):
    """sum over q, one coordinate at a time, of c_q * V_q(g) * prod_(v in J_q) column[v]."""
    wd = bm.wd
    out = Fraction(0)
    for q, c in coords.items():
        block_idx, J = bm.index[q]
        term = c * g.sim ** (-wd.kappa0) * g.g1 ** (-wd.kappa[0][0])
        for t, i in enumerate(block_idx):
            term *= evaluate(bm.blocks[t], basis(bm.blocks[t])[i], g.blocks[t])
        for v in J:
            term *= column[v]
        out += term
    return out


@pytest.mark.parametrize("n, d, kappa0, kappa, j", _ORACLE_WEIGHTS)
def test_every_pairing_matches_the_coordinate_oracle(n, d, kappa0, kappa, j):
    p, beta, M = 3, 1, 3
    rnd = random.Random(17)
    bm = BranchModel(WeightData(n, d, kappa0, kappa, j))
    u = u_conjugator(n, d)
    other = {q: Fraction(q + 1, 3) for q in range(0, bm.dimension, 2)}
    for _ in range(3):
        # a nontrivial similitude and GL_1 entry exercise the character factor
        g = MPoint(2, 3, random_congruence_unipotent(n, d, p, beta, M, rnd).blocks)
        a = random_unit_box_point(n, p, beta, M, rnd)
        h = MPoint(1, 5, column_point(n, a).blocks)
        h_column = [h.blocks[0].rows[i][n - 1] / h.g1 for i in range(2 * n - 1)]
        ug = MPoint(u.sim * g.sim, u.g1 * g.g1,
                    [ub * gb for ub, gb in zip(u.blocks, g.blocks)])
        folded = list(a)
        for i in range(1, n):
            folded[n - 1 + i] = a[n - 1 + i] + a[n - 1 - i]
        assert bm.pair_value(g, h) == _pairing_oracle(bm, g, h_column, bm.coords)
        assert bm.open_orbit_value(g, h) == _pairing_oracle(bm, ug, h_column, bm.coords)
        assert bm.box_restriction_value(g, a) == _pairing_oracle(bm, ug, folded, bm.coords)
        assert bm.cpol_value(g, a) == _pairing_oracle(bm, g, a, bm.coords)
        assert bm.cpol_value(g, a, coords=other) == _pairing_oracle(bm, g, a, other)


def test_u_conjugator_is_shared_and_left_unchanged():
    shapes = sorted({(n, d) for n, d, *_ in _ORACLE_WEIGHTS})
    before = {key: (u_conjugator(*key), [[list(r) for r in b.rows]
                                         for b in u_conjugator(*key).blocks])
              for key in shapes}
    rnd = random.Random(19)
    for n, d, kappa0, kappa, j in _ORACLE_WEIGHTS:
        bm = BranchModel(WeightData(n, d, kappa0, kappa, j))
        g = random_congruence_unipotent(n, d, 3, 1, 3, rnd)
        a = random_unit_box_point(n, 3, 1, 3, rnd)
        bm.box_restriction_value(g, a)
        bm.open_orbit_value(g, column_point(n, a))
        assert bm.normalization_value() == 1
    for key, (u, rows) in before.items():
        assert u_conjugator(*key) is u
        assert (u.sim, u.g1) == (1, 1)
        assert [[list(r) for r in b.rows] for b in u.blocks] == rows
