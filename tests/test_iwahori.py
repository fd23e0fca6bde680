import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from padicdesk import iwahori as iw
from padicdesk.artinian import ArtinianElement
from padicdesk.matrices import ExactMatrix, modular_inverse, rational_inverse, row_reduce
from padicdesk.polynomials import Poly
from padicdesk.rationals import valuation


def test_special_matrix_relations():
    for n in (2, 3):
        gamma = iw.gamma_element(n)
        gammahat = iw.gammahat_element(n)
        assert gammahat == gamma * iw.w_cycle(n)
        # s_p = w t_p w
        w = iw.antidiag(2 * n)
        assert iw.s_p_matrix(n, 3) == w * iw.t_p_matrix(n, 3) * w


def test_w_cycle_length():
    # the permutation underlying the cycle has exactly n inversions
    for n in (2, 3, 4):
        w = iw.w_cycle(n)
        perm = []
        for j in range(2 * n):
            col = [i for i in range(2 * n) if w.rows[i][j] != 0]
            perm.append(col[0])
        inversions = sum(1 for a in range(2 * n) for b in range(a + 1, 2 * n)
                         if perm[a] > perm[b])
        assert inversions == n


def test_gammahat_coset_relation():
    for n in (2, 3, 4):
        rep = iw.gammahat_coset_relation(n)
        assert rep["passed"], rep
        # the block determinant records the parity used downstream
        assert rep["det_zeta_block"] == Fraction(-1) ** (n - 1)


def test_iwahori_factor_examples():
    # identity permutation: X = I + diag(t): already upper
    xp, xm = iw.iwahori_factor(iw.permuted_dual_matrix((1, 2), 2))
    one = ArtinianElement.constant(2, 1)
    assert xm == ExactMatrix.identity(2, one, ArtinianElement(2, {}))
    # transposition
    xp, xm = iw.iwahori_factor(iw.permuted_dual_matrix((2, 1), 2))
    T1, T2 = ArtinianElement.gen(2, 0), ArtinianElement.gen(2, 1)
    assert xp.rows[0][0] == one - T1 * T2
    assert xp.rows[1][1] == ArtinianElement.constant(2, 1)
    assert xm.rows[1][0] == T2
    # 3-cycle: diagonal (1 + t1 t2 t3, 1, 1)
    xp, _ = iw.iwahori_factor(iw.permuted_dual_matrix((2, 3, 1), 3))
    prod = (ArtinianElement.gen(3, 0) * ArtinianElement.gen(3, 1)
            * ArtinianElement.gen(3, 2))
    assert xp.rows[0][0] == ArtinianElement.constant(3, 1) + prod


@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_iwahori_factor_closed_form_all_permutations(a):
    for perm in permutations(range(1, a + 1)):
        X = iw.permuted_dual_matrix(perm, a)
        xp, xm = iw.iwahori_factor(X)
        assert xp * xm == X
        for i in range(a):
            for j in range(a):
                if i > j:
                    assert xp.rows[i][j].is_zero()
                if i < j:
                    assert xm.rows[i][j].is_zero()
        assert [xp.rows[i][i] for i in range(a)] == \
            iw.iwahori_diagonal_closed_form(perm, a)


def test_iwahori_factor_rational_and_error():
    X = ExactMatrix([[Fraction(2), Fraction(3)], [Fraction(1), Fraction(4)]])
    xp, xm = iw.iwahori_factor(X)
    assert xp * xm == X
    X = ExactMatrix([[2, 3], [1, 4]])
    xp, xm = iw.iwahori_factor(X)
    assert xp * xm == X
    for singular in (ExactMatrix([[ArtinianElement.gen(1, 0)]]),
                     ExactMatrix([[1, 0], [0, 0]]), ExactMatrix([[1, 1], [1, 1]])):
        with pytest.raises(ZeroDivisionError, match="non-unit pivot in the factorization"):
            iw.iwahori_factor(singular)


def test_index_formula_and_enumeration():
    assert iw.iwahori_index_exponent(2, 2, 2) == 0
    assert iw.iwahori_index_exponent(2, 1, 2) == 6
    assert iw.iwahori_index_exponent(3, 1, 3) == 30
    with pytest.raises(ValueError):
        iw.iwahori_index_exponent(2, 0, 1)
    # rank-one oracle: index p^(beta - e) by enumeration
    assert iw.gl2_index_enumeration(3, 1, 2) == 3
    assert iw.gl2_index_enumeration(2, 1, 2) == 2


def test_double_coset_singleton_small():
    rep = iw.double_coset_singleton(2, 2, 1)
    assert rep["passed"] and rep["checked"] == 64
    assert rep["witnesses"]


def _double_coset_oracle(n, p, beta, max_witnesses=3):
    """The enumeration with [A | t] row-reduced for every representative t and
    explicit products mod p^(beta+1), h^-1 taken as I - p^beta Y; the
    residual factor is gh^-1 (h^-1 (gh x)), not (2I - conj) x."""
    m = 2 * n
    modulus = p ** (beta + 1)
    gh = iw.u_element(n, False)

    def residues(mat, q):
        assert all(x.denominator == 1 for row in mat.rows for x in row)
        return [[int(x) % q for x in row] for row in mat.rows]

    def mul(a, b, q):
        # each row adds up the rows of b at the nonzeros of its row of a
        out = []
        for row in a:
            acc = [0] * m
            for x, brow in zip(row, b):
                if x:
                    acc = [s + x * y for s, y in zip(acc, brow)]
            out.append([s % q for s in acc])
        return out

    def upper_unit(res, depth):
        return (all(res[i][i] % p for i in range(m))
                and all(res[i][j] % p ** depth == 0 for i in range(m) for j in range(i)))

    gh_res, ghi_res = residues(gh, modulus), residues(rational_inverse(gh), modulus)
    lower_pos = [(i, j) for i in range(m) for j in range(m) if i > j]
    y_basis = [(i, j) for i in range(m) for j in range(m) if (i < n) == (j < n)]
    cols = []
    for yi, yj in y_basis:
        y = [[int((i, j) == (yi, yj)) for j in range(m)] for i in range(m)]
        img = mul(mul(ghi_res, y, p), gh_res, p)
        cols.append([img[i][j] for i, j in lower_pos])
    a_rows = list(zip(*cols))
    ncols = len(y_basis)
    pb = p ** beta
    witnesses = []
    checked = 0
    for digits in product(range(p), repeat=len(lower_pos)):
        target = list(digits)
        reduced, piv = row_reduce([[*row, t] for row, t in zip(a_rows, target)], p)
        if piv and piv[-1] == ncols:
            return {"passed": False, "checked": checked, "witnesses": witnesses,
                    "detail": "no connecting subgroup element for a representative"}
        sol = [0] * ncols
        for row, c in zip(reduced, piv):
            sol[c] = row[ncols]
        y = [[0] * m for _ in range(m)]
        for val, (yi, yj) in zip(sol, y_basis):
            y[yi][yj] = val
        h = [[int(i == j) + pb * y[i][j] for j in range(m)] for i in range(m)]
        h_inv = [[(int(i == j) - pb * y[i][j]) % modulus for j in range(m)] for i in range(m)]
        x = [[int(i == j) for j in range(m)] for i in range(m)]
        for val, (i, j) in zip(target, lower_pos):
            x[i][j] = pb * val
        if not upper_unit(mul(ghi_res, mul(h, gh_res, modulus), modulus), beta):
            return {"passed": False, "checked": checked, "witnesses": witnesses,
                    "detail": "witness conjugate left the depth-beta Iwahori"}
        k_res = mul(ghi_res, mul(h_inv, mul(gh_res, x, modulus), modulus), modulus)
        if not upper_unit(k_res, beta + 1):
            return {"passed": False, "checked": checked, "witnesses": witnesses,
                    "detail": "residual factor left the depth-(beta+1) Iwahori"}
        if len(witnesses) < max_witnesses:
            witnesses.append({"representative": target, "subgroup_part": sol})
        checked += 1
    return {"passed": True, "checked": checked, "witnesses": witnesses,
            "conjugator": "simple antidiagonal open-orbit form",
            "detail": f"all {checked} representatives connected"}


@pytest.mark.parametrize("n, p, beta", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1)])
def test_double_coset_singleton_matches_per_representative_solve(n, p, beta):
    # every representative kept as a witness, so every subgroup part is compared
    every = p ** (n * (2 * n - 1))
    assert (iw.double_coset_singleton(n, p, beta, max_witnesses=every)
            == _double_coset_oracle(n, p, beta, max_witnesses=every))


def test_double_coset_wrong_solution_is_caught(monkeypatch):
    # one representative gets a subgroup part off by one coordinate: its
    # residual factor must leave the depth-(beta+1) Iwahori
    true_solver = iw._subgroup_solver

    def tampered_solver(n, p):
        y_basis, lower_pos, solve = true_solver(n, p)

        def wrong(target):
            sol = solve(target)
            if target == [0, 0, 0, 0, 0, 1]:
                sol[0] = (sol[0] + 1) % p
            return sol

        return y_basis, lower_pos, wrong

    monkeypatch.setattr(iw, "_subgroup_solver", tampered_solver)
    rep = iw.double_coset_singleton(2, 3, 1)
    assert rep["passed"] is False
    assert rep["checked"] == 1
    assert rep["detail"] == "residual factor left the depth-(beta+1) Iwahori"


def test_double_coset_budget(monkeypatch):
    # the suite owns the budget and refuses before the enumeration starts
    from padicdesk.suites import BudgetExceeded, run_iwahori_suite

    monkeypatch.setattr(iw, "double_coset_singleton", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(BudgetExceeded, match="729 representatives > budget 10"):
        run_iwahori_suite(2, 3, 1, budget=10)


def test_double_coset_needs_positive_beta():
    with pytest.raises(ValueError, match="beta must be >= 1"):
        iw.double_coset_singleton(2, 3, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("beta", [1, 2])
def test_unipotent_closed_form_inverse(p, beta):
    # double_coset_singleton inverts h = I + p^beta Y as I - p^beta Y mod p^(beta+1)
    rnd = random.Random(p * 10 + beta)
    modulus = p ** (beta + 1)
    for _ in range(20):
        m = rnd.choice([2, 4, 6])
        y = [[rnd.randrange(-3 * p, 3 * p) for _ in range(m)] for _ in range(m)]
        h = ExactMatrix([[int(i == j) + p ** beta * y[i][j] for j in range(m)] for i in range(m)])
        closed = [[(int(i == j) - p ** beta * y[i][j]) % modulus for j in range(m)]
                  for i in range(m)]
        assert modular_inverse(h, modulus).rows == closed


def _reduce(mat, q):
    """An integral Fraction matrix reduced entrywise mod q."""
    assert all(x.denominator == 1 for row in mat.rows for x in row)
    return [[int(x) % q for x in row] for row in mat.rows]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_residue_product_matches_exact_products(n, p, M):
    # _mod_mul and _conjugate against ExactMatrix products over Fraction, on
    # integer matrices with negative entries and zeros for the skip
    rnd = random.Random(100 * n + 10 * p + M)
    q = p ** M
    m = 2 * n
    gh = iw.u_element(n, False)
    gh_inv = rational_inverse(gh)

    def draw(rows, cols):
        return [[rnd.randrange(-3 * q, 3 * q) if rnd.random() < 0.7 else 0
                 for _ in range(cols)] for _ in range(rows)]

    def exact(rows):
        return ExactMatrix([[Fraction(x) for x in row] for row in rows])

    for _ in range(20):
        a, b = draw(m, m), draw(m, m)
        assert iw._mod_mul(a, b, q) == _reduce(exact(a) * exact(b), q)
        assert iw._conjugate(a, n, q) == _reduce(gh_inv * exact(a) * gh, q)
        row, rect = draw(1, m), draw(m, m + 2)
        assert iw._mod_mul(row, rect, q) == _reduce(exact(row) * exact(rect), q)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_simple_conjugator_rows(n):
    gh, gh_inv = iw._simple_conjugator(n)
    u = iw.u_element(n, False)
    assert gh == u.rows
    assert gh_inv == rational_inverse(u).rows
    assert all(type(x) is int for row in gh + gh_inv for x in row)


def _subgroup_member(h, n, p, beta, M):
    """h in H and gammahat^-1 h gammahat in the depth-beta Iwahori (mod p^M)."""
    modulus = p ** M
    return (iw.block_diagonal_member(h, n, modulus)
            and iw.iwahori_member(iw._conjugate(h, n, modulus), p, beta, modulus))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_intrinsic_description_matches_conjugated_membership(p):
    # the intrinsic depth-(beta+1) description agrees with membership of the
    # conjugate, on samples of the depth-beta subgroup of both kinds
    rnd = random.Random(p)
    seen = set()
    for n in (2, 3):
        for beta in (1, 2):
            M = beta + 2
            for k in range(100):
                h = iw.sample_block_subgroup(n, p, beta + (k % 2 == 0), M, rnd)
                assert all(0 <= x < p ** M for row in h for x in row)
                assert _subgroup_member(h, n, p, beta, M)
                deep = _subgroup_member(h, n, p, beta + 1, M)
                assert iw.intrinsic_subgroup_member(h, n, p, beta + 1) == deep
                seen.add(deep)
    assert seen == {False, True}


def test_intersection_check_fails_with_a_false_intrinsic_description(monkeypatch):
    # the check compares two independent predicates, so a wrong one is caught
    monkeypatch.setattr(iw, "intrinsic_subgroup_member", lambda h, n, p, depth: True)
    rep = iw.intersection_check(2, 3, 1, 60, seed=7)
    assert rep["passed"] is False


def test_intersection_and_similitude():
    rep = iw.intersection_check(2, 3, 1, 60, seed=7)
    assert rep["passed"] and rep["deep_members"] > 0
    rep = iw.similitude_congruence_check(2, 3, 1, 100, seed=7)
    assert rep["passed"]
    rep = iw.similitude_congruence_check(2, 3, 2, 50, seed=9)
    assert rep["passed"]


def test_orbit_stabilizers():
    r = iw.orbit_stabilizer_uv(2)
    assert r["stabilizer_dim"] == 2 and r["open"]
    r = iw.orbit_stabilizer_uv(3)
    assert r["stabilizer_dim"] == 2 and r["open"]
    r = iw.orbit_stabilizer_uv(2, distinguished=False)
    assert r["open"]
    r = iw.orbit_stabilizer_gammahat(2)
    assert r["open"]
    r = iw.orbit_stabilizer_gammahat(3)
    assert r["open"]


def test_uv_stabilizer_contains_diagonal_pattern():
    # diag(x, y, ..., y) fixes the pair coset: re-verify by direct membership
    n = 2
    m = 2 * n
    u = iw.u_element(n)
    x, y = Fraction(5), Fraction(2)
    X = ExactMatrix([[x if i == j == 0 else (y if i == j else Fraction(0))
                      for j in range(m)] for i in range(m)])
    conj = rational_inverse(u) * X * u
    for i in range(m):
        for j in range(i):
            assert conj.rows[i][j] == 0


def test_coset_witness_identity():
    for n in (2, 3):
        for beta in (1, 2, 3):
            rep = iw.coset_witness_identity(n, beta, 3)
            assert rep["passed"], (n, beta)
    rep = iw.coset_witness_identity(2, 1, 5)
    assert rep["passed"]


def test_hecke_diagonal_multiplicativity():
    for n in (2, 3):
        for e in (1, 2, 3):
            assert iw.hecke_diagonal_multiplicativity(n, 3, e)


def test_frobenius_twist_identity():
    for n in (2, 3):
        for bp in (1, 2):
            rep = iw.frobenius_twist_identity(n, 3, bp)
            assert rep["passed"], (n, bp)
    rep = iw.frobenius_twist_identity(2, 5, 1)
    assert rep["passed"]


def _symbolic_twist_oracle(n, p, bp):
    """Both sides of the Frobenius twist identity (times xi_c) as matrices of Poly in c."""
    m = 2 * n

    def lift(mat):
        return ExactMatrix([[Poly.constant(x) for x in row] for row in mat.rows])

    xib = ExactMatrix.identity(m)
    xib.rows[0][0] = Fraction(1, p ** bp)
    c = Poly.variable(0)
    xi_c = ExactMatrix.identity(m, Poly.constant(1), Poly.constant(0))
    xi_c.rows[0][0] = c + p ** bp
    u_c = ExactMatrix.identity(m, Poly.constant(1), Poly.constant(0))
    u_c.rows[0][n] = c
    gamma = lift(iw.gamma_element(n))
    return (lift(xib) * xi_c * gamma).rows == (gamma * lift(xib) * u_c * xi_c).rows


def test_frobenius_twist_identity_fails_for_a_perturbed_gamma(monkeypatch):
    # the three-point symbolic check agrees with the identity over Poly in c,
    # for gamma perturbed by one off-diagonal unit at each slot, and fails at (1, 0)
    true_gamma = iw.gamma_element
    n, p, bp = 2, 3, 1
    for i, j in product(range(2 * n), repeat=2):
        if i == j:
            continue

        def perturbed(n, distinguished=True, i=i, j=j):
            g = true_gamma(n, distinguished)
            g.rows[i][j] += 1
            return g

        monkeypatch.setattr(iw, "gamma_element", perturbed)
        symbolic = iw.frobenius_twist_identity(n, p, bp)["symbolic"]
        assert symbolic == _symbolic_twist_oracle(n, p, bp), (i, j)
        if (i, j) == (1, 0):
            assert symbolic is False


def test_membership_predicates():
    res = [[1, 0], [3, 2]]
    assert iw.iwahori_member(res, 3, 1, 9)
    assert not iw.iwahori_member([[1, 0], [1, 2]], 3, 1, 9)
    assert not iw.iwahori_member([[3, 0], [0, 1]], 3, 1, 9)
    assert iw.block_diagonal_member([[1, 2, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 5, 1]], 2, 9)
    assert not iw.block_diagonal_member([[1, 0, 1, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]], 2, 9)
